"""Ordinals below Gamma_0 in Veblen normal form.

An ordinal is a non-increasing sum of infinite Veblen terms phi(level, arg)
followed by a finite part.  The finite part is kept as a plain int so that
large finite ordinals (which step-down traces produce in bulk) stay cheap.
Values are normalized at construction time and hash-consed, so equal values
are one object and equality is identity.
"""

from __future__ import annotations

from enum import Enum

from ._intern import Interned, lookup, store
from .syntax import ParseError, Scanner


class NotLeftSubtractable(ValueError):
    pass


class NotPrincipal(ValueError):
    pass


class NotSuccessor(ValueError):
    pass


class OrdinalKind(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class VeblenTerm(Interned):
    """A single normal term phi(level, arg) with arg < phi(level, arg).

    Terms here are always infinite: phi(0, 0) = 1 lives in the finite part
    of Ordinal instead.
    """

    __slots__ = ("level", "arg")

    def __new__(cls, level: "Ordinal", arg: "Ordinal"):
        key = (cls, level, arg)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.level = level
            node.arg = arg
        return node

    def __repr__(self):
        return "phi(%r,%r)" % (self.level, self.arg)


class Ordinal(Interned):
    """terms + fin: normalized sum of infinite terms plus a natural number."""

    __slots__ = ("terms", "fin", "_iota")

    def __new__(cls, terms: tuple = (), fin: int = 0):
        key = (cls, terms, fin)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.terms = terms
            node.fin = fin
            node._iota = None  # the canonical bracket worm, see worms.iota_worm
        return node

    def __lt__(self, other):
        return cmp(self, other) < 0

    def __le__(self, other):
        return cmp(self, other) <= 0

    def __gt__(self, other):
        return cmp(self, other) > 0

    def __ge__(self, other):
        return cmp(self, other) >= 0

    def __bool__(self):
        return bool(self.terms) or self.fin > 0

    def is_zero(self) -> bool:
        return not self.terms and self.fin == 0

    def __repr__(self):
        return "Ordinal(%s)" % print_ordinal(self)


ZERO = Ordinal()
ONE = Ordinal((), 1)
OMEGA = Ordinal((VeblenTerm(ZERO, ONE),))


def _single(t: VeblenTerm) -> Ordinal:
    return Ordinal((t,))


def _cmp_term(s: VeblenTerm, t: VeblenTerm) -> int:
    if s is t:
        return 0
    c = cmp(s.level, t.level)
    if c == 0:
        return cmp(s.arg, t.arg)
    if c < 0:
        # phi_a b < phi_c d for a < c  iff  b < phi_c d.  Equality is
        # impossible: a normalized term never has a higher-level term as arg.
        return -1 if cmp(s.arg, _single(t)) < 0 else 1
    return 1 if cmp(t.arg, _single(s)) < 0 else -1


def cmp(x: Ordinal, y: Ordinal) -> int:
    """Total order on normalized values: -1, 0, or 1."""
    if x is y:
        return 0
    if not x.terms and not y.terms:
        return -1 if x.fin < y.fin else (1 if x.fin > y.fin else 0)
    for s, t in zip(x.terms, y.terms):
        c = _cmp_term(s, t)
        if c:
            return c
    if len(x.terms) != len(y.terms):
        return -1 if len(x.terms) < len(y.terms) else 1
    if x.fin != y.fin:
        return -1 if x.fin < y.fin else 1
    return 0


def add(x: Ordinal, y: Ordinal) -> Ordinal:
    """Ordinal sum: trailing parts of x below the lead of y are absorbed."""
    if not y.terms:
        if y.fin == 0:
            return x
        return Ordinal(x.terms, x.fin + y.fin)
    lead = y.terms[0]
    i = len(x.terms)
    while i > 0 and _cmp_term(x.terms[i - 1], lead) < 0:
        i -= 1
    return Ordinal(x.terms[:i] + y.terms, y.fin)


def left_sub(mu: Ordinal, xi: Ordinal) -> Ordinal:
    """The unique delta with mu + delta = xi; requires mu <= xi."""
    c = cmp(mu, xi)
    if c > 0:
        raise NotLeftSubtractable("%r > %r" % (mu, xi))
    if c == 0:
        return ZERO
    i = 0
    mt, xt = mu.terms, xi.terms
    while i < len(mt) and i < len(xt) and mt[i] == xt[i]:
        i += 1
    if i < len(xt):
        # mu < xi, so mu cannot match every term of xi and keep terms left
        # over; whatever mu has from term i on is absorbed by xi.terms[i]
        return Ordinal(xt[i:], xi.fin)
    return Ordinal((), xi.fin - mu.fin)


def mul_nat(x: Ordinal, n: int) -> Ordinal:
    """x added to itself n times."""
    if n < 0:
        raise ValueError("negative multiplier")
    if n == 0:
        return ZERO
    if n == 1 or x.is_zero():
        return x
    if not x.terms:
        return Ordinal((), x.fin * n)
    lead = x.terms[0]
    j = 1
    while j < len(x.terms) and x.terms[j] == lead:
        j += 1
    # x*n = lead*(j*(n-1)) + x because the sub-lead tail is absorbed by lead
    return Ordinal((lead,) * (j * (n - 1)) + x.terms, x.fin)


def nat(n: int) -> Ordinal:
    """The finite ordinal n."""
    if n < 0:
        raise ValueError("negative natural")
    return Ordinal((), n)


def is_principal(x: Ordinal) -> bool:
    """True iff x is additively indecomposable and nonzero."""
    if x.terms:
        return len(x.terms) == 1 and x.fin == 0
    return x.fin == 1


def omega_pow(x: Ordinal) -> Ordinal:
    """omega**x as a normalized value."""
    if x.is_zero():
        return ONE
    if len(x.terms) == 1 and x.fin == 0 and x.terms[0].level:
        # x is a fixpoint of the base-omega exponential
        return x
    return Ordinal((VeblenTerm(ZERO, x),))


def log_principal(x: Ordinal) -> Ordinal:
    """The eta with omega**eta = x, for principal x."""
    if not is_principal(x):
        raise NotPrincipal(repr(x))
    if not x.terms:
        return ZERO  # x = 1 = omega**0
    t = x.terms[0]
    if t.level:
        return x
    return t.arg


def exp_e(x: Ordinal) -> Ordinal:
    """The shifted exponential -1 + omega**x."""
    if x.is_zero():
        return ZERO
    return omega_pow(x)


def veblen(a: Ordinal, b: Ordinal) -> Ordinal:
    """The value phi_a(b), with fixpoint absorption."""
    if a.is_zero() and b.is_zero():
        return ONE  # phi_0(0) = omega**0
    if len(b.terms) == 1 and b.fin == 0 and cmp(b.terms[0].level, a) > 0:
        return b
    return Ordinal((VeblenTerm(a, b),))


def veblen_iter(a: Ordinal, n: int, b: Ordinal) -> Ordinal:
    """n-fold application of phi_a to b."""
    val = b
    for _ in range(n):
        val = veblen(a, val)
    return val


def hyper_exp(a: Ordinal, b: Ordinal) -> Ordinal:
    """The transfinite iterate e**a applied to b.

    a is decomposed into principal summands and each factor e**(omega**eta)
    is applied via the closed form: the eta = 0 factor is exp_e, and for
    eta > 0 the factor maps 0 to 0 and 1+b' to phi_eta(b').
    """
    val = b
    for _ in range(a.fin):
        val = exp_e(val)
    for t in reversed(a.terms):
        if val.is_zero():
            return ZERO
        eta = log_principal(_single(t))
        val = veblen(eta, left_sub(ONE, val))
    return val


def classify(x: Ordinal) -> OrdinalKind:
    if x.fin > 0:
        return OrdinalKind.SUCCESSOR
    return OrdinalKind.LIMIT if x.terms else OrdinalKind.ZERO


def pred(x: Ordinal) -> Ordinal:
    if x.fin == 0:
        raise NotSuccessor(repr(x))
    return Ordinal(x.terms, x.fin - 1)


# --- textual grammar -------------------------------------------------------
#
#   ord  := term ("+" term)*
#   term := nat | "w" | "w^" term | "phi(" ord "," ord ")"
#
# "w" is phi(0,1) and "w^x" is omega_pow(x); printing uses decimal naturals
# and phi(...) terms only.


OrdinalParseError = ParseError  # one error class for every parser


def _sum(s: Scanner) -> Ordinal:
    val = _term(s)
    while s.next() == "+":
        s.pos += 1
        val = add(val, _term(s))
    return val


def _term(s: Scanner) -> Ordinal:
    c = s.next()
    if c.isdecimal():
        return nat(s.number("digit"))
    if c == "w":
        s.pos += 1
        if s.next() == "^":
            s.pos += 1
            return omega_pow(_term(s))
        return OMEGA
    if c == "p":
        if not s.text.startswith("phi(", s.pos):
            s.fail("expected 'phi('")
        s.pos += 4
        a = _sum(s)
        s.expect(",")
        b = _sum(s)
        s.expect(")")
        return veblen(a, b)
    s.fail("expected ordinal term")


def parse_ordinal(text: str) -> Ordinal:
    # recursive descent: printing, comparing and stepping a deep ordinal
    # recurse once per level anyway
    s = Scanner(text)
    return s.finish(_sum(s))


def print_ordinal(x: Ordinal) -> str:
    if x.is_zero():
        return "0"
    parts = [
        "phi(%s,%s)" % (print_ordinal(t.level), print_ordinal(t.arg))
        for t in x.terms
    ]
    if x.fin:
        parts.append(str(x.fin))
    return "+".join(parts)

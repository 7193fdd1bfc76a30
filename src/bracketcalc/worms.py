"""Worms with ordinal entries, order types, and bracket translations.

A worm is a plain tuple of ordinals: <x1>...<xn>T is (x1, ..., xn) and the
empty tuple is top.  Most things here are thin recursions over the ordinal
engine.  The order type of a bracket worm and the canonical worm of an
ordinal are cached on the node itself, because the same small worms come up
constantly in tests and in the certificate prover; a cached value lives as
long as its node.

RC formulas, the ordinal-indexed side of tau and iota, share the bracket
formulas' Top, Var and Conj nodes; RDia, a diamond indexed by an ordinal, is
the only node they add.
"""

from __future__ import annotations

from ._intern import lookup, store
from .ordinals import (
    ONE,
    ZERO,
    Ordinal,
    add,
    cmp,
    hyper_exp,
    left_sub,
    omega_pow,
)
from .syntax import BracketFormula, BracketWorm, Conj, Diamond, Top, Var

Worm = tuple  # tuple[Ordinal, ...]


class RDia(BracketFormula):
    __slots__ = ("index", "body")

    def __new__(cls, index: Ordinal, body: BracketFormula):
        key = (cls, index, body)
        node = lookup(key)
        if node is None:
            node = store(key, object.__new__(cls))
            node.index = index
            node.body = body
        return node

    def __repr__(self):
        return "RDia(%r, %r)" % (self.index, self.body)


def signature(f: BracketFormula) -> frozenset:
    """The set of modality indices occurring in the RC formula f."""
    if isinstance(f, (Top, Var)):
        return frozenset()
    if isinstance(f, Conj):
        return signature(f.left) | signature(f.right)
    if isinstance(f, RDia):
        return frozenset((f.index,)) | signature(f.body)
    raise TypeError(f)


def concat(a: Worm, b: Worm) -> Worm:
    return a + b


def splice(b: Worm, lam: Ordinal, a: Worm) -> Worm:
    return b + (lam,) + a


def uparrow(lam: Ordinal, a: Worm) -> Worm:
    """Add lam on the left of every entry."""
    if lam.is_zero():
        return a
    return tuple(add(lam, e) for e in a)


def _segment_order(seg: Worm) -> Ordinal:
    # order type of a zero-free worm (possibly empty)
    if not seg:
        return ZERO
    mu = seg[0]
    for e in seg[1:]:
        if cmp(e, mu) < 0:
            mu = e
    return hyper_exp(mu, order_type(tuple(left_sub(mu, e) for e in seg)))


def order_type(w: Worm) -> Ordinal:
    """The order type o(w) of a worm below Gamma_0.

    Zero entries split the worm into zero-free segments; each zero stands
    for one successor step and segments attach by ordinal addition, the
    rightmost segment being the most significant.
    """
    if not w:
        return ZERO
    segs = []
    cur = []
    for e in w:
        if e.is_zero():
            segs.append(tuple(cur))
            cur = []
        else:
            cur.append(e)
    segs.append(tuple(cur))
    val = _segment_order(segs[-1])
    for seg in segs[-2::-1]:
        val = add(val, add(ONE, _segment_order(seg)))
    return val


def star(a: BracketWorm) -> Worm:
    """Replace every bracket entry by its order type."""
    return tuple(o_star(e) for e in a.entries)


def o_star(a: BracketWorm) -> Ordinal:
    """The order type of a bracket worm, cached on the worm."""
    if a._o is None:
        a._o = order_type(star(a))
    return a._o


def first_below(entries: tuple, alpha: Ordinal) -> int:
    """The index of the first bracket entry whose order type is below alpha,
    else the number of entries."""
    for i, e in enumerate(entries):
        if cmp(o_star(e), alpha) < 0:
            return i
    return len(entries)


def tau(f: BracketFormula) -> BracketFormula:
    """Translate a bracket formula into an RC formula."""
    if isinstance(f, (Top, Var)):
        return f
    if isinstance(f, Conj):
        return Conj(tau(f.left), tau(f.right))
    if isinstance(f, Diamond):
        return RDia(o_star(f.label), tau(f.body))
    raise TypeError(f)


def _block(level: Ordinal, arg: Ordinal) -> Worm:
    # worm for one infinite principal value phi_level(arg)
    if level.is_zero():
        return uparrow(ONE, worm_of_ordinal(arg))
    return uparrow(omega_pow(level), worm_of_ordinal(add(ONE, arg)))


def worm_of_ordinal(x: Ordinal) -> Worm:
    """The canonical worm whose order type is x.

    Summands of x become zero-free blocks joined by zero entries, one zero
    per finite unit, built right to left so the sum rule for order types
    reproduces x exactly.
    """
    out: Worm = ()
    for t in x.terms:
        # most significant summand first; each smaller block is prepended,
        # with a zero glue in front of what is already built
        blk = _block(t.level, t.arg)
        out = blk + ((ZERO,) + out if out else ())
    return (ZERO,) * x.fin + out


def worm_iota(w: Worm) -> BracketWorm:
    """Translate an ordinal worm back to brackets, entry by entry."""
    return BracketWorm(tuple(iota_worm(e) for e in w))


def iota_worm(x: Ordinal) -> BracketWorm:
    """The canonical bracket worm denoting the ordinal x, cached on x."""
    if x._iota is None:
        x._iota = worm_iota(worm_of_ordinal(x))
    return x._iota


def iota(f: BracketFormula) -> BracketFormula:
    """Translate an RC formula into brackets."""
    if isinstance(f, (Top, Var)):
        return f
    if isinstance(f, Conj):
        return Conj(iota(f.left), iota(f.right))
    if isinstance(f, RDia):
        return Diamond(iota_worm(f.index), iota(f.body))
    raise TypeError(f)


def to_nf(a: BracketWorm) -> BracketWorm:
    """The canonical normal form with the same order type."""
    return iota_worm(o_star(a))


def h(n: int) -> Ordinal:
    """The nesting bound function: h(0) = 0, h(n+1) = e**h(n) applied to 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = ZERO
    for _ in range(n):
        out = hyper_exp(out, ONE)
    return out


def uparrow_bracket(alpha: Ordinal, a: BracketWorm) -> BracketWorm:
    """Shift every top-level entry of a up by alpha, renormalizing entries."""
    return worm_iota(uparrow(alpha, star(a)))


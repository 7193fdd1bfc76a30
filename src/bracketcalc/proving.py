"""Certificate-producing provers for the bracket calculus.

Everything here builds Certificate trees that check_derivation accepts; no
result is trusted without being checkable.  The pieces:

  * small node builders wrapping each rule, with shape assertions, and one
    loop, _monos, that builds every chain of monotonicity steps;
  * worm combinators: suffix projection, strict tail projection, the
    conjunction merge that pushes a smaller-headed worm inside a prefix;
    the merge reads its conjuncts off the conclusions it combines, through
    one projection rule (_halves) and one pairing rule (_pair);
  * normal-form certificates STD / DTS between a worm and its canonical
    form, recursing through the minimum entry and lifting certificates of
    down-shifted worms back up;
  * a strict-order prover that walks down the fundamental sequence of the
    larger worm (each step certified the way the descent property itself
    is proved) until it meets the smaller one;
  * the public prove_le / prove_lt / derived_mono / conj_to_worm, and
    decide_closed_geq on top of conj_to_worm.

Certificates are hash-consed, so equal subproofs are one node whichever
way they were built.  STD, DTS, EQw, GTw and conj_to_worm memoise their
results for the length of the outermost such call only: the calls nested
in it share one memo, and nothing keeps a certificate alive once that call
returns.
"""

from __future__ import annotations

import functools
import threading

from .calculus import (
    Certificate,
    HasVariables,
    NotProvable,
    Sequent,
    SideMismatch,
    decide_le,
    formula_worm,
    worm_formula as wf,
)
from .fundseq import fs_bracket
from .ordinals import ONE, Ordinal, add, cmp, left_sub
from .syntax import (
    TOP,
    TOP_WORM,
    BracketFormula,
    BracketWorm,
    Conj,
    Diamond,
    Top,
    Var,
    print_worm,
)
from .worms import first_below, iota_worm, o_star, star, to_nf, uparrow_bracket, worm_iota

_FS_SEARCH_CAP = 200000


class _Scope(threading.local):
    # the memo of the outermost memoised call running in this thread, or None
    memo = None


_SCOPE = _Scope()


def _memoized(fn):
    """Memoise fn on its arguments in the memo of the running call; a call
    made outside any opens a memo and drops it on return."""

    @functools.wraps(fn)
    def call(*args):
        memo = _SCOPE.memo
        if memo is None:
            _SCOPE.memo = {}
            try:
                return call(*args)
            finally:
                _SCOPE.memo = None
        key = (fn, *args)
        got = memo.get(key)
        if got is None:
            got = memo[key] = fn(*args)
        return got

    return call


# --- node builders -----------------------------------------------------------


def ax_id(f: BracketFormula) -> Certificate:
    return Certificate(Sequent(f, f), "AxId")


def ax_top(f: BracketFormula) -> Certificate:
    return Certificate(Sequent(f, TOP), "AxTop")


def ax_conj_l(l: BracketFormula, r: BracketFormula) -> Certificate:
    return Certificate(Sequent(Conj(l, r), l), "AxConjL")


def ax_conj_r(l: BracketFormula, r: BracketFormula) -> Certificate:
    return Certificate(Sequent(Conj(l, r), r), "AxConjR")


def conj_intro(c1: Certificate, c2: Certificate) -> Certificate:
    assert c1.conclusion.lhs == c2.conclusion.lhs
    return Certificate(
        Sequent(c1.conclusion.lhs, Conj(c1.conclusion.rhs, c2.conclusion.rhs)),
        "RConjIntro",
        (c1, c2),
    )


def cut(c1: Certificate, c2: Certificate) -> Certificate:
    assert c1.conclusion.rhs == c2.conclusion.lhs, "cut mismatch"
    return Certificate(
        Sequent(c1.conclusion.lhs, c2.conclusion.rhs), "RCut", (c1, c2)
    )


def mono(a: BracketWorm, b: BracketWorm, premise: Certificate, side: Certificate) -> Certificate:
    return Certificate(
        Sequent(
            Diamond(a, premise.conclusion.lhs),
            Diamond(b, premise.conclusion.rhs),
        ),
        "RMonoOuter",
        (premise,),
        side,
    )


def mono_absorb(a: BracketWorm, b: BracketWorm, premise: Certificate, side: Certificate) -> Certificate:
    return Certificate(
        Sequent(
            Diamond(a, Diamond(b, premise.conclusion.lhs)),
            Diamond(b, premise.conclusion.rhs),
        ),
        "RMonoAbsorb",
        (premise,),
        side,
    )


def rneg5(
    a: BracketWorm,
    phi: BracketFormula,
    b: BracketWorm,
    psi: BracketFormula,
    side: Certificate,
) -> Certificate:
    return Certificate(
        Sequent(
            Conj(Diamond(a, phi), Diamond(b, psi)),
            Diamond(a, Conj(phi, Diamond(b, psi))),
        ),
        "RNeg5",
        (),
        side,
    )


# --- worm helpers --------------------------------------------------------------


def _cons(x: BracketWorm, w: BracketWorm) -> BracketWorm:
    return BracketWorm((x,) + w.entries)


def _slice(w: BracketWorm, i: int, j=None) -> BracketWorm:
    return BracketWorm(w.entries[i:j])


def _concat_w(a: BracketWorm, b: BracketWorm) -> BracketWorm:
    return BracketWorm(a.entries + b.entries)


def side_refl(x: BracketWorm) -> Certificate:
    return ax_id(wf(x))


def side_top(a: BracketWorm) -> Certificate:
    return ax_top(wf(a))


def gt_top(a: BracketWorm) -> Certificate:
    """a |- ()T for any nonempty a."""
    assert a.entries
    tail = _slice(a, 1)
    return mono(a.entries[0], TOP_WORM, ax_top(wf(tail)), side_top(a.entries[0]))


def absorb_tt(f: BracketFormula) -> Certificate:
    """()()X |- ()X."""
    return mono_absorb(TOP_WORM, TOP_WORM, ax_id(f), side_refl(TOP_WORM))


def _monos(c: Certificate, triples) -> Certificate:
    """c wrapped in one mono(a, b, c, side) per (a, b, side), innermost last."""
    for a, b, side in reversed(triples):
        c = mono(a, b, c, side)
    return c


def drop_suffix(w: BracketWorm, k: int) -> Certificate:
    """Plain w |- w[:k]; a suffix may always be forgotten."""
    return _monos(ax_top(wf(_slice(w, k))), [(e, e, side_refl(e)) for e in w.entries[:k]])


def tail_strict(w: BracketWorm, i: int) -> Certificate:
    """w |- ()w[i:] for i >= 1: the prefix strictly dominates its tail."""
    assert 1 <= i <= len(w.entries)
    suffix_f = wf(_slice(w, i))
    c = mono(w.entries[i - 1], TOP_WORM, ax_id(suffix_f), side_top(w.entries[i - 1]))
    for j in range(i - 2, -1, -1):
        c = mono(w.entries[j], TOP_WORM, c, side_top(w.entries[j]))
        c = cut(c, absorb_tt(suffix_f))
    return c


def suffix_plain(w: BracketWorm, i: int) -> Certificate:
    """Plain w |- w[i:] for i >= 1 when every dropped entry dominates the
    suffix head."""
    assert 1 <= i <= len(w.entries)
    if i == len(w.entries):
        return ax_top(wf(w))
    r = w.entries[i]
    rest_f = wf(_slice(w, i + 1))
    c = mono_absorb(w.entries[i - 1], r, ax_id(rest_f), _order_side(r, w.entries[i - 1]))
    for j in range(i - 2, -1, -1):
        c = mono(w.entries[j], r, c, _order_side(r, w.entries[j]))
        c = cut(c, mono_absorb(r, r, ax_id(rest_f), side_refl(r)))
    return c


def _order_side(b: BracketWorm, a: BracketWorm) -> Certificate:
    """Certificate witnessing b at-or-below a.  Distinct worms of equal
    order type never reach it: lifted labels are canonical, and a suffix
    head lies strictly below every entry it drops."""
    return side_refl(a) if b == a else GTw(a, b)


# --- normal form certificates ---------------------------------------------------


def _lowered(mu: Ordinal, w: BracketWorm) -> BracketWorm:
    """w with every entry's order type lowered by mu, in canonical form."""
    return BracketWorm(tuple(iota_worm(left_sub(mu, o_star(e))) for e in w.entries))


def _bridge_std(w: BracketWorm, w0: BracketWorm) -> Certificate:
    """Plain w |- w0 for w0 = worm_iota(star(w)), entry by entry."""
    pairs = zip(w.entries, w0.entries)
    return _monos(ax_id(TOP), [(e, e0, side_refl(e) if e == e0 else STD(e)) for e, e0 in pairs])


def _bridge_dts(w: BracketWorm, w0: BracketWorm) -> Certificate:
    """Plain w0 |- w for w0 = worm_iota(star(w)), entry by entry."""
    pairs = zip(w.entries, w0.entries)
    return _monos(ax_id(TOP), [(e0, e, side_refl(e) if e == e0 else DTS(e)) for e, e0 in pairs])


def _shifted(w: BracketWorm, nf_cert):
    """(w0, lifted) for a worm w with no zero entry: w0 is
    worm_iota(star(w)), and lifted is nf_cert (STD or DTS) of w lowered by
    its least entry type, lifted back up by that type."""
    mu = min(map(o_star, w.entries))
    return worm_iota(star(w)), lift_cert(mu, nf_cert(_lowered(mu, w)))


@_memoized
def STD(w: BracketWorm) -> Certificate:
    """Plain certificate w |- to_nf(w)."""
    n = to_nf(w)
    if w == n:
        return ax_id(wf(w))
    i = first_below(w.entries, ONE)
    if i < len(w.entries):
        out = _std_grounded(w, n, i)
    else:
        w0, out = _shifted(w, STD)
        assert out.conclusion.lhs == wf(w0)
        if w != w0:
            out = cut(_bridge_std(w, w0), out)
    assert formula_worm(out.conclusion.rhs) == n
    return out


def _std_grounded(w: BracketWorm, n: BracketWorm, i: int) -> Certificate:
    u = _slice(w, 0, i)
    v = _slice(w, i + 1)
    if i == 0:
        inner = STD(v)
        return mono(TOP_WORM, TOP_WORM, inner, side_refl(TOP_WORM))
    nu = to_nf(u)
    cu = cut(drop_suffix(w, i), STD(u)) if u != nu else drop_suffix(w, i)
    if not v.entries:
        # a trailing lone zero is absorbed by the infinite prefix
        assert n == nu
        return cu
    nv = to_nf(v)
    cv = tail_strict(w, i + 1)
    if v != nv:
        cv = cut(cv, mono(TOP_WORM, TOP_WORM, STD(v), side_refl(TOP_WORM)))
    c1 = derive_concat(cu, cv)
    w1 = _concat_w(nu, _cons(TOP_WORM, nv))
    if w1 == n:
        return c1
    # absorption: the normal form keeps only a suffix of the tail part
    if n == nu:
        return cut(c1, drop_suffix(w1, len(nu.entries)))
    k = len(nu.entries)
    assert n.entries[:k] == nu.entries and n.entries[k] == TOP_WORM
    wp = _slice(n, k + 1)
    assert nv.entries[len(nv.entries) - len(wp.entries):] == wp.entries
    f1 = drop_suffix(w1, k)
    f2 = tail_strict(w1, len(w1.entries) - len(wp.entries))
    fuse = derive_concat(f1, f2)
    return cut(c1, fuse)


@_memoized
def DTS(w: BracketWorm) -> Certificate:
    """Plain certificate to_nf(w) |- w."""
    n = to_nf(w)
    if w == n:
        return ax_id(wf(w))
    i = first_below(w.entries, ONE)
    if i < len(w.entries):
        out = _dts_grounded(w, n, i)
    else:
        w0, out = _shifted(w, DTS)
        assert formula_worm(out.conclusion.rhs) == w0
        if w != w0:
            out = cut(out, _bridge_dts(w, w0))
    assert out.conclusion.lhs == wf(n) and formula_worm(out.conclusion.rhs) == w
    return out


def _dts_grounded(w: BracketWorm, n: BracketWorm, i: int) -> Certificate:
    u = _slice(w, 0, i)
    v = _slice(w, i + 1)
    if i == 0:
        return mono(TOP_WORM, TOP_WORM, DTS(v), side_refl(TOP_WORM))
    nu = to_nf(u)
    k = len(nu.entries)
    assert n.entries[:k] == nu.entries
    cu = drop_suffix(n, k)
    if u != nu:
        cu = cut(cu, DTS(u))
    if not v.entries:
        cvz = gt_top(n)
    else:
        cvz = GTw(n, v)
    return derive_concat(cu, cvz)


# --- certificate lifting ---------------------------------------------------------


def lift_cert(mu: Ordinal, cert: Certificate) -> Certificate:
    """Shift every diamond label of a certificate up by mu.

    Labels map to the canonical worm of mu + their order type; the ordering
    side derivations are rebuilt at the lifted level rather than lifted.
    """
    if mu.is_zero():
        return cert
    formula_map: dict = {}

    def lw(x: BracketWorm) -> BracketWorm:
        return iota_worm(add(mu, o_star(x)))

    def lf(f: BracketFormula) -> BracketFormula:
        got = formula_map.get(id(f))
        if got is not None:
            return got
        if isinstance(f, (Top, Var)):
            out = f
        elif isinstance(f, Conj):
            out = Conj(lf(f.left), lf(f.right))
        else:
            out = Diamond(lw(f.label), lf(f.body))
        formula_map[id(f)] = out
        return out

    def go(c: Certificate) -> Certificate:
        concl = c.conclusion
        if c.rule == "RNeg5":
            side = GTw(lw(concl.lhs.left.label), lw(concl.lhs.right.label))
        elif c.side is not None:
            # both monotonicity rules order the right side's label below the left's
            side = _order_side(lw(concl.rhs.label), lw(concl.lhs.label))
        else:
            side = None
        return Certificate(
            Sequent(lf(concl.lhs), lf(concl.rhs)),
            c.rule,
            tuple(go(p) for p in c.premises),
            side,
        )

    return go(cert)


# --- order provers ----------------------------------------------------------------


@_memoized
def EQw(a: BracketWorm, b: BracketWorm) -> Certificate:
    """Plain a |- b for worms of equal order type."""
    if a == b:
        return ax_id(wf(a))
    assert cmp(o_star(a), o_star(b)) == 0
    return cut(STD(a), DTS(b))


@_memoized
def GTw(a: BracketWorm, b: BracketWorm) -> Certificate:
    """a |- ()b for worms with the order type of b strictly below a's."""
    assert cmp(o_star(b), o_star(a)) < 0
    if not b.entries:
        return gt_top(a)
    ob = o_star(b)
    c = None
    cur = a
    while True:
        for n in range(_FS_SEARCH_CAP):
            nxt = fs_bracket(cur, n)
            if cmp(o_star(nxt), ob) >= 0:
                break
        else:
            raise RuntimeError("fundamental sequence search exhausted")
        step = agtan(cur, n)
        assert formula_worm(step.conclusion.rhs.body) == nxt
        if c is None:
            c = step
        else:
            c = cut(c, mono(TOP_WORM, TOP_WORM, step, side_refl(TOP_WORM)))
            c = cut(c, absorb_tt(step.conclusion.rhs.body))
        cur = nxt
        if cmp(o_star(cur), ob) == 0:
            break
    if cur != b:
        c = cut(c, mono(TOP_WORM, TOP_WORM, EQw(cur, b), side_refl(TOP_WORM)))
    return c


def derive_concat(cu: Certificate, cvz: Certificate, strict_side=GTw) -> Certificate:
    """From X |- u and X |- vz conclude X |- u ++ vz, pushing vz inside u
    one diamond at a time.

    Requires the head v of vz to lie strictly below every entry of u;
    strict_side(entry, v) must certify that, as GTw does by default.
    """
    vzf = cvz.conclusion.rhs
    assert isinstance(vzf, Diamond)
    v = vzf.label
    diamonds = []
    f = cu.conclusion.rhs
    while isinstance(f, Diamond):
        diamonds.append(f)
        f = f.body
    assert f is TOP
    c = ax_conj_r(TOP, vzf)
    for d in reversed(diamonds):
        e = d.label
        step1 = rneg5(e, d.body, v, vzf.body, strict_side(e, v))
        c = cut(step1, mono(e, e, c, side_refl(e)))
    return cut(conj_intro(cu, cvz), c)


def agtan(a: BracketWorm, n: int) -> Certificate:
    """The descent certificate a |- ()a{n}, built the way the descent
    property is established: replace the head by its own step, then fold
    the worm onto itself n more times and weaken the leading entry."""
    e = a.entries
    assert e
    if not e[0].entries:
        # a = () rest steps to rest, and a is literally () rest
        return ax_id(wf(a))
    a1 = e[0]
    l = first_below(e, o_star(a1))
    a1n = fs_bracket(a1, n)
    r0 = agtan(a1, n)
    proj = drop_suffix(a, l)
    rest_f = proj.conclusion.lhs.body

    def strict_side(u: BracketWorm, v: BracketWorm) -> Certificate:
        assert v == a1n
        return r0 if u == a1 else GTw(u, a1n)

    q = mono(a1, a1n, ax_id(rest_f), r0)
    for _ in range(n):
        c1 = derive_concat(proj, q, strict_side)
        q = cut(c1, mono(a1, a1n, ax_id(c1.conclusion.rhs.body), r0))
    c_a1 = mono(a1, a1, ax_top(rest_f), side_refl(a1))
    c2 = derive_concat(c_a1, q, strict_side)
    return cut(c2, mono(a1, TOP_WORM, ax_id(q.conclusion.rhs), side_top(a1)))


# --- public provers ------------------------------------------------------------


def prove_lt(a: BracketWorm, b: BracketWorm) -> Certificate:
    """A checkable derivation of a |- ()b; requires b strictly below a."""
    if cmp(o_star(b), o_star(a)) >= 0:
        raise NotProvable("%s is not strictly below %s" % (print_worm(b), print_worm(a)))
    return GTw(a, b)


def prove_le(a: BracketWorm, b: BracketWorm) -> Certificate:
    """A checkable derivation of a |- b or a |- ()b; requires b at-or-below a."""
    c = cmp(o_star(b), o_star(a))
    if c > 0:
        raise NotProvable("%s is not at-or-below %s" % (print_worm(b), print_worm(a)))
    if not b.entries and c < 0:
        return ax_top(wf(a))
    if c == 0:
        return EQw(a, b)
    return GTw(a, b)


def derived_mono(sides) -> Certificate:
    """Entrywise monotonicity: from sides a_i at-or-below b_i conclude
    (b_0)...(b_k) |- (a_0)...(a_k).

    Each side must conclude b_i |- a_i or b_i |- ()a_i.  A right side that
    begins with a top entry is read as the strict form, except that a
    reflexive side b_i |- b_i always means a_i = b_i.
    """
    triples = []
    for s in sides:
        b = formula_worm(s.conclusion.lhs)
        if b is None:
            raise SideMismatch("side left side is not a worm")
        r = formula_worm(s.conclusion.rhs)
        if r is None:
            raise SideMismatch("side right side is not a worm")
        if r != b and r.entries and r.entries[0] == TOP_WORM:
            a = _slice(r, 1)
        else:
            a = r
        triples.append((b, a, s))
    return _monos(ax_id(TOP), triples)


# --- conjunction normalization ----------------------------------------------------


def _conj_comm(x: BracketFormula, y: BracketFormula) -> Certificate:
    return conj_intro(ax_conj_r(x, y), ax_conj_l(x, y))


def _halves(c: Certificate):
    """X |- l and X |- r from c: X |- l & r."""
    rhs = c.conclusion.rhs
    return cut(c, ax_conj_l(rhs.left, rhs.right)), cut(c, ax_conj_r(rhs.left, rhs.right))


def _pair(fl: BracketFormula, fr: BracketFormula, cl: Certificate, cr: Certificate) -> Certificate:
    """fl & fr |- x & y from cl: fl |- x and cr: fr |- y."""
    return conj_intro(cut(ax_conj_l(fl, fr), cl), cut(ax_conj_r(fl, fr), cr))


def merge_worms(a: BracketWorm, b: BracketWorm):
    """A worm c with certificates Conj(a, b) |- c and c |- Conj(a, b)."""
    fa, fb = wf(a), wf(b)
    if not a.entries:
        return b, ax_conj_r(fa, fb), conj_intro(ax_top(fb), ax_id(fb))
    if not b.entries:
        return a, ax_conj_l(fa, fb), conj_intro(ax_id(fa), ax_top(fa))
    oa1, ob1 = o_star(a.entries[0]), o_star(b.entries[0])
    hc = cmp(oa1, ob1)
    if hc < 0:
        c, fwd2, back2 = merge_worms(b, a)
        fwd = cut(_conj_comm(fa, fb), fwd2)
        back = cut(back2, _conj_comm(fb, fa))
        return c, fwd, back
    if hc > 0:
        return _merge_strict(a, b)
    if oa1.is_zero():
        return _merge_grounded(a, b)
    return _merge_level(a, b, oa1)


def _merge_strict(a: BracketWorm, b: BracketWorm):
    # head of a strictly dominates head of b: push b inside a one level
    a1, b1 = a.entries[0], b.entries[0]
    m, f2, b2 = merge_worms(_slice(a, 1), b)
    e_l, e_r = _halves(b2)
    a_rest, b_rest = e_l.conclusion.rhs, e_r.conclusion.rhs.body
    s = GTw(a1, b1)
    fwd = cut(rneg5(a1, a_rest, b1, b_rest, s), mono(a1, a1, f2, side_refl(a1)))
    back_a = mono(a1, a1, e_l, side_refl(a1))
    back_b = cut(mono(a1, a1, e_r, side_refl(a1)), mono_absorb(a1, b1, ax_id(b_rest), s))
    return _cons(a1, m), fwd, conj_intro(back_a, back_b)


def _merge_grounded(a: BracketWorm, b: BracketWorm):
    # both worms start with a zero entry: the order-type-larger side wins,
    # proving the other plainly, as big |- ()small[1:] when it is strictly larger
    fa, fb = wf(a), wf(b)
    c = cmp(o_star(a), o_star(b))
    if c < 0:
        return b, ax_conj_r(fa, fb), conj_intro(GTw(b, _slice(a, 1)), ax_id(fb))
    dom = EQw(a, b) if c == 0 else GTw(a, _slice(b, 1))
    return a, ax_conj_l(fa, fb), conj_intro(ax_id(fa), dom)


def _merge_level(a: BracketWorm, b: BracketWorm, alpha: Ordinal):
    # equal nonzero heads: merge the shifted prefixes, then the remainders
    fa, fb = wf(a), wf(b)
    ia, ib = first_below(a.entries, alpha), first_below(b.entries, alpha)
    p, r = _slice(a, 0, ia), _slice(a, ia)
    q, s = _slice(b, 0, ib), _slice(b, ib)
    p0, q0 = worm_iota(star(p)), worm_iota(star(q))
    m_hat, f_hat, b_hat = merge_worms(_lowered(alpha, p), _lowered(alpha, q))
    m = uparrow_bracket(alpha, m_hat)
    f_lift = lift_cert(alpha, f_hat)
    b_lift = lift_cert(alpha, b_hat)
    assert f_lift.conclusion.lhs == Conj(wf(p0), wf(q0))
    assert formula_worm(f_lift.conclusion.rhs) == m
    k, fk, bk = merge_worms(r, s)
    assert k.entries or not (r.entries or s.entries)
    c_worm = _concat_w(m, k)

    # forwards: each prefix, bridged to its canonical form, into m
    c_p = cut(ax_conj_l(fa, fb), drop_suffix(a, ia))
    if p != p0:
        c_p = cut(c_p, _bridge_std(p, p0))
    c_q = cut(ax_conj_r(fa, fb), drop_suffix(b, ib))
    if q != q0:
        c_q = cut(c_q, _bridge_std(q, q0))
    fwd = cut(conj_intro(c_p, c_q), f_lift)
    # backwards: project the merged worm onto each conjunct
    back_a, back_b = _halves(cut(drop_suffix(c_worm, len(m.entries)), b_lift))
    if p != p0:
        back_a = cut(back_a, _bridge_dts(p, p0))
    if q != q0:
        back_b = cut(back_b, _bridge_dts(q, q0))
    if k.entries:
        fwd = derive_concat(fwd, cut(_pair(fa, fb, suffix_plain(a, ia), suffix_plain(b, ib)), fk))
        back_r, back_s = _halves(cut(suffix_plain(c_worm, len(m.entries)), bk))
        if r.entries:
            back_a = derive_concat(back_a, back_r)
        if s.entries:
            back_b = derive_concat(back_b, back_s)
    return c_worm, fwd, conj_intro(back_a, back_b)


@_memoized
def conj_to_worm(phi: BracketFormula):
    """Normalize a variable-free formula to a single worm.

    Returns (worm, fwd, back) with checkable certificates phi |- worm and
    worm |- phi.
    """
    if isinstance(phi, Var):
        raise HasVariables("formula contains variables")
    if isinstance(phi, Top):
        return TOP_WORM, ax_id(TOP), ax_id(TOP)
    if isinstance(phi, Diamond):
        cw, f, b = conj_to_worm(phi.body)
        return (
            _cons(phi.label, cw),
            mono(phi.label, phi.label, f, side_refl(phi.label)),
            mono(phi.label, phi.label, b, side_refl(phi.label)),
        )
    if isinstance(phi, Conj):
        cx, fx, bx = conj_to_worm(phi.left)
        cy, fy, by = conj_to_worm(phi.right)
        cw, mf, mb = merge_worms(cx, cy)
        ml, mr = _halves(mb)
        return cw, cut(_pair(phi.left, phi.right, fx, fy), mf), conj_intro(cut(ml, bx), cut(mr, by))
    raise TypeError(phi)


def decide_closed_geq(phi: BracketFormula, psi: BracketFormula) -> bool:
    """Compare two variable-free formulas by their worm normalizations."""
    wa, _, _ = conj_to_worm(phi)
    wb, _, _ = conj_to_worm(psi)
    return decide_le(wa, wb)

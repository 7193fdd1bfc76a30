"""Order types, translations, normal forms, and their paper-level bounds."""

import random

import pytest

from bracketcalc import (
    OMEGA,
    ONE,
    ZERO,
    RDia,
    add,
    cmp,
    concat,
    h,
    hyper_exp,
    iota,
    iota_worm,
    nat,
    nesting_worm,
    o_star,
    omega_pow,
    order_type,
    parse_worm,
    signature,
    splice,
    star,
    tau,
    to_nf,
    uparrow,
    uparrow_bracket,
    veblen,
    worm_of_ordinal,
)
from bracketcalc.syntax import TOP, TOP_WORM, Conj, Diamond, Top, Var
from corpus import corpus, corpus_ordinals

EPS0 = veblen(ONE, ZERO)
W = parse_worm


def test_signature():
    assert signature(TOP) == frozenset()
    assert signature(RDia(OMEGA, RDia(ZERO, TOP))) == frozenset((ZERO, OMEGA))
    assert signature(Conj(RDia(ONE, Var(1)), RDia(ONE, Var(2)))) == frozenset((ONE,))


def test_concat_splice_uparrow():
    assert concat((), (ONE,)) == (ONE,)
    assert concat((ONE,), (ZERO,)) == (ONE, ZERO)
    assert splice((ONE,), ZERO, (nat(2),)) == (ONE, ZERO, nat(2))
    assert uparrow(ZERO, (OMEGA,)) == (OMEGA,)
    assert uparrow(ONE, (ZERO, ZERO)) == (ONE, ONE)
    assert uparrow(OMEGA, (ONE,)) == (add(OMEGA, ONE),)


def test_order_type_examples():
    assert order_type(()) == ZERO
    assert order_type((ZERO,)) == ONE
    assert order_type((ONE,)) == OMEGA
    assert order_type((OMEGA,)) == EPS0


def test_order_type_split_point_independence():
    # splitting at any zero entry gives the same value as the leftmost one
    rng = random.Random(21)
    worms = [star(w) for w in corpus(6)]
    for w in worms:
        zeros = [i for i, e in enumerate(w) if e.is_zero()]
        for i in zeros[1:]:
            alt = add(order_type(w[i + 1:]), add(ONE, order_type(w[:i])))
            assert alt == order_type(w), w


def test_star_o_star_examples():
    assert o_star(W("()")) == ONE
    assert o_star(W("(())")) == OMEGA
    assert o_star(W("((()))")) == EPS0
    assert star(W("(())()")) == (ONE, ZERO)


def test_tau_examples():
    assert tau(Top()) == TOP
    assert tau(Diamond(W("(())"), Var(1))) == RDia(OMEGA, Var(1))
    assert tau(Conj(Var(1), Diamond(TOP_WORM, Var(2)))) == Conj(
        Var(1), RDia(ZERO, Var(2))
    )


def test_rc_and_bracket_formulas_share_nodes():
    assert tau(TOP) is TOP
    assert tau(Var(3)) is Var(3)
    bc = Conj(Var(1), Diamond(TOP_WORM, Var(2)))
    rc = Conj(Var(1), RDia(ZERO, Var(2)))
    assert tau(bc) is rc
    assert iota(TOP) is TOP
    assert iota(Var(3)) is Var(3)
    assert iota(rc) is bc


def test_worm_of_ordinal_examples():
    assert worm_of_ordinal(ZERO) == ()
    assert worm_of_ordinal(nat(2)) == (ZERO, ZERO)
    assert worm_of_ordinal(EPS0) == (OMEGA,)


def test_iota_examples():
    assert iota_worm(ZERO) == TOP_WORM
    assert iota_worm(OMEGA) == W("(())")
    assert iota(RDia(ZERO, Var(1))) == Diamond(TOP_WORM, Var(1))


def test_to_nf_examples():
    assert to_nf(W("T")) == W("T")
    assert to_nf(W("()")) == W("()")
    assert to_nf(W("()()")) == W("()()")
    assert to_nf(W("(())()")) == W("(())")


def test_h_values():
    assert h(0) == ZERO
    assert h(1) == ONE
    assert h(2) == OMEGA
    assert h(3) == EPS0
    assert h(4) == veblen(EPS0, ZERO)


def test_h_rejects_a_negative_n_whatever_ran_before():
    for n in (0, 4):
        h(n)
        with pytest.raises(ValueError):
            h(-1)


def test_uparrow_bracket_examples():
    assert uparrow_bracket(ONE, W("()")) == W("(())")
    assert uparrow_bracket(ONE, W("T")) == W("T")
    # shifting by zero normalizes entrywise; on canonical worms it is identity
    for w in corpus(6):
        n = to_nf(w)
        assert uparrow_bracket(ZERO, n) == n
        assert o_star(uparrow_bracket(ZERO, w)) == o_star(w)


# --- round trips -----------------------------------------------------------------


def test_round_trip_nf():
    for a in corpus(7):
        n = to_nf(a)
        assert o_star(n) == o_star(a)
        assert to_nf(n) == n


def test_round_trip_worm_of_ordinal():
    for xi in corpus_ordinals(7):
        assert order_type(worm_of_ordinal(xi)) == xi


def _rc_formulas(ordinals, rng, count):
    def rand(depth):
        k = rng.randrange(4 if depth else 2)
        if k == 0:
            return TOP
        if k == 1:
            return Var(rng.randrange(1, 6))
        if k == 2:
            return RDia(rng.choice(ordinals), rand(depth - 1))
        return Conj(rand(depth - 1), rand(depth - 1))

    return [rand(3) for _ in range(count)]


def test_round_trip_iota_tau():
    rng = random.Random(31)
    ordinals = list(corpus_ordinals(6))
    for f in _rc_formulas(ordinals, rng, 800):
        assert tau(iota(f)) == f


# --- nesting and entry bounds ------------------------------------------------------


def test_nesting_bounds_small():
    for a in corpus(6):
        n = nesting_worm(a)
        v = o_star(a)
        assert cmp(h(n), v) <= 0
        assert cmp(v, h(n + 1)) < 0


def test_nesting_monotone_in_order():
    ws = corpus(6)
    rng = random.Random(41)
    for _ in range(6000):
        a, b = rng.choice(ws), rng.choice(ws)
        if cmp(o_star(a), o_star(b)) >= 0:
            assert nesting_worm(a) >= nesting_worm(b)


def test_min_max_entry_bounds():
    rng = random.Random(51)
    for a in corpus(6):
        w = star(a)
        if not w:
            continue
        alpha = w[0]
        for e in w[1:]:
            if cmp(e, alpha) > 0:
                alpha = e
        v = order_type(w)
        assert cmp(order_type((alpha,)), v) <= 0
        assert cmp(v, order_type((add(alpha, ONE),))) < 0
        # sampled mu at or below the maximum entry
        for mu in rng.sample(list(w), min(len(w), 2)):
            assert cmp(order_type((mu,)), v) <= 0


def test_worm_block_shift_commutation():
    # the canonical worm of a hyperexponential image is the shifted canonical
    # worm; the certificate lifter depends on this
    vals = list(corpus_ordinals(6))
    mus = [ONE, nat(2), OMEGA, add(OMEGA, ONE), omega_pow(nat(2))]
    for xi in vals:
        if xi.is_zero():
            continue
        for mu in mus:
            assert worm_of_ordinal(hyper_exp(mu, xi)) == uparrow(
                mu, worm_of_ordinal(xi)
            ), (mu, xi)

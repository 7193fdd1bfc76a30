"""Acceptance suite: one criterion per test, one printed verdict line each.

Each test computes its criterion at the stated tolerance, prints
``ACCEPTANCE <n> <label>: PASS|FAIL`` and then asserts.  Criterion 8 pins
F(2) = 6 and G(2) >= 10**6.  The ordinal descent from gamma(2) = phi(1,0)
terminates after exactly six steps under the defined fundamental sequences:
phi(1,0)[1] = phi_0(phi_0(0)) = phi(0,1) since xhat(1, 1) = 2, then
phi(0,1)[2] = 1 * (2 + 2) = 4, and 4, 3, 2, 1, 0 (the full trace is pinned
in test_fundseq.test_F_witness_two).  The bracket descent from the primed
a(2) does not reach top within a million steps, which is the independence
phenomenon.
"""

import random
import time

from bracketcalc import (
    OMEGA,
    ONE,
    ZERO,
    BudgetExhausted,
    Found,
    F_witness,
    G_witness,
    check_derivation,
    cmp,
    conj_to_worm,
    decide_le,
    decide_lt,
    derived_mono,
    descend,
    fs_bracket,
    fs_veblen,
    h,
    iota,
    nesting_formula,
    nesting_worm,
    o_star,
    omega_pow,
    order_type,
    parse_worm,
    print_ordinal,
    print_worm,
    prove_le,
    prove_lt,
    signature,
    step_iter,
    tau,
    to_nf,
    veblen,
    worm_of_ordinal,
)
from bracketcalc.calculus import worm_formula
from bracketcalc.syntax import TOP, Conj, Var
from bracketcalc.worms import RDia
from corpus import corpus, corpus_ordinals
from test_calculus import _forward_search

W = parse_worm


def verdict(num, label, ok, note=""):
    state = "PASS" if ok else "FAIL"
    extra = " (%s)" % note if note else ""
    print("\nACCEPTANCE %d %s: %s%s" % (num, label, state, extra))
    return ok


def test_criterion_1_exact_values():
    t0 = time.time()
    got = [o_star(W("()")), o_star(W("(())")), o_star(W("((()))"))]
    want = [ONE, OMEGA, veblen(ONE, ZERO)]
    elapsed = time.time() - t0
    ok = got == want and elapsed < 1.0
    assert verdict(1, "exact order types", ok, "%.3fs" % elapsed)


def test_criterion_2_nesting_bounds():
    t0 = time.time()
    ok = True
    for a in corpus(8):
        n = nesting_worm(a)
        v = o_star(a)
        if not (cmp(h(n), v) <= 0 and cmp(v, h(n + 1)) < 0):
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert verdict(2, "nesting bounds (exhaustive <= 8 pairs)", ok, "%.1fs" % elapsed)


def test_criterion_3_canonicity():
    t0 = time.time()
    by_value = {}
    for a in corpus(8):
        by_value.setdefault(o_star(a), []).append(a)
    ok = True
    forms = {}
    for val, worms in by_value.items():
        nfs = {to_nf(a) for a in worms}
        if len(nfs) != 1:
            ok = False
            break
        forms[val] = next(iter(nfs))
        if order_type(worm_of_ordinal(val)) != val:
            ok = False
            break
    # distinct values never share a normal form
    ok = ok and len(set(forms.values())) == len(forms)
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    assert verdict(3, "canonicity of normal forms", ok, "%.1fs" % elapsed)


def test_criterion_4_translation_round_trip():
    rng = random.Random(1009)
    ordinals = list(corpus_ordinals(7))

    def rand(depth):
        k = rng.randrange(4 if depth else 2)
        if k == 0:
            return TOP
        if k == 1:
            return Var(rng.randrange(1, 8))
        if k == 2:
            return RDia(rng.choice(ordinals), rand(depth - 1))
        return Conj(rand(depth - 1), rand(depth - 1))

    ok = True
    for _ in range(10_000):
        f = rand(3)
        if tau(iota(f)) != f:
            ok = False
            break
    assert verdict(4, "translation round trip (10^4 formulas)", ok)


def test_criterion_5_calculus_harness():
    t0 = time.time()
    ok = True
    emitted = []
    ws4 = corpus(4)
    for a in ws4:
        for b in ws4:
            if decide_lt(a, b):
                emitted.append(prove_lt(a, b))
            if decide_le(a, b):
                emitted.append(prove_le(a, b))
    rng = random.Random(1013)
    ws7 = corpus(7)
    for _ in range(200):
        a, b = rng.choice(ws7), rng.choice(ws7)
        if decide_lt(a, b):
            emitted.append(prove_lt(a, b))
    for _ in range(120):
        a, b = rng.choice(corpus(5)), rng.choice(corpus(5))
        _, fwd, back = conj_to_worm(Conj(worm_formula(a), worm_formula(b)))
        emitted.extend((fwd, back))
    for _ in range(40):
        sides = []
        for _ in range(rng.randrange(1, 4)):
            a, b = rng.choice(ws4), rng.choice(ws4)
            if not decide_le(b, a):
                a, b = b, a
            sides.append(prove_le(b, a))
        emitted.append(derived_mono(sides))
    ok = ok and all(check_derivation(c).valid for c in emitted)

    # bounded proof search is sound against the deciders
    worms, seqs = _forward_search(depth=4)
    from bracketcalc.syntax import Diamond, TOP_WORM

    for a in worms:
        for b in worms:
            fa, fb = worm_formula(a), worm_formula(b)
            strict = (fa, Diamond(TOP_WORM, fb)) in seqs
            if ((fa, fb) in seqs or strict) and not decide_le(a, b):
                ok = False
            if strict and not decide_lt(a, b):
                ok = False

    # signature and nesting monotonicity on every node of every certificate
    def max_ord(s):
        best = None
        for o in s:
            if best is None or cmp(o, best) > 0:
                best = o
        return best

    # each distinct node once: certificates share subderivations
    seen = set()
    stack = list(emitted)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        lhs, rhs = node.conclusion.lhs, node.conclusion.rhs
        s_l, s_r = signature(tau(lhs)), signature(tau(rhs))
        if s_r and (not s_l or cmp(max_ord(s_l), max_ord(s_r)) < 0):
            ok = False
            break
        if not s_l and s_r:
            ok = False
            break
        if nesting_formula(lhs) < nesting_formula(rhs):
            ok = False
            break
        stack.extend(node.premises)
        if node.side is not None:
            stack.append(node.side)
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    assert verdict(
        5,
        "calculus soundness and completeness harness",
        ok,
        "%d certificates, %.1fs" % (len(emitted), elapsed),
    )


def test_criterion_6_descent():
    t0 = time.time()
    ok = True
    for a in corpus(8):
        if not a.entries:
            continue
        for n in range(6):
            if not decide_lt(a, fs_bracket(a, n)):
                ok = False
                break
        if not ok:
            break
    vals = corpus_ordinals(7)
    for xi in vals:
        if xi.is_zero():
            continue
        for x in range(6):
            if cmp(fs_veblen(xi, x), xi) >= 0:
                ok = False
                break
    step1 = {b: fs_veblen(b, 1) for b in vals}
    for alpha in vals:
        if not ok:
            break
        if alpha.is_zero():
            continue
        for k in range(4):
            ak = fs_veblen(alpha, k)
            for beta in vals:
                if cmp(ak, beta) < 0 and cmp(beta, alpha) < 0:
                    if cmp(ak, step1[beta]) > 0:
                        ok = False
                        break
    elapsed = time.time() - t0
    assert verdict(6, "descent and Bachmann property", ok, "%.1fs" % elapsed)


def test_criterion_7_key_inequality():
    bound = omega_pow(OMEGA)
    ok = True
    for a in corpus(6):
        xi = o_star(a)
        if cmp(xi, bound) > 0:
            continue
        primed = W("()" + ("" if not a.entries else print_worm(a)))
        for k in (2, 3):
            tr = descend(xi, k)
            val = tr.head[-1]
            cur = primed
            for i in range(1, k + 2):
                cur = fs_bracket(cur, i)
            if cmp(val, o_star(cur)) > 0:
                ok = False
                break
        if not ok:
            break
    assert verdict(7, "step-down vs bracket-step inequality", ok)


def test_criterion_8_growth_witnesses():
    # CPU time of this process, so that load from other processes cannot
    # fail the bound; wall time is reported alongside
    t0, w0 = time.process_time(), time.time()
    results = {
        "F0": F_witness(0, 100),
        "F1": F_witness(1, 100),
        "G0": G_witness(0, 100),
        "G1": G_witness(1, 100),
        "F2": F_witness(2, 10**6),
        "G2": G_witness(2, 10**6),
    }
    elapsed, wall = time.process_time() - t0, time.time() - w0
    parts = {
        "small values": (
            results["F0"] == Found(0)
            and results["F1"] == Found(1)
            and results["G0"] == Found(0)
        ),
        # G2 exhausting its budget means G(2) >= 10**6, so F(2) <= G(2) holds
        "F <= G": (
            results["F0"].steps <= results["G0"].steps
            and results["F1"].steps <= results["G1"].steps
            and results["F2"].steps <= results["G2"].steps
        ),
        "F2 = 6": results["F2"] == Found(6),
        "G2 budget exhausted": results["G2"] == BudgetExhausted(10**6),
        "under 60s": elapsed < 60.0,
    }
    ok = all(parts.values())
    note = "; ".join("%s: %s" % (k, "ok" if v else "NO") for k, v in parts.items())
    note += "; %.1fs cpu, %.1fs wall" % (elapsed, wall)
    verdict(8, "growth witnesses", ok, note)
    assert parts["small values"]
    assert parts["F <= G"], results
    assert parts["F2 = 6"], (
        "expected Found(6), the descent phi(1,0), phi(0,1), 4, 3, 2, 1, 0; "
        "got %r" % (results["F2"],)
    )
    assert parts["G2 budget exhausted"], results["G2"]
    assert parts["under 60s"], "took %.1fs cpu (%.1fs wall)" % (elapsed, wall)


def test_criterion_9_hand_traces():
    tr = step_iter(W("(())"), 10)
    ok = (
        tr.terminated
        and tr.steps_used == 3
        and [print_worm(x) for x in tr.steps] == ["(())", "()()", "()", "T"]
    )
    dt = descend(OMEGA, 10)
    ok = ok and (
        dt.terminated
        and dt.steps_used == 4
        and [print_ordinal(o) for o in dt.steps] == ["phi(0,1)", "3", "2", "1", "0"]
    )
    assert verdict(9, "hand-derived traces", ok)

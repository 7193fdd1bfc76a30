"""Fundamental sequences, step-down traces, and the growth witnesses."""

import copy
import json
import pickle
import random
import sys
from collections import deque

import pytest

from bracketcalc import (
    OMEGA,
    ONE,
    ZERO,
    BudgetExhausted,
    Found,
    F_witness,
    Trace,
    G_witness,
    Ordinal,
    a_seq,
    add,
    cmp,
    decide_lt,
    descend,
    fs_bracket,
    fs_veblen,
    gamma,
    mul_nat,
    nat,
    nesting_worm,
    o_star,
    omega_pow,
    parse_ordinal,
    parse_worm,
    pred,
    print_ordinal,
    print_worm,
    step_iter,
    uparrow_bracket,
    veblen,
    veblen_iter,
    xhat,
)
from bracketcalc._compact import CompactRunner, to_bracket
from bracketcalc.cli import main
from corpus import corpus, corpus_ordinals

W = parse_worm
O = parse_ordinal
EPS0 = veblen(ONE, ZERO)


# --- bracket steps ---------------------------------------------------------------


def test_fs_bracket_examples():
    assert fs_bracket(W("()()"), 2) == W("()")
    assert fs_bracket(W("(())"), 1) == W("()()")
    assert fs_bracket(W("T"), 7) == W("T")
    # case 3 with a non-minimal head: the split lands at the smaller entry
    assert fs_bracket(W("(())()"), 1) == W("()()()")


def test_fs_bracket_descent():
    for a in corpus(6):
        if not a.entries:
            continue
        for n in range(6):
            b = fs_bracket(a, n)
            assert decide_lt(a, b), (print_worm(a), n, print_worm(b))


def test_step_iter_hand_trace():
    tr = step_iter(W("(())"), 10)
    assert tr.terminated and tr.steps_used == 3
    assert [print_worm(x) for x in tr.steps] == ["(())", "()()", "()", "T"]


def test_step_iter_examples():
    tr = step_iter(W("T"), 0)
    assert tr.terminated and tr.steps_used == 0
    tr = step_iter(W("((()))"), 100)
    assert not tr.terminated and tr.steps_used == 100


def test_step_iter_windows():
    tr = step_iter(W("()()()()()()"), 100, window=2)
    assert tr.terminated and tr.steps_used == 6
    assert not tr.complete
    assert [print_worm(x) for x in tr.head] == ["()()()()()()", "()()()()()", "()()()()"]
    assert [print_worm(x) for x in tr.tail] == ["()", "T"]
    obj = tr.to_json_obj()
    assert obj["steps_used"] == 6 and obj["terminated"] is True
    assert obj["head"][0] == "()()()()()()"
    json.dumps(obj)


def test_step_iter_budget_zero():
    tr = step_iter(W("()"), 0)
    assert not tr.terminated and tr.steps_used == 0
    with pytest.raises(ValueError):
        step_iter(W("()"), -1)
    with pytest.raises(ValueError):
        step_iter(W("()"), 5, window=-1)


# trace windows leave out worms above this many entries
DENSE_LIMIT = 4096


def plain_trace(a, budget: int, max_len: int):
    """The fs_bracket trace from a, with None for worms above DENSE_LIMIT
    entries; None if any worm has more than max_len entries."""
    worms = [a]
    cur = a
    while cur.entries and len(worms) <= budget:
        cur = fs_bracket(cur, len(worms))
        if len(cur.entries) > max_len:
            return None
        worms.append(cur if len(cur.entries) <= DENSE_LIMIT else None)
    return worms


def test_step_iter_windows_match_plain_oracle():
    checked = 0
    for a in corpus(6):
        if nesting_worm(a) > 2:
            continue
        for budget in (40, 300):
            worms = plain_trace(a, budget, 20000)
            if worms is None:
                continue
            steps = len(worms) - 1
            terminated = worms[-1] is not None and not worms[-1].entries
            for window in (0, 1, 2, 8, 64):
                head = [a]
                for w in worms[1:window + 1]:
                    if w is None:
                        break
                    head.append(w)
                tail = []
                i = steps
                while i >= len(head) and len(tail) < window and worms[i] is not None:
                    tail.append(worms[i])
                    i -= 1
                tr = step_iter(a, budget, window)
                got = (tr.steps_used, tr.terminated, tr.head, tr.tail)
                want = (steps, terminated, tuple(head), tuple(tail[::-1]))
                assert got == want, (print_worm(a), budget, window)
                checked += 1
    assert checked >= 500


def test_step_iter_tails_span_batched_advances(monkeypatch):
    # the engine deletes a leading run of top entries, or a top entry that
    # a step made, in one advance, and a tail state inside it is the
    # advance's end state with top entries in front.  The first two
    # descents are mostly such runs and stay small, the third makes top
    # entries and stays small for 12 steps; budgets just past the start of
    # a run (a step that shortens the worm by one entry deletes a top
    # entry) make the windows reach into two advances
    advances = []
    step = CompactRunner.step

    def recorded(self, *args):
        k = step(self, *args)
        advances.append(k)
        return k

    monkeypatch.setattr(CompactRunner, "step", recorded)
    spans = 0
    for text, top in (("(()())(())", 600), ("()()(()())", 450), ("()((()))", 12)):
        worms = plain_trace(W(text), top, DENSE_LIMIT)
        assert len(worms) == top + 1
        lengths = [len(w.entries) for w in worms]
        drops = {i for i in range(1, top + 1) if lengths[i] == lengths[i - 1] - 1}
        starts = [i for i in drops if i - 1 not in drops]
        for budget in sorted({min(s + j, top) for s in starts for j in range(10)}):
            for window in (1, 3, 8):
                advances.clear()
                tr = step_iter(W(text), budget, window)
                assert tr.steps_used == budget and not tr.terminated
                # the head holds the first window + 1 worms, which the
                # tail does not repeat
                want = (
                    tuple(worms[:min(window, budget) + 1]),
                    tuple(worms[max(window + 1, budget - window + 1):budget + 1]),
                )
                assert (tr.head, tr.tail) == want, (text, budget, window)
                # the advances the tail window reaches, newest first
                seen, reached = 0, []
                for k in reversed(advances):
                    if seen >= window:
                        break
                    seen += k
                    reached.append(k)
                spans += len(reached) > 1 and max(reached) > 1
    assert spans >= 100, spans


def uncut_step_iter(a, budget: int, window: int) -> Trace:
    """step_iter with an engine that keeps the whole worm to the end."""
    head, cur, steps = [a], a, 0
    terminated = not cur.entries
    while not terminated and steps < min(budget, window):
        steps += 1
        cur = fs_bracket(cur, steps)
        terminated = not cur.entries
        if len(cur.entries) > DENSE_LIMIT:
            break
        head.append(cur)
    tail = []
    if not terminated and steps < budget:
        runner = CompactRunner(a)
        runner.run(steps)
        recent = deque(maxlen=window)
        while not runner.finished and runner.steps < budget:
            runner.step()
            recent.append(runner.as_cw())
        terminated, steps = runner.finished, runner.steps
        for cw in reversed(recent):
            worm = to_bracket(cw, limit=DENSE_LIMIT)
            if worm is None:
                break
            tail.append(worm)
        tail.reverse()
    return Trace(a, terminated, steps, budget, tuple(head), tuple(tail))


def test_step_iter_horizon_keeps_the_tail_exact():
    # the benchmark's step worms at its budget; a horizon of
    # max(B - s + 1, DENSE_LIMIT + 1) entries, which is not exact once the
    # cut state has taken steps, changes the tails of ()(()()), (()()()),
    # ()(()())(), (()())(()) and (()()())() at both windows
    worms = [w for w in corpus(5) if w.entries and nesting_worm(w) <= 2]
    assert len(worms) == 31
    for a in worms:
        for window in (64, 8):
            got = step_iter(a, 6000, window).to_json()
            assert got == uncut_step_iter(a, 6000, window).to_json(), (print_worm(a), window)


# --- ordinal steps ----------------------------------------------------------------


def test_xhat():
    assert xhat(3, ONE) == 4
    assert xhat(3, OMEGA) == 1
    assert xhat(0, ZERO) == 1


def test_fs_veblen_examples():
    assert fs_veblen(ONE, 5) == ZERO
    assert fs_veblen(OMEGA, 1) == nat(3)
    assert fs_veblen(EPS0, 1) == OMEGA


def test_fs_veblen_all_cases():
    # additively decomposable: peel the tail
    assert fs_veblen(add(OMEGA, nat(2)), 9) == add(OMEGA, ONE)
    assert fs_veblen(add(omega_pow(nat(2)), OMEGA), 1) == add(omega_pow(nat(2)), nat(3))
    # successor exponent of the base case
    assert fs_veblen(omega_pow(nat(2)), 2) == O("phi(0,1)+phi(0,1)+phi(0,1)+phi(0,1)")
    # limit exponent of the base case
    assert fs_veblen(omega_pow(OMEGA), 3) == omega_pow(nat(5))
    # zero argument at a positive level
    assert fs_veblen(veblen(nat(2), ZERO), 1) == veblen(ONE, veblen(ONE, ZERO))
    # successor argument at a positive level
    assert fs_veblen(veblen(ONE, ONE), 1) == veblen(
        ZERO, veblen(ZERO, add(EPS0, ONE))
    )
    # limit argument
    assert fs_veblen(veblen(ONE, OMEGA), 4) == veblen(ONE, nat(6))
    # limit level: the level itself steps down, applied once
    assert fs_veblen(veblen(OMEGA, ZERO), 2) == veblen(nat(4), ZERO)


def test_fs_veblen_descent():
    for xi in corpus_ordinals(7):
        if xi.is_zero():
            continue
        for x in range(6):
            assert cmp(fs_veblen(xi, x), xi) < 0


def _fs_veblen_per_term(xi, x):
    """fs_veblen with the sum rule it first had: peel the leading term and
    step the rest, one recursion per term."""
    if xi.is_zero():
        return ZERO
    if xi.fin:
        return Ordinal(xi.terms, xi.fin - 1)
    lead = xi.terms[0]
    rest = Ordinal(xi.terms[1:])
    if rest:
        return add(Ordinal((lead,)), _fs_veblen_per_term(rest, x))
    a, b = lead.level, lead.arg
    if a.is_zero():
        if b.fin:
            return mul_nat(veblen(ZERO, pred(b)), x + 2)
        return veblen(ZERO, _fs_veblen_per_term(b, x))
    if b.is_zero():
        return veblen_iter(_fs_veblen_per_term(a, x), xhat(x, a), ZERO)
    if b.fin:
        return veblen_iter(
            _fs_veblen_per_term(a, x), xhat(x, a), add(veblen(a, pred(b)), ONE)
        )
    return veblen(a, _fs_veblen_per_term(b, x))


def test_fs_veblen_steps_a_sum_through_its_last_term(capsys):
    for xi in corpus_ordinals(5):
        for x in range(4):
            assert fs_veblen(xi, x) == _fs_veblen_per_term(xi, x)
    # the descent from gamma(3) soon holds sums of more terms than the
    # recursion limit, which a per-term recursion could not step
    assert sys.getrecursionlimit() <= 1000
    assert main(["growth", "F", "3", "--budget", "48"]) == 3
    assert capsys.readouterr().out == "BudgetExhausted 48\n"


def test_descend_hand_trace():
    tr = descend(OMEGA, 10)
    assert tr.terminated and tr.steps_used == 4
    assert [print_ordinal(o) for o in tr.steps] == ["phi(0,1)", "3", "2", "1", "0"]


def test_descend_examples():
    assert descend(ZERO, 0).terminated
    tr = descend(ONE, 5)
    assert tr.terminated and tr.steps_used == 1
    obj = descend(OMEGA, 10).to_json_obj()
    assert obj["head"] == ["phi(0,1)", "3", "2", "1", "0"]
    # negative budgets and windows are refused up front, as step_iter does
    with pytest.raises(ValueError, match="budget must be >= 0"):
        descend(ONE, -1)
    with pytest.raises(ValueError, match="window must be >= 0"):
        descend(ONE, 5, -1)


def test_descend_window_beyond_the_budget_keeps_every_step():
    for budget in (3, 20):
        huge = descend(gamma(3), budget, window=10**20)
        exact = descend(gamma(3), budget, window=budget)
        assert huge.to_json_obj() == exact.to_json_obj()


def test_bachmann_property():
    vals = corpus_ordinals(6)
    for alpha in vals:
        if alpha.is_zero():
            continue
        for k in range(4):
            ak = fs_veblen(alpha, k)
            for beta in vals:
                if cmp(ak, beta) < 0 and cmp(beta, alpha) < 0:
                    assert cmp(ak, fs_veblen(beta, 1)) <= 0, (
                        print_ordinal(alpha),
                        k,
                        print_ordinal(beta),
                    )


def test_majorization():
    # sequences squeezed between the descent and the value majorize it
    rng = random.Random(33)
    vals = [o for o in corpus_ordinals(6) if not o.is_zero()]
    for start in rng.sample(vals, 30):
        seq = [start]
        for i in range(6):
            lo = fs_veblen(seq[-1], i + 1)
            seq.append(lo if rng.random() < 0.5 else seq[-1])
        ref = start
        for i in range(1, len(seq)):
            ref = fs_veblen(ref, i)
            assert cmp(seq[i], ref) >= 0


@pytest.mark.xfail(
    strict=True,
    reason="the claimed inequality o*((a↑a){k}) >= o*(a↑(a{k})) fails under "
    "the defining translation: shifting before stepping can be absorbed by "
    "large entries while shifting afterwards is not; see the pinned "
    "counterexample test below",
)
def test_uparrow_step_commutation_as_claimed():
    rng = random.Random(34)
    worms = [w for w in corpus(5)]
    for alpha in (ONE, OMEGA):
        for a in rng.sample(worms, 40):
            for k in range(4):
                lhs = o_star(fs_bracket(uparrow_bracket(alpha, a), k))
                rhs = o_star(uparrow_bracket(alpha, fs_bracket(a, k)))
                assert cmp(lhs, rhs) >= 0, (print_worm(a), k)


def test_uparrow_step_counterexample_pinned():
    # minimal witness against the claimed commutation inequality: the shift
    # of 1 is absorbed by the omega entry, so stepping first collapses to
    # omega while shifting the stepped worm reaches omega**omega
    a = W("((()))")
    assert uparrow_bracket(ONE, a) == a
    lhs = o_star(fs_bracket(uparrow_bracket(ONE, a), 0))
    rhs = o_star(uparrow_bracket(ONE, fs_bracket(a, 0)))
    assert lhs == OMEGA
    assert rhs == omega_pow(OMEGA)
    assert cmp(lhs, rhs) < 0


def test_step_vs_descent_inequality():
    # the ordinal descent never overtakes the bracket descent of the primed worm
    bound = omega_pow(OMEGA)
    for a in corpus(5):
        xi = o_star(a)
        if cmp(xi, bound) > 0:
            continue
        primed = W("()" ) if not a.entries else parse_worm("()" + print_worm(a))
        for k in (2, 3):
            tr = descend(xi, k)
            val = tr.head[-1] if tr.complete else None
            assert val is not None
            cur = primed
            for i in range(1, k + 2):
                cur = fs_bracket(cur, i)
            assert cmp(val, o_star(cur)) <= 0, (print_worm(a), k)


# --- growth functions -----------------------------------------------------------------


def test_bracket_principle_desk_scale():
    from bracketcalc import mul_nat

    bound = mul_nat(OMEGA, 3)
    checked = 0
    for a in corpus(8):
        if cmp(o_star(a), bound) < 0:
            tr = step_iter(a, 10**6)
            assert tr.terminated, print_worm(a)
            checked += 1
    assert checked > 50
    # larger worms exhaust the budget without crashing; the deeper one gets
    # a smaller budget because its entry order types grow into long sums
    for text, budget in (("((()))", 2000), ("(((())))", 60)):
        tr = step_iter(W(text), budget)
        assert not tr.terminated and tr.steps_used == budget


def test_gamma_values():
    assert gamma(0) == ZERO
    assert gamma(1) == ONE
    assert gamma(2) == EPS0
    assert gamma(3) == veblen(EPS0, ZERO)
    with pytest.raises(ValueError):
        gamma(-1)


def test_a_seq():
    assert a_seq(0) == W("T")
    assert a_seq(1) == W("()")
    assert a_seq(2) == W("((()))")
    assert a_seq(3) == W("(((())))")
    assert o_star(a_seq(2)) == gamma(2)
    assert o_star(a_seq(3)) == gamma(3)
    with pytest.raises(ValueError):
        a_seq(-1)


def test_F_witness_small():
    assert F_witness(0, 0) == Found(0)
    assert F_witness(1, 5) == Found(1)
    assert F_witness(1, 0) == BudgetExhausted(0)
    with pytest.raises(ValueError):
        F_witness(-2, 10)
    with pytest.raises(ValueError):
        G_witness(-1, 10)
    # a negative budget is refused, not read as an exhausted one
    with pytest.raises(ValueError, match="budget must be >= 0"):
        F_witness(2, -1)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        G_witness(2, -1)


def test_F_witness_two():
    # the descent from gamma(2) = phi(1,0) collapses quickly: its first step
    # lands on phi(0,1) and the trace is frozen here from the case analysis
    expected = ["phi(1,0)", "phi(0,1)", "4", "3", "2", "1", "0"]
    tr = descend(gamma(2), 1000)
    assert tr.terminated
    assert [print_ordinal(o) for o in tr.steps] == expected
    assert F_witness(2, 1000) == Found(6)
    # six is the least step count: a budget of six suffices, five does not
    assert F_witness(2, 6) == Found(6)
    assert F_witness(2, 5) == BudgetExhausted(5)


def test_G_witness_small():
    assert G_witness(0, 10) == Found(0)
    assert G_witness(1, 10) == Found(1)
    assert G_witness(1, 1) == BudgetExhausted(1)


def test_G_witness_steps_a_deep_head_without_recursion():
    # a(600) nests 900 levels deep, about as deep as the default recursion
    # limit; the second step steps the whole chain of leading entries
    assert sys.getrecursionlimit() <= 1000
    assert G_witness(600, 2) == BudgetExhausted(2)


def test_results_are_read_only_values():
    # Found, BudgetExhausted and Trace behave as frozen records do: their
    # repr names the fields, equality and hash go by class and fields, a
    # copy or a pickled copy is equal, and fields cannot be assigned, deleted
    # or misnamed
    assert repr(BudgetExhausted(100000)) == "BudgetExhausted(steps=100000)"
    assert repr(Found(steps=3)) == "Found(steps=3)"
    assert Found(3) == Found(steps=3) and Found(3) != Found(4)
    assert Found(3) != BudgetExhausted(3)
    assert hash(Found(3)) == hash(Found(steps=3))
    assert len({Found(3), Found(3), BudgetExhausted(3)}) == 2
    tr = step_iter(W("(())"), 10, window=2)
    assert tr == step_iter(W("(())"), 10, window=2)
    assert tr != step_iter(W("(())"), 11, window=2)
    assert hash(tr) == hash(step_iter(W("(())"), 10, window=2))
    assert repr(tr) == (
        "Trace(start=BracketWorm((())), terminated=True, steps_used=3, budget=10, "
        "head=(BracketWorm((())), BracketWorm(()()), BracketWorm(())), tail=(BracketWorm(T),))"
    )
    for value in (Found(3), BudgetExhausted(0)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
    assert copy.copy(tr) == tr
    for value in (Found(3), BudgetExhausted(0), tr):
        name = value.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1
    for bad in ((), (1, 2)):
        with pytest.raises(TypeError):
            Found(*bad)
    with pytest.raises(TypeError):
        Found(count=3)
    with pytest.raises(TypeError):
        Found(3, steps=3)
    with pytest.raises(TypeError):
        Trace(W("()"), True, 0, 0, ())


def test_F_le_G_where_found():
    for m in (0, 1):
        f = F_witness(m, 100)
        g = G_witness(m, 100)
        assert isinstance(f, Found) and isinstance(g, Found)
        assert f.steps <= g.steps

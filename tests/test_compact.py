"""The run-length compressed step engine agrees with the plain one."""

import copy
import os
import random
import subprocess
import sys
from functools import cmp_to_key
from itertools import islice
from pathlib import Path

import pytest

import bracketcalc
from bracketcalc import (
    TOP_WORM,
    BracketWorm,
    ZERO,
    BudgetExhausted,
    Found,
    G_witness,
    a_seq,
    cmp,
    fs_bracket,
    hyper_exp,
    nat,
    o_star,
    parse_worm,
    print_worm,
    step_iter,
    worm_of_ordinal,
)
from bracketcalc import _compact, fundseq
from bracketcalc._compact import (
    CW,
    EMPTY,
    CompactRunner,
    _size,
    from_bracket,
    o_cw,
    split_below,
    to_bracket,
)
from corpus import corpus, corpus_ordinals
from full_descent import full_descent, primed

W = parse_worm


def test_order_types_agree():
    for w in corpus(7):
        assert o_cw(from_bracket(w)) == o_star(w), print_worm(w)


def test_repeats_holding_a_zero_fold_in_closed_form(monkeypatch):
    # every repeated subsequence that holds a zero entry takes the closed
    # form, whatever its count; runner states must fold to the order types
    # of the plain worms.  Measured: 526 of 532 _seq_over calls repeat
    repeated = 0
    seq_over = _compact._seq_over

    def counted(seq, k, val, mu):
        nonlocal repeated
        repeated += k >= 2
        return seq_over(seq, k, val, mu)

    monkeypatch.setattr(_compact, "_seq_over", counted)
    states = 0
    for w in corpus(4):
        runner, cur = CompactRunner(w), w
        for i in range(1, 9):
            if runner.finished:
                break
            runner.step()
            cur = fs_bracket(cur, i)
            if len(cur.entries) > 1500:
                break
            got = _compact._fold_items(runner.as_cw().items, ZERO)
            assert got == o_star(cur), (print_worm(w), i)
            states += 1
    assert states > 100
    assert repeated > 250


def test_order_type_folds_stay_within_their_run_over_counts(monkeypatch):
    # _fold_items folds each item through the module global _fold_item, so
    # the counter sees every item fold.  Measured: 22 443 and 6 017 calls
    # over the runner's work in step_iter("(((())))", 100, 8) and
    # G_witness(3, 22) when they stepped to the budget
    calls = 0
    fold_item = _compact._fold_item

    def counted(it, val, mu):
        nonlocal calls
        calls += 1
        return fold_item(it, val, mu)

    monkeypatch.setattr(_compact, "_fold_item", counted)
    full_descent(W("(((())))"), 100, fundseq._DENSE_LIMIT, replay=8)
    assert calls <= 25_000
    calls = 0
    full_descent(primed(3), 22)
    assert calls <= 7_000


def test_runner_builds_few_compact_worms(monkeypatch):
    # counts CW constructions over a G2 descent: 43 980 when every new
    # prefix and cold segment went through a run-merging pass, 31 186
    # while every step boxed its suffix onto the cold stack, 14 786 since
    # a short suffix stays in the active zone, 14 365 since a stepped top
    # entry is deleted in the step that made it
    built = 0
    init = CW.__init__

    def counted(self, items):
        nonlocal built
        built += 1
        init(self, items)

    monkeypatch.setattr(CW, "__init__", counted)
    full_descent(primed(2), 2 * 10**4)
    assert built <= 15_000


def test_runner_sends_only_overflow_to_the_cold_stack(monkeypatch):
    # counts cold pushes over a G2 descent: 11 826 while every step boxed
    # its suffix onto the cold stack, 19 since only what overflows the
    # active zone goes there
    pushed = 0
    push = CompactRunner._push_cold

    def counted(self, items):
        nonlocal pushed
        pushed += 1
        push(self, items)

    monkeypatch.setattr(CompactRunner, "_push_cold", counted)
    full_descent(primed(2), 2 * 10**4)
    assert pushed <= 100


def test_runner_compares_few_ordinals(monkeypatch):
    # counts _compact's cmp calls over a G2 descent: 468 392 while every
    # step's suffix went cold and came straight back, 296 937 since it
    # stays in the active zone, 63 569 since a scan settles an item whose
    # least entry type is the threshold, or a box led by its least entry,
    # by identity
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return cmp(x, y)

    monkeypatch.setattr(_compact, "cmp", counted)
    full_descent(primed(2), 10**5)
    assert calls <= 70_000


def test_runner_deletes_a_run_of_top_entries_in_one_advance(monkeypatch):
    # counts runner advances: 1 000 000 over this trace while every deleted
    # top entry took a step of its own, 58 since a run of them at the front
    # of the active zone goes in one advance, 38 since a stepped top entry
    # goes in the advance that made it
    calls = 0
    step = CompactRunner.step

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return step(self, *args)

    monkeypatch.setattr(CompactRunner, "step", counted)
    tr = step_iter(W("(()())(())"), 10**6, 8)
    assert tr.steps_used == 10**6
    assert calls <= 200
    # a G2 descent never has two top entries in a row, but one step in three
    # deletes the top entry the step before made: 20 000 advances while that
    # took an advance of its own, 13 337 since it does not
    calls = 0
    full_descent(primed(2), 2 * 10**4)
    assert calls <= 14_000


def _random_cw(rng, entries, depth: int) -> CW:
    # runs of corpus entries, about 15 % of them zero entries, and repeats
    # nested up to `depth` deep, every count at most 4
    items = []
    for _ in range(rng.randint(1, 3)):
        count = rng.randint(1, 4)
        if depth and rng.random() < 0.4:
            items.append((False, _random_cw(rng, entries, depth - 1), count))
        else:
            entry = EMPTY if rng.random() < 0.15 else rng.choice(entries)
            items.append((True, entry, count))
    # kept as built, unmerged runs and one-item repeats included, as the
    # engine's splits and steps leave them
    return CW(tuple(items))


def test_random_compact_worms_fold_to_their_plain_order_types():
    rng = random.Random(26)
    entries = [from_bracket(w) for w in corpus(5)]
    zero_free = 0
    for _ in range(2000):
        cw = _random_cw(rng, entries, 3)
        zero_free += sum(
            not is_run and cmp(child.min_o(), ZERO) > 0
            for is_run, child, _count in cw.items
        )
        plain = to_bracket(cw)
        assert o_cw(cw) == o_star(plain), print_worm(plain)
        # a worm dominates its tails, so each extra copy raises the type
        twice, thrice = (o_cw(CW(((False, cw, k),))) for k in (2, 3))
        assert cmp(twice, thrice) < 0, print_worm(plain)
    assert zero_free > 500


def test_principal_values_shift_down_by_their_least_entry():
    # the shift lemma o(up^nu A) = e^nu(o(A)) puts a principal infinite s in
    # the range of e^nu for every nu up to the least entry of its canonical
    # worm, which _block_min gives; there _logdown inverts e^nu
    ordinals = corpus_ordinals(6)
    principal = [s for s in ordinals if not s.fin and len(s.terms) == 1]
    assert len(principal) == 48
    pairs = 0
    for s in principal:
        low = _compact._block_min(s)
        assert low == min(worm_of_ordinal(s), key=cmp_to_key(cmp))
        for nu in ordinals:
            if cmp(nu, low) <= 0:
                assert hyper_exp(nu, _compact._logdown(s, nu)) is s
                pairs += 1
    assert pairs > 1000


def test_zero_free_repeats_fold_whatever_the_count():
    # every entry of S has order type at least 1, so a repeat of S holds no
    # zero entry and is folded shifted down by 1
    plain = W("(())((()))")
    s = from_bracket(plain)
    assert s.min_o() == nat(1)
    for k in range(1, 65):
        got = o_cw(CW(((False, s, k),)))
        assert got == o_star(BracketWorm(plain.entries * k)), k
    long = o_cw(CW(((False, s, 5000),)))
    assert cmp(long, o_cw(CW(((False, s, 5001),)))) < 0


def test_conversion_round_trip():
    for w in corpus(7):
        assert to_bracket(from_bracket(w)) == w


def test_conversion_round_trips_a_deeply_nested_worm():
    # both directions walk with explicit stacks, not one call per level
    w = TOP_WORM
    for _ in range(5000):
        w = BracketWorm((w,))
    assert sys.getrecursionlimit() <= 1000
    assert to_bracket(from_bracket(w)) is w


def test_from_bracket_merges_each_block_of_equal_entries_into_one_run():
    # the one place runs are merged: one run per maximal block of equal
    # adjacent entries, and equal entries share one child
    plain = W("()()()(())(())()")
    flat = from_bracket(plain)
    (run3, top, k3), (run2, two, k2), (run1, top1, k1) = flat.items
    assert (run3, k3, run2, k2, run1, k1) == (True, 3, True, 2, True, 1)
    assert top is top1
    ((_r, inner_top, _k),) = two.items
    assert inner_top is top
    assert to_bracket(flat) == plain
    # the entry (()) inside the first entry and after it is one child
    nested = W("((())(())(()))(())")
    cw = from_bracket(nested)
    (outer_run, outer, outer_count), (last_run, last, last_count) = cw.items
    assert (outer_run, outer_count, last_run, last_count) == (True, 1, True, 1)
    ((inner_run, inner, inner_count),) = outer.items
    assert (inner_run, inner_count) == (True, 3)
    assert inner is last
    assert last.items == ((True, EMPTY, 1),)
    assert to_bracket(cw) == nested


def test_stepping_agrees_with_plain():
    rng = random.Random(5)
    sample = rng.sample(list(corpus(5)), 40)
    checked = 0
    for w in sample:
        runner = CompactRunner(w)
        cur = w
        for i in range(1, 25):
            if not cur.entries or len(cur.entries) > 20000:
                break
            cur = fs_bracket(cur, i)
            runner.step()
            got = to_bracket(runner.as_cw(), limit=10**6)
            assert cur == got, (print_worm(w), i)
            checked += 1
            if i <= 5 and len(cur.entries) <= 1500:
                assert o_cw(runner.as_cw()) == o_star(cur)
    assert checked > 200


def _top_budgets(w, budget: int) -> tuple:
    """The budgets up to `budget` that stop a descent from w just before a
    step that deletes a top entry, the only steps that shorten a worm by
    one entry: those inside a run of top entries, where the last step
    deleted one too, and those where the last step made that top entry."""
    runner = CompactRunner(w)
    lengths = [runner.length]
    while not runner.finished and runner.steps <= budget:
        runner.step()
        lengths.append(runner.length)
    before = [b for b in range(1, len(lengths) - 1) if lengths[b] == lengths[b + 1] + 1]
    inside = [b for b in before if lengths[b - 1] - 1 == lengths[b]]
    made = [b for b in before if lengths[b - 1] < lengths[b]]
    return inside, made


def test_batched_run_agrees_with_single_steps():
    # run(b) deletes a leading run of top entries, and a top entry that a
    # step made, in the advance that reaches it, cut at the budget; it must
    # stop where as many single steps do, also at the budgets that end
    # inside such a run or between such a step and its deletion
    starts = [(w, 150) for w in corpus(4)]
    starts += [(W("(()())(())"), 320), (W("()()(()())"), 220), (primed(2), 120)]
    checked = inside = made = 0
    for w, budget in starts:
        single = CompactRunner(w)
        tops, fused = _top_budgets(w, budget)
        for b in sorted({1, 2, 3, 5, 8, 13, 21, 34, *tops, *fused}):
            while not single.finished and single.steps < b:
                single.step()
            batched = CompactRunner(w)
            batched.run(b)
            got, want = ((r.steps, r.finished, r.length) for r in (batched, single))
            assert got == want, (print_worm(w), b)
            # the whole worm, or the front of one too long to materialize
            a = to_bracket(batched.as_cw(), limit=10**6)
            assert a == to_bracket(single.as_cw(), limit=10**6), (print_worm(w), b)
            if a is None:
                assert _front_worms(batched, 3000) == _front_worms(single, 3000)
            checked += 1
        inside += len(tops)
        made += len(fused)
    assert checked > 1300 and (inside, made) == (761, 412), (checked, inside, made)


@pytest.fixture
def item_lists(monkeypatch):
    """The lengths of the item lists the engine scans or boxes."""
    seen = []
    split, box = _compact.split_below, _compact._box

    def counted_split(items, threshold):
        seen.append(len(items))
        return split(items, threshold)

    def counted_box(items, spare=0):
        seen.append(len(items))
        return box(items, spare)

    monkeypatch.setattr(_compact, "split_below", counted_split)
    monkeypatch.setattr(_compact, "_box", counted_box)
    return seen


def test_long_run_stays_compact(item_lists):
    # a prefix of the million-step run: lengths explode, and every item
    # list a step builds or scans stays within twice the box fan-out
    r = CompactRunner(primed(2))
    r.run(30000)
    assert not r.finished
    assert r.steps == 30000
    assert r.length > 10**15
    assert len(item_lists) > 30000
    assert max(item_lists) <= 2 * _compact._FANOUT
    assert len(r.cold) < 64


def _depth(w) -> int:
    deepest, stack = 0, [(w, 0)]
    while stack:
        cur, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((e, d + 1) for e in cur.entries)
    return deepest


def _chain_run(steps: int):
    # every one of these steps but the first few takes the stepped head of
    # the last prefix as its head, so each takes a known prefix
    runner = CompactRunner(parse_worm("((()()))"))
    runner.run(steps)
    return runner.steps, runner.length


def test_fanout_sweep_has_no_cliff(monkeypatch, item_lists):
    # small step-count caps once made the collected prefix grow without
    # bound; boxes of any fan-out give the same results and keep every item
    # list within twice the fan-out (counts, not timings)
    worms = [w for w in corpus(5) if w.entries and _depth(w) <= 2]
    assert len(worms) == 31  # the benchmark's step worms
    want = None
    for fanout in (4, 8, 16, 32, 64, 128):
        monkeypatch.setattr(_compact, "_FANOUT", fanout)
        item_lists.clear()
        g2 = full_descent(primed(2), 2 * 10**4)
        got = (
            G_witness(2, 2 * 10**4),
            (g2.steps, g2.finished),
            [step_iter(w, 2000) for w in worms],
            _chain_run(600),
        )
        if want is None:
            want = got
        assert got == want, fanout
        assert max(item_lists) <= 2 * fanout, fanout


def test_runner_from_a_long_plain_worm_keeps_pace_with_the_replay(item_lists):
    # the worm nine steps into this descent is 2 778 entries long; started
    # from it, the runner once copied and rescanned one flat cold segment
    # per step, which grew to 18 k items
    w = parse_worm("()((())())")
    start = w
    for i in range(1, 10):
        start = fs_bracket(start, i)
    assert len(start.entries) == 2778
    assert len(from_bracket(start).items) == 1912
    direct = CompactRunner(start)
    direct.steps = 9
    replay = CompactRunner(w)
    replay.run(9)
    item_lists.clear()  # the runner boxes the start list once
    for checkpoint in range(38, 300, 29):
        direct.run(checkpoint)
        replay.run(checkpoint)
        assert (direct.steps, direct.length) == (replay.steps, replay.length)
    assert direct.steps == 299 and not direct.finished
    assert max(item_lists) <= 2 * _compact._FANOUT


def test_long_run_retains_few_objects_per_step():
    # every prefix a step builds stays alive in the next one, so count what
    # a run keeps: at most five tracked compact worms and tuples, items
    # included, per step, which the engine with flat prefixes of up to 48
    # items met at 4.6
    code = """if True:
        import gc
        from bracketcalc import TOP_WORM, BracketWorm, a_seq
        from bracketcalc._compact import CW, CompactRunner

        def tracked():
            gc.collect()
            return sum(type(o) in (CW, tuple) for o in gc.get_objects())

        before = tracked()
        runner = CompactRunner(BracketWorm((TOP_WORM,) + a_seq(2).entries))
        runner.run(10**5)
        print(tracked() - before)
    """
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 5 * 10**5


def test_size_check_stops_early():
    # exact on small worms and early runner states
    states = [from_bracket(w) for w in corpus(5)]
    for w in corpus(3):
        runner = CompactRunner(w)
        for _ in range(6):
            if runner.finished:
                break
            runner.step()
            states.append(runner.as_cw())
    for cw in states:
        # counted apart, since the check caches the exact counts it
        # completes; the smallest limit goes first, before any is cached
        n = sum(1 for _ in _entries(cw.items))
        for limit in sorted({0, max(n - 1, 0), n, n + 1}):
            assert _size(cw, limit) == min(n, limit + 1)
        assert cw._length == n == len(to_bracket(cw, limit=10**6).entries)
    # a long run's state is decided without its exact length
    runner = CompactRunner(primed(2))
    runner.run(3000)
    cw = runner.as_cw()
    assert to_bracket(cw, limit=4096) is None
    (_r, first, _k), *_ = cw.items
    assert cw._length is None and first._length is None


# --- the budget horizon ---------------------------------------------------------


def _entries(items):
    # every entry content in order, expanded copy by copy
    for is_run, child, count in items:
        k = 0
        while k < count:
            if is_run:
                yield child
            else:
                yield from _entries(child.items)
            k += 1


def _front_worms(runner, n: int) -> list:
    """The first n entries of a runner's state, as plain worms."""
    memo: dict = {}
    out = []
    for e in islice(_entries(runner.as_cw().items), n):
        if id(e) not in memo:
            memo[id(e)] = to_bracket(e)
        out.append(memo[id(e)])
    return out


def _annotations_hold(cw) -> None:
    # every recorded length and least entry order type is the true one
    stack = [cw]
    while stack:
        c = stack.pop()
        if c._length is not None:
            assert c._length == len(to_bracket(c).entries)
        if c._min_o is not None:
            assert c._min_o is CW(c.items).min_o()
        stack.extend(child for is_run, child, _k in c.items if not is_run)


def test_cut_keeps_exactly_the_front():
    # a step keeps a short suffix in the active zone, so the corpus worms
    # alone never reach the cold stack: the same worms with a long tail do
    tail = W("()(())" * 24).entries
    checked = cold = 0
    for w in [*corpus(4), *(BracketWorm(w.entries + tail) for w in corpus(4))]:
        runner = CompactRunner(w)
        for _ in range(7):
            if runner.finished:
                break
            runner.step()
            full = to_bracket(runner.as_cw(), limit=3000)
            if full is None:
                break
            n = len(full.entries)
            for keep in {*range(min(n, 40) + 2), n // 2, n - 1, n, n + 1}:
                twin = copy.copy(runner)
                twin.active, twin.cold = list(runner.active), list(runner.cold)
                twin.cut(keep)
                cut = twin.as_cw()
                assert to_bracket(cut).entries == full.entries[:keep], (print_worm(w), keep)
                _annotations_hold(cut)
                checked += 1
                # a cold segment cut through, not only kept or dropped
                if twin.cold:
                    far = runner.cold[len(runner.cold) - len(twin.cold)]
                    cold += twin.cold[0][0] is not far[0]
            # cutting a copy leaves the runner's own state as it was
            assert to_bracket(runner.as_cw(), limit=3000) == full
    assert checked > 1800 and cold > 200


def _cut_run(start, budget: int, every: int):
    """Step to top or to the budget; every `every` steps, cut the state to
    the entries that the steps left can reach."""
    runner = CompactRunner(start)
    while not runner.finished and runner.steps < budget:
        runner.step()
        if runner.steps % every == 0:
            runner.cut(budget - runner.steps + 1)
    return runner


def test_cut_runs_agree_with_the_uncut_runner():
    # the first entries after every cut, along a long G2 descent
    budget = 3 * 10**4
    ref = CompactRunner(primed(2))
    cutting = {1: CompactRunner(primed(2)), 100: CompactRunner(primed(2))}
    checked = 0
    while ref.steps < budget:
        ref.step()
        want = None
        for every, runner in cutting.items():
            runner.step()
            if runner.steps % every == 0:
                keep = budget - runner.steps + 1
                runner.cut(keep)
                if want is None:
                    want = _front_worms(ref, 40)
                assert _front_worms(runner, min(40, keep)) == want[:keep], (every, runner.steps)
                checked += 1
    assert checked == budget + budget // 100
    # termination and step counts from small starts
    for w in corpus(4):
        ref = CompactRunner(w)
        ref.run(34)
        for budget in range(1, 35):
            want = (ref.finished and ref.steps <= budget, min(ref.steps, budget))
            runner = _cut_run(w, budget, 1)
            assert (runner.finished, runner.steps) == want, (print_worm(w), budget)


def test_budget_boundary_with_cuts(monkeypatch):
    # this start, primed like G_witness's, reaches top in exactly 51 steps;
    # from step 25 on it is a run of top entries as long as the steps
    # left, which a horizon one entry short would end early
    rest = parse_worm("(())(())")
    start = BracketWorm((TOP_WORM,) + rest.entries)
    ref = CompactRunner(start)
    while not ref.finished:
        ref.step()
    assert ref.steps == 51

    def verdict(budget, every):
        runner = _cut_run(start, budget, every)
        return (Found if runner.finished else BudgetExhausted)(runner.steps)

    for every in (1, 16):
        assert verdict(51, every) == Found(51)
        assert verdict(50, every) == BudgetExhausted(50)
    # G_witness's own loop, which cuts every _FANOUT steps, at that boundary
    with monkeypatch.context() as patch:
        patch.setattr(fundseq, "a_seq", lambda m: rest)
        for fanout in (4, 16):
            patch.setattr(_compact, "_FANOUT", fanout)
            assert G_witness(0, 51) == Found(50)
            assert G_witness(0, 50) == BudgetExhausted(50)
    # and on its own starts it decides as the uncut loop does
    for m in (0, 1, 2):
        start = BracketWorm((TOP_WORM,) + a_seq(m).entries)
        for budget in (*range(40), 5000):
            ref = CompactRunner(start)
            while not ref.finished and ref.steps < budget:
                ref.step()
            want = Found(ref.steps - 1) if ref.finished else BudgetExhausted(ref.steps)
            assert G_witness(m, budget) == want, (m, budget)


def _live_items(runner) -> int:
    """Assert that every item reachable from the runner's state counts at
    least one copy and that every repeated child has items, as the fold
    and the splits assume; return how many distinct items were seen."""
    seen = {}  # id -> item, which keeps every id seen in use
    stack = list(runner.active) + [(False, seg, 1) for seg, _w in runner.cold]
    while stack:
        it = stack.pop()
        if id(it) in seen:
            continue
        seen[id(it)] = it
        is_run, child, count = it
        assert count >= 1
        assert is_run or child.items
        stack.extend(child.items)
    return len(seen)


def test_runner_builds_only_live_items():
    shallow = [w for w in corpus(5) if w.entries and _depth(w) <= 2]
    assert len(shallow) == 31
    starts = [(w, 300) for w in shallow]
    starts.append((primed(3), 22))
    checked = 0
    for start, steps in starts:
        runner = CompactRunner(start)
        while not runner.finished and runner.steps < steps:
            runner.step()
            checked += _live_items(runner)
    assert checked > 100000


def test_budgeted_descents_run_in_bounded_memory():
    # the traced heap peak of a budgeted descent stays under one bound at
    # any budget; without the horizon a G2 descent of 10**5 steps peaks
    # near 25 MB and the step_iter run near 33 MB, growing with the budget
    code = """if True:
        import sys, tracemalloc
        from bracketcalc import parse_worm, step_iter
        from full_descent import full_descent, primed

        worm = parse_worm("(()()()())")
        runs = {
            "G": lambda budget: full_descent(primed(2), budget).steps == budget,
            "step": lambda budget: step_iter(worm, budget, 8).steps_used == budget,
        }
        runs["G"](100), runs["step"](100)  # import the engine
        for job in sys.argv[1:]:
            kind, budget = job.split(":")
            tracemalloc.start()
            assert runs[kind](int(budget)), job
            print(job, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    """
    # two processes, so that the long traced run overlaps the others
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, *jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_CHILD_ENV,
        )
        for jobs in (["G:400000"], ["G:100000", "step:10000", "step:100000"])
    ]
    peaks = {}
    for proc in procs:
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        peaks.update(line.split() for line in out.splitlines())
    assert len(peaks) == 4
    for job, peak in peaks.items():
        assert int(peak) < 1 << 20, (job, peak)


# child processes import the package and the test helpers
_CHILD_PATH = (Path(bracketcalc.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
_CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, _CHILD_PATH)))


def _child_peak_rss_mb(run: str) -> float:
    """The peak RSS of a process running `run`.  A process's ru_maxrss
    starts at the peak of the process it was forked from, so a small
    launcher runs the code and reads the peak of its one child."""
    code = """if True:
        import resource, subprocess, sys

        subprocess.run([sys.executable, "-c", sys.argv[1]], check=True)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10))
    """
    proc = subprocess.run(
        [sys.executable, "-c", code, run],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def test_million_step_witness_peak_rss():
    # the budget horizon keeps the whole process small over a G2 descent
    # of 10**6 steps; without it the peak was 282 MB.  G_witness decides
    # that budget within a few dozen steps, so the full descent is run too
    run = (
        "from bracketcalc import BudgetExhausted, G_witness; "
        "from full_descent import full_descent, primed; "
        "r = full_descent(primed(2), 10**6); "
        "assert (r.steps, r.finished) == (10**6, False); "
        "assert G_witness(2, 10**6) == BudgetExhausted(10**6)"
    )
    assert _child_peak_rss_mb(run) <= 40


def test_deep_witness_is_decided_before_the_budget():
    # no G4 descent reaches top within 10**6 steps, and the worm says so
    # after a few: stepping to the budget had not finished in 10 minutes
    code = """if True:
        import resource
        resource.setrlimit(resource.RLIMIT_CPU, (30, 30))
        from bracketcalc import BudgetExhausted, G_witness
        assert G_witness(4, 10**6) == BudgetExhausted(10**6)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_CHILD_ENV)
    assert proc.returncode == 0, proc.stderr


def test_witness_stops_once_the_worm_outlasts_the_budget(monkeypatch):
    # a step shortens a worm by at most one entry, so a G2 worm longer than
    # the steps left ends the descent: 13 advances here, 13 337 when every
    # step to the budget ran
    calls = 0
    step = CompactRunner.step

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return step(self, *args)

    monkeypatch.setattr(CompactRunner, "step", counted)
    assert G_witness(2, 2 * 10**4) == BudgetExhausted(2 * 10**4)
    assert calls <= 20


def test_wide_step_window_peak_rss():
    # the tail walk stops at the first worm above the dense limit, so a
    # wide window keeps no records older than such a state; keeping one
    # per step for this window peaked at 158.5 MB, and now 19.6 MB
    run = (
        "from bracketcalc import parse_worm, step_iter; "
        "tr = step_iter(parse_worm('(()()()())'), 300000, 300000); "
        "assert (tr.steps_used, len(tr.head), tr.tail) == (300000, 14, ())"
    )
    assert _child_peak_rss_mb(run) <= 30


# --- split_below against the recursive version it replaced ----------------------


def _split_below_oracle(items, threshold):
    for i, (is_run, child, count) in enumerate(items):
        low = o_cw(child) if is_run else child.min_o()
        if cmp(low, threshold) >= 0:
            continue
        prefix = list(items[:i])
        if not is_run:
            lead_run, lead, _k = child.items[0]
        if is_run or lead_run and cmp(o_cw(lead), threshold) < 0:
            # a repeat whose first entry is the split point is kept whole
            return prefix, list(items[i:])
        sub_prefix, suffix = _split_below_oracle(child.items, threshold)
        if count > 1:
            suffix.append((False, child, count - 1))
        suffix.extend(items[i + 1:])
        return prefix + sub_prefix, suffix
    return list(items), None


def _same_split(got, want):
    # split items are rebuilt around shared children, which identity checks
    def ids(items):
        if items is None:
            return None
        return [(is_run, id(child), count) for is_run, child, count in items]

    return (ids(got[0]), ids(got[1])) == (ids(want[0]), ids(want[1]))


def test_split_below_matches_recursive_oracle():
    thresholds = corpus_ordinals(6)
    lists = [from_bracket(w).items for w in corpus(5) if w.entries]
    # runner states hold repeated subsequences and boxed cold segments
    for w in corpus(4):
        runner = CompactRunner(w)
        for _ in range(12):
            if runner.finished:
                break
            runner.step()
            if not runner.finished:
                lists.append(runner.as_cw().items)
    # the same lists as one repeat led by a high entry, which a split at a
    # lower threshold must open
    high = from_bracket(parse_worm("((((()))))")).items[0]
    lists += [((False, CW((high, *items)), 2),) for items in lists]
    checked = splits = opened = 0
    for items in lists:
        for t in thresholds:
            got = split_below(items, t)
            assert _same_split(got, _split_below_oracle(items, t))
            checked += 1
            if got[1] is not None:
                splits += 1
                # a split inside a repeated subsequence changes the item count
                opened += len(got[0]) + len(got[1]) != len(items)
    assert checked > 20000 and 0 < splits < checked and opened > 5000


def test_split_below_opens_a_deep_chain_without_recursion():
    # level k: a high entry, then level k+1 repeated twice, then a high
    # entry; the innermost level holds the only entry below the threshold
    high = from_bracket(parse_worm("((()))"))
    low = from_bracket(parse_worm("T"))
    threshold = nat(1)
    cw = CW(((True, low, 1),))
    cw._min_o = o_cw(low)
    for _ in range(5000):
        cw = CW(((True, high, 1), (False, cw, 2), (True, high, 1)))
        cw._min_o = o_cw(low)
    items = ((True, high, 3), (False, cw, 4))
    got = split_below(items, threshold)
    prefix, suffix = got
    assert len(prefix) == 5001
    # the innermost repeat starts with the split point, so it stays whole
    assert len(suffix) == 2 * 5000 + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        want = _split_below_oracle(items, threshold)
    finally:
        sys.setrecursionlimit(limit)
    assert _same_split(got, want)

"""The run-length compressed step engine agrees with the plain one."""

import random
import sys

from bracketcalc import cmp, fs_bracket, nat, o_star, parse_worm, print_worm
from bracketcalc._compact import (
    _ACTIVE_CAP,
    CW,
    CompactRunner,
    Item,
    from_bracket,
    o_cw,
    split_below,
    to_bracket,
)
from corpus import corpus, corpus_ordinals

W = parse_worm


def test_order_types_agree():
    for w in corpus(7):
        assert o_cw(from_bracket(w)) == o_star(w), print_worm(w)


def test_conversion_round_trip():
    for w in corpus(7):
        assert to_bracket(from_bracket(w)) == w


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


def test_batched_run_agrees_with_single_steps():
    for text in ("(())", "((()))", "(()())", "()(())", "(()(()))"):
        w = W(text)
        for budget in (1, 2, 3, 5, 8, 13, 21, 34):
            r1 = CompactRunner(w)
            r1.run(budget)
            r2 = CompactRunner(w)
            while not r2.finished and r2.steps < budget:
                r2.step()
            assert (r1.steps, r1.finished) == (r2.steps, r2.finished)
            a = to_bracket(r1.as_cw(), limit=10**6)
            b = to_bracket(r2.as_cw(), limit=10**6)
            assert a == b


def test_long_run_stays_compact():
    # a prefix of the million-step run: lengths explode, state stays small
    from bracketcalc import TOP_WORM, a_seq
    from bracketcalc.syntax import BracketWorm

    start = BracketWorm((TOP_WORM,) + a_seq(2).entries)
    r = CompactRunner(start)
    r.run(30000)
    assert not r.finished
    assert r.steps == 30000
    assert r.length > 10**15
    assert len(r.active) <= _ACTIVE_CAP and len(r.cold) < 64


# --- split_below against the recursive version it replaced ----------------------


def _split_below_oracle(items, threshold):
    low_min = None
    for i, it in enumerate(items):
        child = it.child
        low = o_cw(child) if it.is_run else child.min_o()
        if cmp(low, threshold) >= 0:
            if low_min is None or cmp(low, low_min) < 0:
                low_min = low
            continue
        prefix = list(items[:i])
        if it.is_run:
            return prefix, list(items[i:]), low_min
        sub_prefix, suffix, sub_min = _split_below_oracle(child.items, threshold)
        if it.count > 1:
            suffix.append(Item(False, child, it.count - 1))
        suffix.extend(items[i + 1:])
        if sub_min is not None and (low_min is None or cmp(sub_min, low_min) < 0):
            low_min = sub_min
        return prefix + sub_prefix, suffix, low_min
    return list(items), None, low_min


def _same_split(got, want):
    # split items are rebuilt around shared children, which identity checks
    def ids(items):
        if items is None:
            return None
        return [(it.is_run, id(it.child), it.count) for it in items]

    return (ids(got[0]), ids(got[1]), got[2]) == (ids(want[0]), ids(want[1]), want[2])


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
    cw = CW((Item(True, low, 1),))
    cw._min_o = o_cw(low)
    for _ in range(5000):
        cw = CW((Item(True, high, 1), Item(False, cw, 2), Item(True, high, 1)))
        cw._min_o = o_cw(low)
    items = (Item(True, high, 3), Item(False, cw, 4))
    got = split_below(items, threshold)
    prefix, suffix, low_min = got
    assert len(prefix) == 5001 and low_min is o_cw(high)
    assert len(suffix) == 1 + 2 * 5000 + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        want = _split_below_oracle(items, threshold)
    finally:
        sys.setrecursionlimit(limit)
    assert _same_split(got, want)

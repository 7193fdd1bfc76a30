"""The run-length compressed step engine agrees with the plain one."""

import random

from bracketcalc import fs_bracket, o_star, parse_worm, print_worm
from bracketcalc._compact import (
    _ACTIVE_CAP,
    CompactRunner,
    from_bracket,
    o_cw,
    to_bracket,
)
from corpus import corpus

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

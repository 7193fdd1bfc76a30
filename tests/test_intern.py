"""Hash-consed terms: equal values are one object, and the table is weak."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import bracketcalc
from bracketcalc import (
    OMEGA,
    ONE,
    TOP_WORM,
    BracketWorm,
    Certificate,
    Sequent,
    add,
    certificate_from_json,
    certificate_to_json,
    iota,
    iota_worm,
    o_star,
    parse_formula,
    parse_ordinal,
    parse_worm,
    print_formula,
    prove_lt,
    tau,
    to_nf,
)
from bracketcalc import _intern


def _nested(depth):
    w = TOP_WORM
    for _ in range(depth):
        w = BracketWorm((w,))
    return w


def test_deep_worms_built_separately_are_one_object():
    a = _nested(5000)
    b = _nested(5000)
    assert a is b
    assert a == b and hash(a) == hash(b)


def test_equal_values_built_different_ways_are_identical():
    assert parse_worm("(())()") is parse_worm(" ( (T) ) ( ) ")
    assert parse_ordinal("w+1") is add(OMEGA, ONE)
    w = parse_worm("(())()")
    assert to_nf(w) is iota_worm(o_star(w)) is parse_worm("(())")
    f = parse_formula("(())p1&[()T&p2]")
    assert f is parse_formula(" ( ( ) ) p1 & [ ( ) & p2 ] ")
    assert parse_formula(print_formula(f)) is f
    assert tau(f) is tau(parse_formula(print_formula(f)))
    assert iota(tau(f)) is parse_formula("(())p1&[()&p2]")
    seq = Sequent(f, f)
    assert Certificate(seq, "AxId") is Certificate(seq, "AxId", [], None)
    a, b = parse_worm("((()))"), parse_worm("(())()")
    cert = prove_lt(a, b)
    assert prove_lt(a, b) is cert


def test_decoded_certificate_shares_the_provers_formulas():
    cert = prove_lt(parse_worm("((()))"), parse_worm("(())()"))
    decoded = certificate_from_json(certificate_to_json(cert))
    assert decoded is cert
    stack = [(cert, decoded)]
    while stack:
        mine, theirs = stack.pop()
        assert theirs.conclusion is mine.conclusion
        assert theirs.conclusion.lhs is mine.conclusion.lhs
        assert theirs.conclusion.rhs is mine.conclusion.rhs
        stack.extend(zip(mine.premises, theirs.premises))
        if mine.side is not None:
            stack.append((mine.side, theirs.side))
    assert decoded.conclusion is Sequent(cert.conclusion.lhs, cert.conclusion.rhs)


_LIVE_NODES_RUN = """
import gc
from bracketcalc import G_witness, TOP_WORM, BracketWorm, parse_worm, step_iter
from bracketcalc._intern import _TABLE

gc.collect()
before = len(_TABLE)
G_witness(2, 10**4)
step_iter(parse_worm("((()))"), 3000)
deep = TOP_WORM
for _ in range(200_000):
    deep = BracketWorm((deep,))
peak = len(_TABLE)
del deep
gc.collect()
print(before, peak, len(_TABLE))
"""


def test_table_holds_only_live_nodes():
    # a fresh interpreter: nodes that earlier tests' leftovers keep alive
    # could die during the run and mask a leak
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _LIVE_NODES_RUN],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    before, peak, after = map(int, proc.stdout.split())
    assert peak >= before + 199_990
    assert after == before


def test_dead_entry_does_not_drop_its_replacement():
    class Node:
        __slots__ = ("__weakref__",)

    key = ("test-key",)
    old = _intern.store(key, Node())
    new = _intern.store(key, Node())
    del old
    gc.collect()
    assert _intern.lookup(key) is new
    del new
    gc.collect()
    assert key not in _intern._TABLE


_PROVER_RUN = """
import gc, random, sys
sys.path.insert(0, sys.argv[1])
from bracketcalc import decide_lt, o_star, prove_lt
from bracketcalc._intern import _TABLE
from corpus import corpus

worms = corpus(6)
for w in worms:
    o_star(w)
gc.collect()
before = len(_TABLE)
rng = random.Random(7)
proved = 0
for _ in range(400):
    a, b = rng.choice(worms), rng.choice(worms)
    if decide_lt(a, b):
        prove_lt(a, b)
        proved += 1
gc.collect()
print(proved, before, len(_TABLE))
"""


def test_prover_keeps_no_certificate_after_a_call():
    # the prover's memo lasts for one call, so the formulas and worms of the
    # certificates it built leave the table once those are dropped; kept
    # across calls, 202 certificates held about 19 000 more entries
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _PROVER_RUN, str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    proved, before, after = map(int, proc.stdout.split())
    assert proved > 150
    assert after <= before + 20

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


def _in_child(source, *args):
    """What source prints when run in a fresh interpreter on this package."""
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_table_holds_only_live_nodes():
    # a fresh interpreter: nodes that earlier tests' leftovers keep alive
    # could die during the run and mask a leak
    before, peak, after = map(int, _in_child(_LIVE_NODES_RUN).split())
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
    out = _in_child(_PROVER_RUN, str(Path(__file__).resolve().parent))
    proved, before, after = map(int, out.split())
    assert proved > 150
    assert after <= before + 20


_COPY_RUN = """
import copy, pickle, resource
# a copy that rebuilt a node in place once ran away to 5.4 GB, or looped
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
from bracketcalc import Sequent, parse_ordinal, parse_worm, prove_lt, step_iter
from bracketcalc.ordinals import ZERO
from bracketcalc.syntax import TOP, TOP_WORM, Conj, Diamond, Var
from bracketcalc.worms import RDia

w = parse_worm("(())")
o = parse_ordinal("phi(0,1)")
nodes = (w, o, o.terms[0], TOP, Var(1), Conj(TOP, Var(1)), Diamond(w, TOP),
         RDia(o, TOP), Sequent(TOP, TOP), prove_lt(w, parse_worm("()")))
copies = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
for node in nodes:
    for twin in copies:
        assert twin(node) is node, type(node).__name__
trace = step_iter(w, 10, window=2)
for twin in copies:
    got = twin(trace)
    assert got == trace and got.start is w
    assert all(x is y for x, y in zip(got.head + got.tail, trace.head + trace.tail))
assert TOP_WORM.entries == () and ZERO.terms == ()
print(len({type(node) for node in nodes}))
"""


def test_copies_and_pickles_are_the_node_itself():
    # a copy rebuilt through the class's __new__ and then set the fields of
    # whatever node that gave, TOP_WORM or ZERO; a capped child keeps a
    # regression from taking the machine's memory or running on
    assert _in_child(_COPY_RUN).split() == ["10"]

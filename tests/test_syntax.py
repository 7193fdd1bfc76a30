"""Bracket syntax: parsing, printing, nesting, and the worm enumerator."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketcalc
from bracketcalc import (
    TOP,
    TOP_WORM,
    BracketWorm,
    Conj,
    Diamond,
    ParseError,
    Top,
    Var,
    nesting_formula,
    nesting_worm,
    parse_formula,
    parse_worm,
    print_formula,
    print_worm,
    step_iter,
)
from corpus import corpus, enumerate_worms, worms_with_pairs


def test_parse_worm_examples():
    assert parse_worm("T") == TOP_WORM
    one = BracketWorm((TOP_WORM,))
    assert parse_worm("(())") == BracketWorm((one,))
    assert parse_worm("()()") == BracketWorm((TOP_WORM, TOP_WORM))
    assert parse_worm("(T)") == BracketWorm((TOP_WORM,))
    assert parse_worm(" ( ( ) ) ") == BracketWorm((one,))


def test_parse_worm_errors():
    with pytest.raises(ParseError) as err:
        parse_worm("(()")
    assert err.value.offset == 3
    with pytest.raises(ParseError):
        parse_worm("")
    with pytest.raises(ParseError):
        parse_worm("x")
    with pytest.raises(ParseError):
        parse_worm("T(")
    with pytest.raises(ParseError):
        parse_worm("()x")


def test_parse_formula_examples():
    one = BracketWorm((TOP_WORM,))
    assert parse_formula("p1 & (())p2") == Conj(Var(1), Diamond(one, Var(2)))
    assert parse_formula("T") == TOP
    assert parse_formula("()T") == Diamond(TOP_WORM, TOP)
    assert parse_formula("(())") == Diamond(one, TOP)
    assert parse_formula("p1&p2&p3") == Conj(Conj(Var(1), Var(2)), Var(3))
    assert parse_formula("()[p1&p2]") == Diamond(TOP_WORM, Conj(Var(1), Var(2)))


def test_parse_formula_errors():
    with pytest.raises(ParseError):
        parse_formula("p0")
    with pytest.raises(ParseError):
        parse_formula("p")
    with pytest.raises(ParseError):
        parse_formula("p1 &")
    with pytest.raises(ParseError):
        parse_formula("[p1")


def test_print_examples():
    one = BracketWorm((TOP_WORM,))
    assert print_worm(TOP_WORM) == "T"
    assert print_worm(BracketWorm((TOP_WORM, TOP_WORM))) == "()()"
    assert print_formula(Diamond(one, TOP)) == "(())"
    assert print_formula(Conj(TOP, TOP)) == "T&T"
    assert print_formula(Diamond(one, Var(2))) == "(())p2"


def _nesting_oracle(x):
    # the recursive definition of both nesting measures
    if isinstance(x, BracketWorm):
        return max((_nesting_oracle(e) + 1 for e in x.entries), default=0)
    if isinstance(x, Conj):
        return max(_nesting_oracle(x.left), _nesting_oracle(x.right))
    if isinstance(x, Diamond):
        return max(_nesting_oracle(x.label) + 1, _nesting_oracle(x.body))
    return 0


_DOUBLING_RUN = """
from bracketcalc import TOP, TOP_WORM, BracketWorm, Conj, Diamond, nesting_formula, nesting_worm

w, f = TOP_WORM, TOP
for _ in range(64):
    w = BracketWorm((w, w))
    f = Conj(Diamond(w, f), Diamond(w, f))
print(nesting_worm(w), nesting_formula(f))
"""


def _doubling_nestings():
    # 64 levels that each repeat the level below: 64 distinct nodes of each
    # kind, and 2**64 paths through them, which a walk without a memo takes
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _DOUBLING_RUN],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


def _chain(depth):
    w = TOP_WORM
    for _ in range(depth):
        w = BracketWorm((w,))
    return w


def test_nesting_worm():
    assert nesting_worm(parse_worm("T")) == 0
    assert nesting_worm(parse_worm("(())")) == 2
    assert nesting_worm(parse_worm("()()")) == 1
    for w in enumerate_worms(5):
        assert nesting_worm(w) == _nesting_oracle(w)
    assert sys.getrecursionlimit() < 10000
    assert nesting_worm(_chain(10000)) == 10000
    assert _doubling_nestings()[0] == 64


def test_nesting_formula():
    assert nesting_formula(Var(1)) == 0
    assert nesting_formula(TOP) == 0
    assert nesting_formula(parse_formula("(())p1")) == 2
    assert nesting_formula(Conj(Diamond(TOP_WORM, TOP), Var(2))) == 1
    ws = list(enumerate_worms(5))
    for a in ws:
        for b in ws:
            f = Diamond(a, Conj(Diamond(b, TOP), Var(1)))
            assert nesting_formula(f) == _nesting_oracle(f)
    # 20 000 formula nodes deep, the outermost label 10 000 deep
    assert sys.getrecursionlimit() < 10000
    f, label = TOP, TOP_WORM
    for _ in range(10000):
        label = BracketWorm((label,))
        f = Conj(Var(1), Diamond(label, f))
    assert nesting_formula(f) == 10001
    assert _doubling_nestings()[1] == 65


# --- round trips ----------------------------------------------------------------


def test_worm_round_trip_exhaustive():
    # every worm with at most 6 bracket pairs (12 grammar symbols)
    for w in enumerate_worms(6):
        assert parse_worm(print_worm(w)) == w


def _formulas(worms, depth):
    if depth == 0:
        yield TOP
        yield Var(1)
        yield Var(2)
        return
    subs = list(_formulas(worms, depth - 1))
    yield from subs
    for w in worms:
        for f in subs:
            yield Diamond(w, f)
    for f in subs:
        for g in subs:
            yield Conj(f, g)


def test_formula_round_trip_small():
    worms = list(enumerate_worms(2))
    seen = 0
    for f in _formulas(worms, 2):
        assert parse_formula(print_formula(f)) == f
        seen += 1
        if seen > 4000:
            break


@st.composite
def random_formula(draw, depth=3):
    kind = draw(st.integers(0, 3 if depth else 1))
    if kind == 0:
        return TOP
    if kind == 1:
        return Var(draw(st.integers(1, 9)))
    if kind == 2:
        worms = list(enumerate_worms(3))
        w = worms[draw(st.integers(0, len(worms) - 1))]
        return Diamond(w, draw(random_formula(depth=depth - 1)))
    return Conj(
        draw(random_formula(depth=depth - 1)), draw(random_formula(depth=depth - 1))
    )


@given(random_formula())
@settings(max_examples=300, deadline=None)
def test_formula_round_trip_random(f):
    assert parse_formula(print_formula(f)) == f


# --- printing against the recursive printers ------------------------------------


def _entries_oracle(w):
    return "".join("(%s)" % _entries_oracle(e) for e in w.entries)


def _worm_oracle(w):
    return _entries_oracle(w) if w.entries else "T"


def _formula_oracle(f):
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Var):
        return "p%d" % f.index
    if isinstance(f, Conj):
        right = _formula_oracle(f.right)
        if isinstance(f.right, Conj):
            right = "[%s]" % right
        return "%s&%s" % (_formula_oracle(f.left), right)
    label = "(%s)" % _entries_oracle(f.label)
    if isinstance(f.body, Top):
        return label
    if isinstance(f.body, Conj):
        return "%s[%s]" % (label, _formula_oracle(f.body))
    return label + _formula_oracle(f.body)


def test_print_worm_matches_recursive_oracle():
    for w in corpus(7):
        assert print_worm(w) == _worm_oracle(w)
    # the step workload's worms: long windows of a few distinct entries
    traces = printed = 0
    for a in corpus(5):
        if not a.entries or nesting_worm(a) > 2:
            continue
        tr = step_iter(a, 6000)
        for w in tr.head + tr.tail:
            assert print_worm(w) == _worm_oracle(w), _worm_oracle(a)
            printed += 1
        traces += 1
    assert traces == 31 and printed > 900


def test_print_formula_matches_recursive_oracle():
    worms = list(enumerate_worms(3))
    for f in _formulas(worms, 2):
        assert print_formula(f) == _formula_oracle(f)


def _chain(depth, *siblings):
    w = TOP_WORM
    for _ in range(depth):
        w = BracketWorm((w,) + siblings)
    return w


def test_print_deep_worm():
    # far beyond the recursion limit, which the recursive printer hit
    w = _chain(200_000)
    text = print_worm(w)
    assert len(text) == 400_000
    assert text == "(" * 200_000 + ")" * 200_000
    formula = print_formula(Diamond(w, Var(1)))
    assert formula == "(" * 200_001 + ")" * 200_001 + "p1"


@pytest.mark.parametrize("siblings", [(), (TOP_WORM,)])
def test_print_memory_is_linear_in_the_output(siblings):
    # a printer that kept the text of every nested entry would hold
    # quadratic space on these chains: about 20 000**2 characters
    w = _chain(20_000, *siblings)
    tracemalloc.start()
    try:
        text = print_worm(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 20_000 * (2 + 2 * len(siblings))
    assert peak <= 16 * len(text)


# --- nesting subformula property ---------------------------------------------


def _worm_subformulas(w):
    yield w
    for e in w.entries:
        yield from _worm_subformulas(e)


def _all_worm_parts(f):
    if isinstance(f, (Top, Var)):
        return
    if isinstance(f, Conj):
        yield from _all_worm_parts(f.left)
        yield from _all_worm_parts(f.right)
        return
    yield from _worm_subformulas(f.label)
    yield from _all_worm_parts(f.body)


def test_nesting_subformula_property():
    worms = list(enumerate_worms(3))
    count = 0
    for f in _formulas(worms, 2):
        nt = nesting_formula(f)
        if nt >= 1:
            assert any(nesting_worm(a) + 1 == nt for a in _all_worm_parts(f)), (
                print_formula(f)
            )
        count += 1
        if count > 4000:
            break


# --- enumerator soundness -------------------------------------------------------


def _pairs(w):
    return sum(1 + _pairs(e) for e in w.entries)


def test_enumerator_soundness():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for k in range(6):
        ws = list(worms_with_pairs(k))
        assert len(ws) == catalan[k]
        assert len(set(ws)) == len(ws)
        assert all(_pairs(w) == k for w in ws)
    upto = list(enumerate_worms(5))
    assert len(upto) == sum(catalan[:6])
    assert len(set(upto)) == len(upto)

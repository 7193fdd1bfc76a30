"""The one scanner behind the worm, formula and ordinal parsers, against the
two per-character recursive-descent parsers it replaced."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketcalc import (
    TOP,
    TOP_WORM,
    BracketWorm,
    Conj,
    Diamond,
    ParseError,
    Var,
    add,
    nat,
    omega_pow,
    parse_formula,
    parse_ordinal,
    parse_worm,
    print_formula,
    veblen,
)
from bracketcalc.ordinals import OMEGA, OrdinalParseError

# --- the replaced parsers, kept as oracles ---------------------------------------


class OracleError(ValueError):
    def __init__(self, message, offset):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class OldParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, message):
        raise OracleError(message, self.pos)

    def parse_group(self):
        assert self.peek() == "("
        self.pos += 1
        if self.peek() == ")":
            self.pos += 1
            return TOP_WORM
        inner = self.parse_worm_body()
        if self.peek() != ")":
            self.fail("expected ')'")
        self.pos += 1
        return inner

    def parse_worm_body(self):
        c = self.peek()
        if c == "T":
            self.pos += 1
            return TOP_WORM
        if c != "(":
            self.fail("expected worm")
        entries = []
        while self.peek() == "(":
            entries.append(self.parse_group())
        return BracketWorm(tuple(entries))

    def parse_atom(self):
        c = self.peek()
        if c == "T":
            self.pos += 1
            return TOP
        if c == "p":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise OracleError("expected variable index", start)
            index = int(self.text[start:self.pos])
            if index < 1:
                raise OracleError("variable index must be positive", start)
            return Var(index)
        if c == "[":
            self.pos += 1
            inner = self.parse_formula_body()
            if self.peek() != "]":
                self.fail("expected ']'")
            self.pos += 1
            return inner
        if c == "(":
            label = self.parse_group()
            nxt = self.peek()
            if nxt in ("T", "p", "(", "["):
                body = self.parse_atom()
            else:
                body = TOP
            return Diamond(label, body)
        self.fail("expected formula")

    def parse_formula_body(self):
        val = self.parse_atom()
        while self.peek() == "&":
            self.pos += 1
            val = Conj(val, self.parse_atom())
        return val


def old_parse_worm(text):
    p = OldParser(text)
    w = p.parse_worm_body()
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return w


def old_parse_formula(text):
    p = OldParser(text)
    f = p.parse_formula_body()
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing input")
    return f


class OldOrdParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise OracleError("expected %r" % ch, self.pos)
        self.pos += 1

    def parse_nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise OracleError("expected digit", start)
        return int(self.text[start:self.pos])

    def parse_term(self):
        c = self.peek()
        if c.isdigit():
            return nat(self.parse_nat())
        if c == "w":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return omega_pow(self.parse_term())
            return OMEGA
        if c == "p":
            start = self.pos
            if self.text[self.pos:self.pos + 4] != "phi(":
                raise OracleError("expected 'phi('", start)
            self.pos += 4
            a = self.parse_sum()
            self.expect(",")
            b = self.parse_sum()
            self.expect(")")
            return veblen(a, b)
        raise OracleError("expected ordinal term", self.pos)

    def parse_sum(self):
        val = self.parse_term()
        while self.peek() == "+":
            self.pos += 1
            val = add(val, self.parse_term())
        return val


def old_parse_ordinal(text):
    p = OldOrdParser(text)
    val = p.parse_sum()
    p.skip_ws()
    if p.pos != len(text):
        raise OracleError("trailing input", p.pos)
    return val


# --- parity -----------------------------------------------------------------------

_PAIRS = (
    (parse_worm, old_parse_worm),
    (parse_formula, old_parse_formula),
    (parse_ordinal, old_parse_ordinal),
)
_SPACES = " \t\n\x1c\xa0\u3000"
_DIGITS = "0123456789\u0661\u0662\u00b2\u00b9"  # Arabic-Indic 1 2 are decimal, ² ¹ not
# capitals stand for tokens, so that random text often parses a while
_TOKENS = str.maketrans({"F": "phi(", "P": "p1", "W": "w^", "E": "()", "Z": "0,"})
# label groups of at least 4 characters, with space inside and around, some
# sharing their first 4, one nested deeper than the group pattern the
# formula parser matches in one go; repeated within one text among atoms
# and malformed tails, so that labels met again come from the parser's
# table, or are parsed again when spaced out or nested that deep
_LABELS = (
    "(())", "( ())", "(() )", "(()())", "(()(()))", "((\t)())", " (((()))) ",
    "(" * 17 + "()" + ")" * 17,
)
_AFTER = ("T", "p1", "&", "[", "]", " ", "\n", "p", "p0", "x", ")", "(()", "((()")


def _tokens(alphabet):
    return st.text(alphabet=alphabet, max_size=24).map(lambda t: t.translate(_TOKENS))


_text = st.one_of(
    _tokens("(((())))TE[" + _SPACES),
    _tokens("(())[]&&TpPPE" + _DIGITS + _SPACES),
    _tokens("ww^^++,FFZW()phi" + _DIGITS + _SPACES),
    st.lists(st.sampled_from(_LABELS * 3 + _AFTER), max_size=12).map("".join),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, OracleError) as err:
        return str(err), err.offset


@given(_text)
# a quarter of the examples are label texts; the other three strategies
# keep about the 6 700 examples each that they had alone
@settings(max_examples=26000, deadline=None)
def test_parsers_match_the_replaced_parsers(text):
    for parse, oracle in _PAIRS:
        try:
            expect = _outcome(oracle, text)
        except ValueError:
            # a digit run int() rejects (²): the oracle crashed, see
            # test_digits_int_rejects_are_parse_errors
            continue
        got = _outcome(parse, text)
        # interned values: the same object
        assert got is expect or (type(got) is tuple and got == expect), (parse, text)


def test_ordinal_parse_error_is_parse_error():
    assert OrdinalParseError is ParseError


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_formula, "p²", "expected variable index at offset 1"),
        (parse_formula, "p1²", "trailing input at offset 2"),
        (parse_formula, "p" + "9" * 5000, "number too long at offset 1"),
        (parse_ordinal, "²", "expected ordinal term at offset 0"),
        (parse_ordinal, "w^²", "expected ordinal term at offset 2"),
        (parse_ordinal, "phi(0,²)", "expected ordinal term at offset 6"),
        (parse_ordinal, " " + "9" * 5000, "number too long at offset 1"),
    ],
)
def test_digits_int_rejects_are_parse_errors(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_unicode_decimals_still_read():
    assert parse_formula("p١٢") is Var(12)
    assert parse_ordinal("٣") is nat(3)


def test_adjacency_rules_kept():
    with pytest.raises(ParseError, match="expected variable index at offset 1"):
        parse_formula("p 1")
    with pytest.raises(ParseError, match="expected 'phi\\(' at offset 0"):
        parse_ordinal("phi (0,0)")
    assert parse_ordinal("w ^ 2") is omega_pow(nat(2))


_DEEP = 100_000


def test_deep_worm_parses_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 10_000
    w = parse_worm("(" * _DEEP + ")" * _DEEP)
    depth = 0
    while w.entries:
        (w,) = w.entries
        depth += 1
    assert depth == _DEEP


def test_distinct_labels_sharing_a_prefix_parse_in_linear_time():
    # 20 000 distinct labels that share their first characters: each new
    # one costs a lookup by its whole text and one parse, never a search
    labels = (
        "(((((" + "".join("(())" if i >> k & 1 else "()" for k in range(15)) + ")))))"
        for i in range(20_000)
    )
    text = "&".join(labels)
    start = time.perf_counter()
    f = parse_formula(text)
    assert time.perf_counter() - start <= 4.0
    same = print_formula(f) == text
    assert same


def test_deep_formula_parses_at_the_default_recursion_limit():
    text = "[" * _DEEP + "p1" + "]" * _DEEP
    assert parse_formula(text) is Var(1)
    chain = "()" * _DEEP + "p1"
    f = parse_formula(chain)
    assert print_formula(f) == chain
    nested = "(" * _DEEP + ")" * _DEEP + "[p1&p2]"
    assert print_formula(parse_formula(nested)) == nested

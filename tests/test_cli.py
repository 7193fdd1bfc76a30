"""Command line behavior: outputs, exit codes, and determinism."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketcalc
from bracketcalc import (
    Certificate,
    Sequent,
    certificate_from_json,
    certificate_to_json,
    parse_worm,
    prove_lt,
)
from bracketcalc.syntax import TOP
from bracketcalc import cli
from bracketcalc.cli import main
from certfuzz import garbage as _garbage, mutate


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fmt(capsys):
    code, out, _ = invoke(capsys, "fmt", "( ( ) )")
    assert code == 0 and out == "(())\n"
    code, out, _ = invoke(capsys, "fmt", "T&T")
    assert code == 0 and out == "T&T\n"
    code, _, err = invoke(capsys, "fmt", "((")
    assert code == 2 and "offset" in err


def test_ord(capsys):
    for text, expect in [("()", "1"), ("(())", "phi(0,1)"), ("((()))", "phi(1,0)")]:
        code, out, _ = invoke(capsys, "ord", text)
        assert code == 0 and out.strip() == expect
    code, out, _ = invoke(capsys, "--json", "ord", "(())")
    assert code == 0 and json.loads(out) == {"ordinal": "phi(0,1)"}


def test_cmp(capsys):
    assert invoke(capsys, "cmp", "()", "(())")[:2] == (0, "LT\n")
    assert invoke(capsys, "cmp", "()()", "()()")[:2] == (0, "EQ\n")
    assert invoke(capsys, "cmp", "(())", "T")[:2] == (0, "GT\n")


def test_nf(capsys):
    code, out, _ = invoke(capsys, "nf", "(())()")
    assert code == 0 and out == "(())\n"
    code, out, _ = invoke(capsys, "nf", "()()")
    assert code == 0 and out == "()()\n"


def test_prove_and_check(capsys, tmp_path):
    code, out, _ = invoke(capsys, "prove", "lt", "(())", "()")
    assert code == 0
    cert = json.loads(out)
    assert cert["conclusion"] == {"lhs": "(())", "rhs": "()()"}
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out2, _ = invoke(capsys, "check", str(path))
    assert code == 0 and out2 == "VALID\n"
    # tamper with the rule tag
    cert["rule"] = "AxId"
    path.write_text(json.dumps(cert))
    code, out3, _ = invoke(capsys, "check", str(path))
    assert code == 1 and out3.startswith("INVALID")
    # not provable
    code, _, err = invoke(capsys, "prove", "lt", "T", "()")
    assert code == 1 and "not provable" in err


def test_check_stdin(capsys, monkeypatch, tmp_path):
    import io

    code, out, _ = invoke(capsys, "prove", "le", "()", "T")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2, _ = invoke(capsys, "check", "-")
    assert code == 0 and out2 == "VALID\n"


def test_step(capsys):
    code, out, _ = invoke(capsys, "--json", "step", "(())", "--budget", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["terminated"] is True
    assert obj["steps_used"] == 3
    assert obj["head"] == ["(())", "()()", "()", "T"]
    code, out, _ = invoke(capsys, "step", "((()))", "--budget", "5")
    assert code == 3 and "budget exhausted" in out


def test_fs(capsys):
    code, out, _ = invoke(capsys, "fs", "phi(0,1)", "1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = invoke(capsys, "fs", "phi(1,0)", "1")
    assert code == 0 and out.strip() == "phi(0,1)"
    code, _, err = invoke(capsys, "fs", "junk", "1")
    assert code == 2


def test_growth(capsys):
    code, out, _ = invoke(capsys, "growth", "F", "1", "--budget", "10")
    assert code == 0 and out == "Found 1\n"
    code, out, _ = invoke(capsys, "growth", "G", "0", "--budget", "10")
    assert code == 0 and out == "Found 0\n"
    code, out, _ = invoke(capsys, "growth", "G", "2", "--budget", "200")
    assert code == 3 and out == "BudgetExhausted 200\n"


def test_determinism(capsys):
    a = invoke(capsys, "prove", "lt", "((()))", "(())()")
    b = invoke(capsys, "prove", "lt", "((()))", "(())()")
    assert a == b


def test_installed_entry_point():
    # the checkout under test, not whatever copy the interpreter would find
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bracketcalc.cli", "ord", "((()))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "phi(1,0)"


@pytest.mark.parametrize(
    "argv",
    [
        ("step", "()", "--budget", "-1"),
        ("step", "()", "--window", "-1"),
        ("step", "()", "--budget", "x"),
        ("fs", "phi(0,1)", "-3"),
        ("growth", "G", "-1"),
        ("growth", "F", "1", "--budget", "-1"),
    ],
)
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text", ["[]", '"x"', '{"premises": [1]}', '{"side": [1], "premises": []}']
)
def test_check_rejects_nodes_that_are_not_objects(capsys, monkeypatch, text):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = invoke(capsys, "check", "-")
    assert code == 2 and out == "" and err.startswith("error: malformed certificate")


_AXIOM = {"rule": "AxId", "conclusion": {"lhs": "()", "rhs": "()"}}


@pytest.mark.parametrize(
    "links",
    [
        {"side": 0},
        {"side": False},
        {"side": ""},
        {"side": []},
        {"side": {}},
        {"side": True},
        {"premises": 0},
        {"premises": {}},
        {"premises": "()"},
    ],
)
def test_check_rejects_non_object_side_and_non_list_premises(capsys, monkeypatch, links):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(dict(_AXIOM, **links))))
    code, out, err = invoke(capsys, "check", "-")
    assert code == 2 and out == "" and err.startswith("error: malformed certificate")


@pytest.mark.parametrize("links", [{}, {"side": None, "premises": None}])
def test_check_reads_missing_or_null_links_as_none(capsys, monkeypatch, links):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(dict(_AXIOM, **links))))
    assert invoke(capsys, "check", "-")[:2] == (0, "VALID\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("ord", "(" * 400 + ")" * 400),
        # parses, then o_star recurses once per level
        ("nf", "(" * 400 + ")" * 400),
        # the third step folds an order type once per nesting level
        ("growth", "G", "600", "--budget", "3"),
        # nests 3 deep, but lift_cert lifts a formula once per diamond,
        # by recursion
        ("prove", "le", "((()))" + "(())" * 1500, "((()))"),
        # mul_nat's term tuple overflows a C index, or cannot be allocated;
        # smaller indices than these allocate before they fail
        ("fs", "phi(0,w+1)", str(10**20)),
        ("fs", "phi(0,w+1)", str(10**18)),
    ],
)
def test_implementation_limits_exit_4(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: limit exceeded") and "Traceback" not in err


@pytest.mark.parametrize("worm", ["(()())", "((()))()", "(()()())"])
@pytest.mark.parametrize("budget", [40, 300, 5000])
def test_step_window_beyond_the_budget_keeps_every_step(capsys, worm, budget):
    # a window of at least the budget already records every step, so a
    # window too large for a deque's maxlen prints what the budget prints
    for flags in ((), ("--json",)):
        argv = (*flags, "step", worm, "--budget", str(budget), "--window")
        assert invoke(capsys, *argv, str(10**20)) == invoke(
            capsys, *argv, str(budget)
        )


def _cut_chain(depth):
    """RCut T |- T over (the chain one shorter, AxId T |- T)."""
    axiom = Certificate(Sequent(TOP, TOP), "AxId")
    cert = axiom
    for _ in range(depth):
        cert = Certificate(Sequent(TOP, TOP), "RCut", (cert, axiom))
    return cert


def test_check_reads_deep_certificates_at_the_default_recursion_limit(
    capsys, monkeypatch
):
    # json's scanner recurses once per object and per array; the v1 reader
    # does not
    assert sys.getrecursionlimit() <= 1000
    cert = _cut_chain(20_000)
    text = certificate_to_json(cert)
    start = time.perf_counter()
    assert certificate_from_json(text) is cert
    # comparing each repeat as one whole-span slice took seconds here
    assert time.perf_counter() - start <= 2.0
    # the same value outside the v1 layout is read by json's scanner
    compact = text.replace(", ", ",").replace(": ", ":")
    small = certificate_to_json(_cut_chain(2))
    assert small.replace(", ", ",").replace(": ", ":") == json.dumps(
        json.loads(small), separators=(",", ":")
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(compact))
    code, out, err = invoke(capsys, "check", "-")
    assert code == 4 and out == ""
    assert err.startswith("error: limit exceeded") and "Traceback" not in err
    # check_derivation joins a path only for a failing node, so it keeps
    # constant space per pending node: both depths check in linear time
    for depth in (1000, 20_000):
        text = certificate_to_json(_cut_chain(depth)) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        start = time.perf_counter()
        assert invoke(capsys, "check", "-") == (0, "VALID\n", "")
        assert time.perf_counter() - start <= 2.0


def test_fmt_prints_long_conjunctions(capsys):
    # the formula printer is iterative; the parser reads `&` in a loop
    conj = "&".join(["p1"] * 3000)
    assert invoke(capsys, "fmt", conj) == (0, conj + "\n", "")


def test_fmt_prints_deep_brackets(capsys):
    # the formula parser follows any nesting in a loop
    assert invoke(capsys, "fmt", "[" * 3000 + "p1" + "]" * 3000) == (0, "p1\n", "")
    deep = "(" * 100_000 + ")" * 100_000 + "p1"
    assert invoke(capsys, "fmt", deep) == (0, deep + "\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fmt", "p\u00b2"), "expected variable index at offset 1"),
        (("fs", "\u00b2", "1"), "expected ordinal term at offset 0"),
        (("fs", "w^\u00b2", "1"), "expected ordinal term at offset 2"),
        (("fs", "phi(0,\u00b2)", "1"), "expected ordinal term at offset 6"),
        (("fmt", "p" + "9" * 5000), "number too long at offset 1"),
        (("fs", "9" * 5000, "0"), "number too long at offset 0"),
    ],
)
def test_digits_int_rejects_are_parse_errors(capsys, argv, message):
    # str.isdigit accepts superscripts that int() rejects, and int() rejects
    # runs of more than 4300 digits
    assert invoke(capsys, *argv) == (2, "", "error: %s\n" % message)


def test_growth_budget_below_the_limit_still_exhausts(capsys):
    assert invoke(capsys, "growth", "F", "3", "--budget", "40")[:2] == (
        3,
        "BudgetExhausted 40\n",
    )


def test_growth_from_a_nested_start_exhausts_its_budget(capsys):
    # G 3's descent folds zero-free repeated subsequences of every count
    assert invoke(capsys, "growth", "G", "3", "--budget", "40")[:2] == (
        3,
        "BudgetExhausted 40\n",
    )


def test_deep_growth_start_builds_without_recursion(capsys):
    # a(3000) nests 4500 levels deep.  The second step steps its head, which
    # walks the chain of leading entries with an explicit stack
    assert sys.getrecursionlimit() <= 1000
    for budget in ("1", "2"):
        assert invoke(capsys, "growth", "G", "3000", "--budget", budget)[:2] == (
            3,
            "BudgetExhausted %s\n" % budget,
        )


def test_check_unreadable_file(capsys, tmp_path):
    binary = tmp_path / "cert.bin"
    binary.write_bytes(b"\xff\xfe")
    for path in (tmp_path / "missing.json", tmp_path, binary):
        code, out, err = invoke(capsys, "check", str(path))
        assert code == 2 and out == "" and err.startswith("error: "), path


def test_cli_import_leaves_compact_engine_unloaded():
    # start-up time: the compressed engine is imported on first use only
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, bracketcalc.cli; print('bracketcalc._compact' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_dataclasses():
    # start-up time: dataclasses pulls in inspect, ast, dis and tokenize
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, bracketcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("step", "(()())(())", "--budget", "6000"),
        ("prove", "lt", "(((((())))))", "((((()()))))"),
    ],
)
def test_closed_stdout_exits_quietly(argv):
    # a reader that stops after one byte, as `| head -c 1` does; each output
    # is far larger than a pipe buffer, so the writer must meet the closed end
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bracketcalc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(1) in (b"(", b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err and b"Exception ignored" not in err, err
    assert proc.returncode == cli.EXIT_PIPE == 141


_PARSER_SEQUENCE = (
    ("--json", "step", "(()())", "--budget", "40", "--window", "4"),
    ("step", "((()))", "--budget", "30", "--window", "3"),
    ("step", "()", "--budget", "-1"),
    ("growth", "G", "2", "--budget", "50"),
    ("nosuchcommand",),
    ("--json", "growth", "F", "2"),
)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    from bracketcalc import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_outcome(capsys, argv) for argv in _PARSER_SEQUENCE]
    assert len(built) == 1
    fresh = []
    for argv in _PARSER_SEQUENCE:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_outcome(capsys, argv))
    assert len(built) == 1 + len(_PARSER_SEQUENCE)
    assert reused == fresh
    assert [r[0] for r in reused] == [3, 3, 2, 3, 2, 0]
    assert "usage: bracketcalc" in reused[2][2] and "must be >= 0" in reused[2][2]


def test_cli_import_builds_no_parser():
    src = str(Path(bracketcalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import bracketcalc.cli as c; print(c._PARSER is None)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# --- fuzzing: every input reaches a documented exit code ----------------------

_EXIT_CODES = {0, 1, 2, 3, 4}


def _run(argv, stdin=None):
    """main's exit code and stderr, with argparse usage errors as exit codes."""
    import contextlib
    import io

    err = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, err.getvalue()


_worm_text = st.recursive(
    st.just(""),
    lambda inner: st.lists(inner, max_size=3).map(
        lambda parts: "".join("(%s)" % p for p in parts)
    ),
    max_leaves=5,
).map(lambda text: text or "T")
_formula_text = st.recursive(
    st.sampled_from(["T", "p1", "p2", "()", "(())"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("&".join),
        st.tuples(_worm_text, inner).map(lambda lw: "(%s)[%s]" % lw),
    ),
    max_leaves=6,
)
_ordinal_text = st.recursive(
    st.sampled_from(["0", "1", "7", "w"]),
    lambda inner: st.one_of(
        inner.map("w^{}".format),
        st.tuples(inner, inner).map("+".join),
        st.tuples(inner, inner).map(lambda ab: "phi(%s,%s)" % ab),
    ),
    max_leaves=6,
)
_deep = st.integers(200, 1500)
_small = st.integers(0, 40).map(str)
_argv = st.one_of(
    st.tuples(st.just("fmt"), st.one_of(_formula_text, _garbage)),
    st.tuples(st.sampled_from(["ord", "nf"]), st.one_of(_worm_text, _garbage)),
    st.tuples(st.just("cmp"), _worm_text, st.one_of(_worm_text, _garbage)),
    st.tuples(
        st.just("prove"), st.sampled_from(["lt", "le"]), _worm_text, _worm_text
    ),
    st.tuples(
        st.just("step"), st.one_of(_worm_text, _garbage), st.just("--budget"), _small
    ),
    st.tuples(st.just("fs"), st.one_of(_ordinal_text, _garbage), _small),
    st.one_of(
        st.tuples(
            st.sampled_from(["F 0", "F 1", "F 2", "F 3", "G 0", "G 1", "G 2"]),
            st.integers(0, 60),
        ),
        st.tuples(st.just("G 3"), st.integers(0, 40)),
    ).map(lambda fm: ("growth", *fm[0].split(), "--budget", str(fm[1]))),
    st.tuples(
        st.sampled_from(["ord", "nf", "fmt"]), _deep.map(lambda n: "(" * n + ")" * n)
    ),
    st.tuples(st.just("fmt"), _deep.map(lambda n: "&".join(["p1"] * n))),
    st.tuples(st.just("fs"), _deep.map(lambda n: "w^" * n + "1"), _small),
    st.lists(_garbage, max_size=4),
)


@given(_argv, st.booleans())
@settings(max_examples=150, deadline=None)
def test_fuzz_exit_codes(argv, as_json):
    argv = (["--json"] if as_json else []) + list(argv)
    code, err = _run(argv)
    assert code in _EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err


_CERT = certificate_to_json(prove_lt(parse_worm("((()))"), parse_worm("(())")))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzz_check_on_mutated_certificates(data):
    text = mutate(data, _CERT)
    code, err = _run(["check", "-"], stdin=text)
    assert code in _EXIT_CODES, (text, code, err)
    assert "Traceback" not in err

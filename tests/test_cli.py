"""Command line behavior: outputs, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bracketcalc
from bracketcalc.cli import main


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
    proc = subprocess.run(
        [sys.executable, "-m", "bracketcalc.cli", "ord", "((()))"],
        capture_output=True,
        text=True,
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

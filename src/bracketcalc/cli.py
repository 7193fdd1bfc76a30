"""Command line front end.

Commands: fmt, ord, cmp, nf, prove, check, step, fs, growth.
Exit codes: 0 success / true / terminated, 1 false / invalid / not provable,
2 parse error or unreadable input, 3 budget exhausted, 4 an implementation
limit exceeded (nesting too deep for the code that still recurses once per
level: o_star, to_nf, the ordinal parser, print_ordinal and the compressed
engine's order-type fold (o_cw, _fold_items, _fold_item); a worm too long
for the prover, which recurses by length in lift_cert, once per diamond of
a lifted formula and once per level of the certificate, and in STD, DTS and
EQw, once per zero entry; or an ordinal too large to build, such as fs of
omega**(w+1) at an index of 10**18 or more, whose term tuple overflows or
cannot be allocated).  Worms and formulas parse and print, and certificates
encode and decode, at any depth; only a certificate outside the v1 layout
is still read by json's scanner, which recurses.  141 (128 + SIGPIPE, what a
shell reports for a process that signal ends): stdout was closed before the
output was written, as when piped into `head`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .calculus import (
    NotProvable,
    certificate_from_json,
    certificate_to_json,
    check_derivation,
)
from .fundseq import F_witness, Found, G_witness, fs_veblen, step_iter
from .ordinals import cmp, parse_ordinal, print_ordinal
from .proving import prove_le, prove_lt
from .syntax import ParseError, parse_formula, parse_worm, print_formula, print_worm
from .worms import o_star, to_nf

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_LIMIT = 4
EXIT_PIPE = 141


def _parse_error(err) -> int:
    print("error: %s" % err, file=sys.stderr)
    return EXIT_PARSE


def cmd_fmt(args) -> int:
    out = print_formula(parse_formula(args.text))
    print(json.dumps({"formula": out}) if args.json else out)
    return EXIT_OK


def cmd_ord(args) -> int:
    out = print_ordinal(o_star(parse_worm(args.worm)))
    print(json.dumps({"ordinal": out}) if args.json else out)
    return EXIT_OK


def cmd_cmp(args) -> int:
    a = parse_worm(args.a)
    b = parse_worm(args.b)
    c = cmp(o_star(a), o_star(b))
    out = {-1: "LT", 0: "EQ", 1: "GT"}[c]
    print(json.dumps({"order": out}) if args.json else out)
    return EXIT_OK


def cmd_nf(args) -> int:
    out = print_worm(to_nf(parse_worm(args.worm)))
    print(json.dumps({"nf": out}) if args.json else out)
    return EXIT_OK


def cmd_prove(args) -> int:
    a = parse_worm(args.a)
    b = parse_worm(args.b)
    try:
        cert = prove_lt(a, b) if args.mode == "lt" else prove_le(a, b)
    except NotProvable as err:
        print("not provable: %s" % err, file=sys.stderr)
        return EXIT_FALSE
    print(certificate_to_json(cert))
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        if args.certificate == "-":
            text = sys.stdin.read()
        else:
            with open(args.certificate, "r", encoding="ascii") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        return _parse_error(err)
    try:
        cert = certificate_from_json(text)
    except (ValueError, KeyError, TypeError) as err:
        print("error: malformed certificate: %s" % err, file=sys.stderr)
        return EXIT_PARSE
    result = check_derivation(cert)
    if result.valid:
        print("VALID")
        return EXIT_OK
    print("INVALID %s %s" % (result.path, result.reason))
    return EXIT_FALSE


def cmd_step(args) -> int:
    w = parse_worm(args.worm)
    trace = step_iter(w, args.budget, window=args.window)
    if args.json:
        print(trace.to_json())
    else:
        shown = [print_worm(x) for x in trace.head]
        if not trace.complete:
            shown.append("...")
            shown.extend(print_worm(x) for x in trace.tail)
        print("\n".join(shown))
        print(
            "%s after %d steps (budget %d)"
            % (
                "terminated" if trace.terminated else "budget exhausted",
                trace.steps_used,
                trace.budget,
            )
        )
    return EXIT_OK if trace.terminated else EXIT_BUDGET


def cmd_fs(args) -> int:
    out = print_ordinal(fs_veblen(parse_ordinal(args.ordinal), args.x))
    print(json.dumps({"ordinal": out}) if args.json else out)
    return EXIT_OK


def cmd_growth(args) -> int:
    fn = F_witness if args.function == "F" else G_witness
    result = fn(args.m, args.budget)
    if isinstance(result, Found):
        print(
            json.dumps({"found": result.steps})
            if args.json
            else "Found %d" % result.steps
        )
        return EXIT_OK
    print(
        json.dumps({"budget_exhausted": result.steps})
        if args.json
        else "BudgetExhausted %d" % result.steps
    )
    return EXIT_BUDGET


def _count(text: str) -> int:
    """argparse type of budgets, windows and indices: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0: %r" % text)
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bracketcalc",
        description="Bracket worm notation: parse, compare, normalize, "
        "prove, check, and step down.",
    )
    p.add_argument("--json", action="store_true", help="machine readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fmt", help="canonicalize a formula or worm")
    sp.add_argument("text")
    sp.set_defaults(func=cmd_fmt)

    sp = sub.add_parser("ord", help="order type of a worm")
    sp.add_argument("worm")
    sp.set_defaults(func=cmd_ord)

    sp = sub.add_parser("cmp", help="compare two worms")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_cmp)

    sp = sub.add_parser("nf", help="canonical normal form of a worm")
    sp.add_argument("worm")
    sp.set_defaults(func=cmd_nf)

    sp = sub.add_parser("prove", help="derivation certificate for an ordering")
    sp.add_argument("mode", choices=("lt", "le"))
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("check", help="check a certificate (file or - for stdin)")
    sp.add_argument("certificate")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("step", help="iterate the bracket fundamental sequence")
    sp.add_argument("worm")
    sp.add_argument("--budget", type=_count, default=10000)
    sp.add_argument("--window", type=_count, default=64)
    sp.set_defaults(func=cmd_step)

    sp = sub.add_parser("fs", help="one fundamental-sequence step of an ordinal")
    sp.add_argument("ordinal")
    sp.add_argument("x", type=_count)
    sp.set_defaults(func=cmd_fs)

    sp = sub.add_parser("growth", help="step-down witness counts")
    sp.add_argument("function", choices=("F", "G"))
    sp.add_argument("m", type=_count)
    sp.add_argument("--budget", type=_count, default=10000)
    sp.set_defaults(func=cmd_growth)

    return p


_PARSER = None  # built by the first main call, so importing stays cheap


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left to write, and the flush at
        # shutdown, go to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ParseError as err:
        return _parse_error(err)
    except (RuntimeError, OverflowError, MemoryError) as err:
        # RecursionError, the prover's exhausted fundamental sequence search,
        # and ordinals too large to build
        print(
            "error: limit exceeded: %s" % (str(err) or type(err).__name__),
            file=sys.stderr,
        )
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: seeded command lists and their output checks.

Every workload is a fixed list of `bracketcalc` command lines for a given
seed.  Inputs are generated here from plain strings, without calling the
program, so building a list warms no memo inside `bracketcalc`.  Outputs
are checked against references that do not come from the timed code path:
golden files recorded at the seed commit (growth, step) and the
requested sequent of each certificate (certify).
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("growth", "step", "certify")

# growth: a long G_2 descent through the compact engine, run twice per pass
# so that a run has several samples of it; the descent shares no memo with
# the next one, so each repeat does the same work
GROWTH_BUDGET = 100_000
GROWTH_REPEATS = 2
# step: plain-phase + runner stepping of shallow worms, each worm in three
# output forms; besides covering them, this puts a cluster of similar
# budget-bound commands at the latency tail's rank
STEP_MAX_PAIRS = 5
STEP_BUDGET = 6_000
STEP_FORMS = (((), ()), (("--json",), ()), ((), ("--window", "8")))
# certify: one prove->check round trip per drawn pair, plus the nested chains
CERTIFY_MAX_PAIRS = 6
CERTIFY_MAX_DEPTH = 3
CERTIFY_PAIRS = 200
CERTIFY_CHAINS = (
    ("lt", "((((()))))", "(((()())))"),
    ("le", "((((()))))", "(((()())))"),
    ("lt", "(((((())))))", "((((()()))))"),
    ("le", "(((((())))))", "((((()()))))"),
)
# the depth-6 chain runs again at the end of a pass: with it, a three-pass
# run has 12 depth-6 round trips, so the latency tail (the 11th slowest)
# falls among these ~1.7 s commands instead of on one of six ~0.3 s
# depth-5 ones, which a short stall moved by up to 40 %
CERTIFY_REPEATS = CERTIFY_CHAINS[2:]

# untimed robustness probes: (argv, what the seed commit does with it)
PROBES = (
    (("growth", "F", "3", "--budget", "48"), "RecursionError in fs_veblen"),
    (("ord", "(" * 400 + ")" * 400), "RecursionError in o_star"),
)


# --- bracket worms as strings ---------------------------------------------------


@lru_cache(maxsize=None)
def worms_with_pairs(n: int) -> tuple:
    """Canonical text of every worm with exactly n bracket pairs ("" is top)."""
    if n == 0:
        return ("",)
    out = []
    for j in range(n):
        for inner in worms_with_pairs(j):
            for rest in worms_with_pairs(n - 1 - j):
                out.append("(" + inner + ")" + rest)
    return tuple(out)


def corpus(max_pairs: int) -> list:
    """Printed worms with at most max_pairs pairs; top prints as "T"."""
    return [w or "T" for n in range(max_pairs + 1) for w in worms_with_pairs(n)]


def depth(w: str) -> int:
    best = cur = 0
    for ch in w:
        if ch == "(":
            cur += 1
            best = max(best, cur)
        elif ch == ")":
            cur -= 1
    return best


# --- command lists ---------------------------------------------------------------


def growth_commands(seed: int) -> list:
    # one descent, repeated; the seed has nothing to vary
    return [["growth", "G", "2", "--budget", str(GROWTH_BUDGET)] for _ in range(GROWTH_REPEATS)]


def step_commands(seed: int) -> list:
    cmds = [
        [*pre, "step", w, "--budget", str(STEP_BUDGET), *post]
        for w in corpus(STEP_MAX_PAIRS)
        if w != "T" and depth(w) <= 2
        for pre, post in STEP_FORMS
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


@lru_cache(maxsize=None)
def order_ranks() -> dict:
    """Rank of each corpus worm by order type (equal types share a rank),
    recorded at the seed commit by record_golden.py."""
    with open(GOLDEN_DIR / "order6.json", encoding="ascii") as fh:
        return json.load(fh)["rank"]


@lru_cache(maxsize=None)
def certify_population() -> tuple:
    """Every (a, b) from the corpus with b at or below a, a not top and of
    nesting depth at most CERTIFY_MAX_DEPTH, in a fixed order."""
    rank = order_ranks()
    ws = corpus(CERTIFY_MAX_PAIRS)
    return tuple(
        (a, b)
        for a in ws
        if a != "T" and depth(a) <= CERTIFY_MAX_DEPTH
        for b in ws
        if rank[b] <= rank[a]
    )


@lru_cache(maxsize=None)
def certify_strata() -> tuple:
    """The population sorted by the size of its `prove le` certificate,
    recorded at the seed commit; proof and check time follow that size."""
    with open(GOLDEN_DIR / "certify_sizes.json", encoding="ascii") as fh:
        sizes = json.load(fh)["bytes"]
    pop = certify_population()
    if len(sizes) != len(pop):
        raise ValueError("certify_sizes.json does not match the population")
    return tuple(p for _, p in sorted(zip(sizes, pop)))


def certify_commands(seed: int) -> list:
    """(mode, a, b) triples: one pair drawn from each of CERTIFY_PAIRS equal
    strata of the population sorted by certificate size, so every seed
    draws the same size profile, shuffled, between the nested chains and
    CERTIFY_REPEATS.

    The chains' points do not depend on the seed: their round trips are
    the latency tail and their certificates set the pass's peak memory,
    and both depended on the seed while the shuffle put the chains where
    a varying set of drawn pairs had warmed the memo dicts."""
    rng = random.Random(seed)
    rank = order_ranks()
    pop = certify_strata()
    n = CERTIFY_PAIRS
    out = []
    for i in range(n):
        a, b = pop[rng.randrange(i * len(pop) // n, (i + 1) * len(pop) // n)]
        strict = rank[b] < rank[a]
        out.append(("lt" if strict and rng.random() < 0.5 else "le", a, b))
    rng.shuffle(out)
    return list(CERTIFY_CHAINS) + out + list(CERTIFY_REPEATS)


def commands(workload: str, seed: int) -> list:
    """The workload's command list: argv lists, or (mode, a, b) for certify."""
    return {
        "growth": growth_commands,
        "step": step_commands,
        "certify": certify_commands,
    }[workload](seed)


# --- output checks ----------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def command_key(argv) -> str:
    return " ".join(argv)


@lru_cache(maxsize=None)
def golden(workload: str) -> dict:
    with open(GOLDEN_DIR / ("%s.json" % workload), encoding="ascii") as fh:
        return json.load(fh)


def golden_record(code: int, out: str, err: str, head: list) -> dict:
    """What a golden file stores for one command; `head` is the printed
    head window of a step trace."""
    lines = out.split("\n")
    return {
        "exit": code,
        "stdout_sha256": digest(out),
        "stdout_bytes": len(out.encode("utf-8")),
        "stderr_sha256": digest(err),
        "head_lines": len(head),
        "head_sha256": digest("\n".join(head)),
        "last_line": lines[-2][:200] if len(lines) >= 2 else out,
    }


def check_golden(workload: str, argv, code: int, out: str, err: str):
    """None if the output matches the golden record, else a reason."""
    want = golden(workload).get(command_key(argv))
    if want is None:
        return "no golden record"
    if code != want["exit"]:
        return "exit %r, golden %r" % (code, want["exit"])
    if digest(out) != want["stdout_sha256"]:
        return "stdout differs from golden (%d bytes, golden %d)" % (
            len(out.encode("utf-8")),
            want["stdout_bytes"],
        )
    if digest(err) != want["stderr_sha256"]:
        return "stderr differs from golden"
    return None


def strict_formula(b: str) -> str:
    """The printed formula ()b."""
    return "()" + ("" if b == "T" else b)


def check_certify(mode: str, a: str, b: str, prove, check):
    """None if the round trip proved the requested sequent, else a reason.

    `prove` and `check` are (exit, stdout, stderr).  lt must conclude
    a |- ()b; le must conclude a |- b or the stronger a |- ()b, which is
    what prove_le documents for strictly smaller b.
    """
    if prove[0] != 0:
        return "prove exit %r" % (prove[0],)
    if check[0] != 0 or check[1] != "VALID\n":
        return "check exit %r: %r" % (check[0], check[1][:80])
    try:
        concl = json.loads(prove[1])["conclusion"]
    except (ValueError, KeyError, TypeError) as err:
        return "unreadable certificate: %s" % err
    allowed = {strict_formula(b)} if mode == "lt" else {b, strict_formula(b)}
    if concl.get("lhs") != a or concl.get("rhs") not in allowed:
        return "conclusion %s |- %s, wanted %s |- %s" % (
            concl.get("lhs"),
            concl.get("rhs"),
            a,
            " or ".join(sorted(allowed)),
        )
    return None

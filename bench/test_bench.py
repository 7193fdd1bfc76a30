"""Tests of the benchmark itself: command lists, golden files, tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import bisect
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import cert_nodes, invoke, make_tracer  # noqa: E402

from bracketcalc import (  # noqa: E402
    cmp,
    fs_bracket,
    nesting_worm,
    o_star,
    parse_worm,
    print_worm,
)
from bracketcalc import cli  # noqa: E402

SEEDS = (0, 1, 2, 12345)
# step_iter's defaults: the CLI's --window and the size above which the
# compact engine takes over and worms leave the head window
WINDOW = 64
DENSE_LIMIT = 4096


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_list_is_a_function_of_the_seed(workload):
    for seed in SEEDS:
        assert workloads.commands(workload, seed) == workloads.commands(workload, seed)
    if workload != "growth":
        lists = [workloads.commands(workload, s) for s in SEEDS]
        assert len({json.dumps(c) for c in lists}) == len(SEEDS)


def step_argv(argv):
    """(worm, budget, window) of a step command line, else None."""
    cmd = argv[1:] if argv[0] == "--json" else argv
    if cmd[0] != "step":
        return None
    window = int(cmd[cmd.index("--window") + 1]) if "--window" in cmd else WINDOW
    return cmd[1], int(cmd[cmd.index("--budget") + 1]), window


def test_step_list_is_every_shallow_worm_in_three_forms():
    for seed in SEEDS:
        cmds = workloads.commands("step", seed)
        assert len(cmds) == 93
        forms = {}
        for c in cmds:
            worm, budget, window = step_argv(c)
            forms.setdefault(worm, set()).add((c[0] == "--json", window))
            w = parse_worm(worm)
            assert budget == workloads.STEP_BUDGET == 6000 and w.entries and print_worm(w) == worm
            assert worm.count("(") <= 5 and nesting_worm(w) <= 2
        assert len(forms) == 31
        assert all(f == {(False, 64), (True, 64), (False, 8)} for f in forms.values())


def test_order_table_matches_the_program():
    rank = workloads.order_ranks()
    ws = workloads.corpus(workloads.CERTIFY_MAX_PAIRS)
    assert sorted(rank) == sorted(ws) and len(ws) == 197
    ordered = sorted(ws, key=rank.get)
    for x, y in zip(ordered, ordered[1:]):
        c = cmp(o_star(parse_worm(x)), o_star(parse_worm(y)))
        assert c == (0 if rank[x] == rank[y] else -1), (x, y)


def test_certify_draws_one_pair_per_stratum():
    strata = workloads.certify_strata()
    index = {p: i for i, p in enumerate(strata)}
    n = workloads.CERTIFY_PAIRS
    starts = [i * len(strata) // n for i in range(n)]
    rank = workloads.order_ranks()
    for seed in SEEDS:
        cmds = workloads.commands("certify", seed)
        chains, repeats = len(workloads.CERTIFY_CHAINS), len(workloads.CERTIFY_REPEATS)
        assert len(cmds) == chains + n + repeats
        assert cmds[:chains] == list(workloads.CERTIFY_CHAINS)
        assert cmds[-repeats:] == list(workloads.CERTIFY_REPEATS)
        drawn = cmds[chains:-repeats]
        got = sorted(bisect.bisect_right(starts, index[(a, b)]) - 1 for _, a, b in drawn)
        assert got == list(range(n))
        for mode, a, b in drawn:
            assert workloads.depth(a) <= workloads.CERTIFY_MAX_DEPTH and a != "T"
            assert rank[b] < rank[a] or (mode == "le" and rank[b] == rank[a])


def test_certificate_sizes_match_the_program():
    pop = workloads.certify_population()
    with open(workloads.GOLDEN_DIR / "certify_sizes.json", encoding="ascii") as fh:
        sizes = json.load(fh)["bytes"]
    assert len(sizes) == len(pop)
    for i in random.Random(0).sample(range(len(pop)), 5):
        code, out, _, _ = invoke(cli.main, ["prove", "le", *pop[i]])
        assert code == 0 and len(out) == sizes[i], pop[i]


def test_chains_are_ordered():
    rank = workloads.order_ranks()
    for mode, a, b in workloads.CERTIFY_CHAINS:
        assert rank[b] < rank[a]


@pytest.mark.parametrize("workload", ("growth", "step"))
def test_golden_covers_every_command(workload):
    gold = workloads.golden(workload)
    for seed in SEEDS:
        for argv in workloads.commands(workload, seed):
            assert workloads.command_key(argv) in gold


def test_golden_head_windows_follow_fs_bracket():
    """The recorded head of every step trace is the plain recursion's."""
    gold = workloads.golden("step")
    for argv in workloads.commands("step", 0):
        step = step_argv(argv)
        if step is None:
            continue
        worm, budget, window = step
        cur = parse_worm(worm)
        head = [cur]
        steps = 0
        while cur.entries and steps < budget and len(head) <= window:
            steps += 1
            cur = fs_bracket(cur, steps)
            if len(cur.entries) > DENSE_LIMIT:
                break
            head.append(cur)
        want = gold[workloads.command_key(argv)]
        assert want["head_lines"] == len(head), argv
        text = "\n".join(print_worm(w) for w in head)
        assert want["head_sha256"] == workloads.digest(text), argv


def test_check_certify_wants_the_requested_sequent():
    ok = (0, "VALID\n", "")
    cert = json.dumps({"conclusion": {"lhs": "(())", "rhs": "()()()"}})
    assert workloads.check_certify("lt", "(())", "()()", (0, cert, ""), ok) is None
    assert workloads.check_certify("le", "(())", "()()", (0, cert, ""), ok) is None
    assert workloads.check_certify("lt", "(())", "()", (0, cert, ""), ok) is not None
    trivial = json.dumps({"conclusion": {"lhs": "(())", "rhs": "T"}})
    assert workloads.check_certify("le", "(())", "()()", (0, trivial, ""), ok) is not None
    assert workloads.check_certify("le", "(())", "T", (0, trivial, ""), ok) is None
    assert workloads.check_certify("lt", "(())", "()()", (0, cert, ""), (1, "INVALID x y\n", "")) is not None


def test_metric_lists_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_e2e_metrics_pool_the_passes():
    def one_pass(wall, latencies, rss):
        return {"wall_s": wall, "latencies": latencies, "peak_rss_mb": rss, "out_bytes": 2e6,
                "steps": 10, "failed": 0, "attempted": len(latencies)}

    passes = [one_pass(3.0, [1.0, 2.0], 50.0), one_pass(9.0, [4.0, 5.0], 70.0), one_pass(4.0, [3.0, 1.0], 60.0)]
    metrics, extra = run.e2e_metrics(passes, [0.2, 0.1, 0.3])
    assert metrics == {"wall_s": 16.0 / 3, "cmd_p50_ms": 2500.0, "cmd_tail_ms": 5000.0,
                       "peak_rss_mb": 60.0, "out_mb": 2.0, "setup_s": 0.2}
    assert extra["passes"] == 3 and extra["cmd_count"] == 6 and extra["steps_per_s"] == 10 / (16.0 / 3)


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(31)]) == (20.0, 100.0 * 21 / 31, 31)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tracer_keeps_outputs_and_restores_bindings():
    argvs = [["ord", "((()))"], ["step", "(()())", "--budget", "20"], ["prove", "lt", "(())", "()()"]]
    plain = [invoke(cli.main, a)[:3] for a in argvs]
    before = {name: getattr(cli, name) for name in ("prove_lt", "step_iter", "o_star")}
    tracer = make_tracer()
    tracer.install()
    try:
        main = tracer.wrap("cli.main", cli.main, span=True)
        traced = [invoke(main, a)[:3] for a in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {name: getattr(cli, name) for name in before} == before
    assert tracer.calls("cli.main") == 3 and tracer.calls("proving.prove_lt") == 1
    assert tracer.edge_calls("fundseq.step_iter", "fundseq.fs_bracket") == 20
    assert tracer.counters["proving.cert_tree_nodes"] >= tracer.counters["proving.cert_dag_nodes"] > 0
    mains = [s for s in tracer.spans if s[3] == "cli.main"]
    assert len(mains) == 3 and all(s[1] is None for s in mains)


def test_self_time_excludes_wrapped_callees():
    t = Tracer()
    inner = t.wrap("a.inner", lambda: sum(range(20000)))
    outer = t.wrap("b.outer", lambda: inner() + inner())
    outer()
    assert t.calls("a.inner") == 2
    assert t.self_s("b.outer") + t.self_s("a.inner") == pytest.approx(t.total_s("b.outer"))
    assert t.self_s("b.outer") < t.total_s("b.outer")


def test_cert_nodes_counts_shared_nodes_once():
    class Node:
        def __init__(self, *premises, side=None):
            self.premises = premises
            self.side = side

    leaf = Node()
    mid = Node(leaf, leaf)
    root = Node(mid, mid, side=leaf)
    assert cert_nodes(root) == (1 + 3 + 3 + 1, 3)

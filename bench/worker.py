"""One pass of a workload in a fresh interpreter, or the layer probes.

    python3 bench/worker.py pass WORKLOAD SEED TRACE [TRACE_FILE]
    python3 bench/worker.py probe WORKLOAD

`pass` drives the workload's command list through `bracketcalc.cli.main`
in a closed loop (one client, stdin and stdout in memory) and checks each
output; with TRACE=1 the layer tracer is installed first and its spans go
to TRACE_FILE.  `probe` times the compact engine and `step_iter` on their
own.  Either prints one JSON object on stdout; run.py starts these.
"""

from __future__ import annotations

import gc
import io
import json
import math
import re
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

STEPS_RE = re.compile(
    r'after (\d+) steps|^(?:Found|BudgetExhausted) (\d+)$'
    r'|"(?:steps_used|found|budget_exhausted)": (\d+)',
    re.M,
)
CHUNKS = 200
WARM_UP = ("fmt", "T")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invoke(main, argv, stdin: str = ""):
    """(exit, stdout, stderr, seconds) of one in-memory CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    t0 = time.perf_counter()
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash fails this command; the loop goes on
        code = "crash"
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def cert_nodes(cert):
    """(tree nodes, distinct nodes) of a certificate, shared or not."""
    counts = {}
    stack = [(cert, False)]
    while stack:
        node, done = stack.pop()
        kids = node.premises + ((node.side,) if node.side is not None else ())
        if done:
            counts[id(node)] = 1 + sum(counts[id(k)] for k in kids)
        elif id(node) not in counts:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in counts)
    return counts[id(cert)], len(counts)


def make_tracer() -> Tracer:
    from bracketcalc.ordinals import Ordinal

    tracer = Tracer()

    def terms(args, result):
        if isinstance(result, Ordinal):
            tracer.peak("ordinals.max_terms", len(result.terms))

    def proved(args, cert):
        tree, dag = cert_nodes(cert)
        tracer.count("proving.cert_tree_nodes", tree)
        tracer.count("proving.cert_dag_nodes", dag)

    tracer.hook("ordinals", terms)
    tracer.hook("ordinals.cmp", None)
    tracer.hook("worms.o_star", terms)
    tracer.hook("proving.prove_lt", proved)
    tracer.hook("proving.prove_le", proved)
    tracer.hook(
        "calculus.certificate_from_json",
        lambda args, _: tracer.count("calculus.decode_bytes", len(args[0])),
    )
    tracer.hook(
        "calculus.check_derivation",
        lambda args, _: tracer.count("calculus.check_nodes", cert_nodes(args[0])[0]),
    )
    return tracer


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(t: Tracer) -> dict:
    c = t.counters
    return {
        "ordinals.self_s": t.layer_self_s("ordinals"),
        "ordinals.cmp.calls": t.calls("ordinals.cmp"),
        "ordinals.cmp.self_s": t.self_s("ordinals.cmp"),
        "ordinals.add.calls": t.calls("ordinals.add"),
        "ordinals.add.self_s": t.self_s("ordinals.add"),
        "ordinals.other.self_s": t.layer_self_s("ordinals", ("ordinals.cmp", "ordinals.add")),
        "ordinals.max_terms": c.get("ordinals.max_terms", 0),
        "compact.self_s": t.layer_self_s("compact"),
        "compact.to_bracket.calls": t.calls("compact.to_bracket"),
        "compact.to_bracket.self_s": t.self_s("compact.to_bracket"),
        "fundseq.self_s": t.layer_self_s("fundseq"),
        "fundseq.step_iter.self_s": t.self_s("fundseq.step_iter"),
        "fundseq.plain_steps": t.edge_calls("fundseq.step_iter", "fundseq.fs_bracket"),
        "worms.self_s": t.layer_self_s("worms"),
        "worms.o_star.calls": t.calls("worms.o_star"),
        "worms.o_star.self_s": t.self_s("worms.o_star"),
        "syntax.self_s": t.layer_self_s("syntax"),
        "syntax.parse.self_s": t.self_s("syntax.parse_worm", "syntax.parse_formula"),
        "syntax.parse_formula.calls": t.calls("syntax.parse_formula"),
        "syntax.print.self_s": t.self_s("syntax.print_worm", "syntax.print_formula"),
        "calculus.self_s": t.layer_self_s("calculus"),
        "calculus.decode.self_s": t.self_s("calculus.certificate_from_json"),
        "calculus.decode_mb_per_s": rate(
            c.get("calculus.decode_bytes", 0) / 1e6,
            t.total_s("calculus.certificate_from_json"),
        ),
        "calculus.encode.self_s": t.self_s("calculus.certificate_to_json_obj"),
        "calculus.encode_mb_per_s": rate(
            c.get("calculus.encode_bytes", 0) / 1e6,
            t.total_s("calculus.certificate_to_json_obj"),
        ),
        "calculus.check.self_s": t.self_s("calculus.check_derivation"),
        "calculus.check_nodes_per_s": rate(
            c.get("calculus.check_nodes", 0), t.total_s("calculus.check_derivation")
        ),
        "proving.self_s": t.layer_self_s("proving"),
        "proving.prove.self_s": t.self_s("proving.prove_lt", "proving.prove_le"),
        "proving.cert_tree_nodes": c.get("proving.cert_tree_nodes", 0),
        "proving.cert_dag_nodes": c.get("proving.cert_dag_nodes", 0),
        "cli.self_s": t.layer_self_s("cli"),
    }


def run_pass(workload: str, seed: int, traced: bool, trace_file=None) -> dict:
    from bracketcalc import cli

    # first-call costs of the interpreter and argparse would otherwise land
    # on whichever command the seed puts first; this touches no memo dict
    # the workloads use
    invoke(cli.main, WARM_UP)
    main = cli.main
    tracer = None
    if traced:
        tracer = make_tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main, span=True)
    latencies, digests, failures = [], [], []
    out_bytes = steps = 0
    # the garbage collector runs as it would in a library session: a
    # full collection that the memo dicts make costly lands in whichever
    # command triggers it, and counts in that command's time
    gc.collect()
    for i, cmd in enumerate(workloads.commands(workload, seed)):
        if tracer is not None:
            tracer.command = i
        if workload == "certify":
            mode, a, b = cmd
            prove = invoke(main, ["prove", mode, a, b])
            check = invoke(main, ["check", "-"], prove[1])
            elapsed = prove[3] + check[3]
            out = prove[1] + check[1]
            reason = workloads.check_certify(mode, a, b, prove[:3], check[:3])
            label = "prove %s %s %s | check -" % cmd
            if tracer is not None and prove[0] == 0:
                tracer.count("calculus.encode_bytes", len(prove[1]))
        else:
            code, out, err, elapsed = invoke(main, cmd)
            reason = workloads.check_golden(workload, cmd, code, out, err)
            label = workloads.command_key(cmd)
            steps += sum(int("".join(m)) for m in STEPS_RE.findall(out))
        latencies.append(elapsed)
        digests.append(workloads.digest(out))
        out_bytes += len(out)
        if reason is not None:
            failures.append({"command": label, "reason": reason})
    result = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "latencies": latencies,
        "wall_s": sum(latencies),
        "out_bytes": out_bytes,
        "steps": steps,
        "peak_rss_mb": peak_rss_mb(),
        "digests": digests,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        if trace_file:
            tracer.dump(trace_file)
    return result


def probe_growth() -> dict:
    """Per-step cost and state size of a chunked run over growth's start;
    state size is sampled at chunk boundaries, memory as peak RSS growth."""
    from bracketcalc import TOP_WORM, BracketWorm, a_seq
    from bracketcalc._compact import CompactRunner

    budget = workloads.GROWTH_BUDGET
    runner = CompactRunner(BracketWorm((TOP_WORM,) + a_seq(2).entries))
    rss0 = peak_rss_mb()
    times, done = [], [0]
    active = cold = 0
    for k in range(1, CHUNKS + 1):
        t0 = time.perf_counter()
        runner.run(budget * k // CHUNKS)
        times.append(time.perf_counter() - t0)
        done.append(runner.steps)
        active = max(active, len(runner.active))
        cold = max(cold, len(runner.cold))
    tenth = CHUNKS // 10

    def us_per_step(lo: int, hi: int) -> float:
        return sum(times[lo:hi]) / (done[hi] - done[lo]) * 1e6

    return {
        "compact.step_us.first": us_per_step(0, tenth),
        "compact.step_us.last": us_per_step(CHUNKS - tenth, CHUNKS),
        "compact.active_items.max": active,
        "compact.cold_segments.max": cold,
        "compact.rss_mb.growth": peak_rss_mb() - rss0,
    }


def probe_step() -> dict:
    """step_iter time over CompactRunner.run time on the same worm and
    budget, as a geometric mean over the step worms that exhaust it."""
    from bracketcalc import parse_worm, step_iter
    from bracketcalc._compact import CompactRunner

    gold = workloads.golden("step")
    runs = {
        (cmd[1], int(cmd[3]))
        for cmd in workloads.step_commands(0)
        if cmd[0] == "step" and gold[workloads.command_key(cmd)]["exit"] == 3
    }
    logs = []
    for text, budget in sorted(runs):
        worm = parse_worm(text)
        t0 = time.perf_counter()
        step_iter(worm, budget)
        t1 = time.perf_counter()
        CompactRunner(worm).run(budget)
        t2 = time.perf_counter()
        logs.append(math.log((t1 - t0) / (t2 - t1)))
    return {"fundseq.step_iter_over_runner": math.exp(sum(logs) / len(logs))}


PROBES = {"growth": probe_growth, "step": probe_step}


def main(argv) -> int:
    if argv[0] == "pass":
        workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
        result = run_pass(workload, seed, trace, argv[4] if len(argv) > 4 else None)
    elif argv[0] == "probe":
        probe = PROBES.get(argv[1])
        result = probe() if probe else {}
    else:
        print("usage: worker.py pass|probe ...", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark for bracketcalc: three CLI workloads, end to end and per layer.

    python3 bench/run.py --workload growth|step|certify \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics.  Details (every
command latency, the tail percentile, probe results, failures) go to
.bench_out/.  See bench/README.md for what each workload and metric is.

Each pass over a workload runs in its own fresh interpreter (worker.py).
Each workload is a fixed list of commands sized to take about ten seconds
at the seed commit on a 2-core machine; the outputs are checked against
golden files recorded for exactly those commands, so --seconds sets the
number of passes (one per ten seconds) rather than their size.  An
untraced run reports the mean pass time, median memory and output sizes,
and latencies pooled over its passes.  A traced run makes one
untraced pass and one traced pass, checks that their CLI outputs agree,
and reports the ratio of their times as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170
PASS_S = 10
# import timings taken before each pass and after the last one, so that
# setup_s is a median over the whole run rather than over its first second
SETUP_REPEATS = 4
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bracketcalc, bracketcalc.cli; print(time.perf_counter() - t)"
)

E2E = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "setup_s": "s",
}
LAYER = {
    "ordinals.self_s": "s",
    "ordinals.cmp.calls": "count",
    "ordinals.cmp.self_s": "s",
    "ordinals.add.calls": "count",
    "ordinals.add.self_s": "s",
    "ordinals.other.self_s": "s",
    "ordinals.max_terms": "count",
    "compact.self_s": "s",
    "compact.step_us.first": "us",
    "compact.step_us.last": "us",
    "compact.active_items.max": "count",
    "compact.cold_segments.max": "count",
    "compact.rss_mb.growth": "MB",
    "compact.to_bracket.calls": "count",
    "compact.to_bracket.self_s": "s",
    "fundseq.self_s": "s",
    "fundseq.step_iter.self_s": "s",
    "fundseq.step_iter_over_runner": "ratio",
    "fundseq.plain_steps": "count",
    "worms.self_s": "s",
    "worms.o_star.calls": "count",
    "worms.o_star.self_s": "s",
    "syntax.self_s": "s",
    "syntax.parse.self_s": "s",
    "syntax.parse_formula.calls": "count",
    "syntax.print.self_s": "s",
    "calculus.self_s": "s",
    "calculus.decode.self_s": "s",
    "calculus.decode_mb_per_s": "MB/s",
    "calculus.encode.self_s": "s",
    "calculus.encode_mb_per_s": "MB/s",
    "calculus.check.self_s": "s",
    "calculus.check_nodes_per_s": "1/s",
    "proving.self_s": "s",
    "proving.prove.self_s": "s",
    "proving.cert_tree_nodes": "count",
    "proving.cert_dag_nodes": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left


def run_child(args, deadline: Deadline, env=None) -> subprocess.CompletedProcess:
    """Run a Python child in the checkout root; it is killed at the deadline."""
    try:
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=deadline.left(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("timed out: %s" % " ".join(args[:3])) from exc


def json_child(args, deadline: Deadline) -> dict:
    proc = run_child(args, deadline)
    if proc.returncode != 0:
        raise BenchError("%s failed:\n%s" % (" ".join(args[:3]), proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(deadline: Deadline, repeats: int = SETUP_REPEATS) -> list:
    """Fresh-process import times of bracketcalc and its CLI."""
    samples = []
    for _ in range(repeats):
        proc = run_child(["-c", SETUP_CODE, str(SRC)], deadline)
        if proc.returncode != 0:
            raise BenchError("import failed:\n%s" % proc.stderr[-2000:])
        samples.append(float(proc.stdout))
    return samples


def run_probes(deadline: Deadline) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for argv, known in workloads.PROBES:
        proc = run_child(["-m", "bracketcalc.cli", *argv], deadline, env=env)
        err = proc.stderr.strip().splitlines()
        out.append(
            {
                "command": workloads.command_key(argv)[:60],
                "exit": proc.returncode,
                "traceback": "Traceback (most recent call last)" in proc.stderr,
                "stderr_last_line": err[-1][:200] if err else "",
                "seed_commit": known,
            }
        )
    return out


def tail(latencies: list):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; the slowest sample when there are fewer than 11."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def pass_failures(passes: list) -> list:
    """Every failed command of the passes, plus any pass whose outputs
    differ from the first pass's."""
    failures = [f for p in passes for f in p["failures"]]
    first = passes[0]["digests"]
    for i, p in enumerate(passes[1:], 1):
        if p["digests"] != first:
            failures.append({"command": "*", "reason": "pass %d printed other outputs than pass 0" % i})
    return failures


def e2e_metrics(passes: list, setup: list) -> tuple:
    """Pass time is averaged over the passes, memory and output sizes are
    medians over them, and command latencies are pooled."""
    latencies = [x for p in passes for x in p["latencies"]]
    wall = statistics.mean(p["wall_s"] for p in passes)
    value, pct, n = tail(latencies)
    steps = passes[0]["steps"]
    metrics = {
        "wall_s": wall,
        "cmd_p50_ms": statistics.median(latencies) * 1e3,
        "cmd_tail_ms": value * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "out_mb": statistics.median(p["out_bytes"] for p in passes) / 1e6,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "cmd_tail_percentile": pct,
        "cmd_count": n,
        "steps": steps,
        "steps_per_s": steps / wall if wall else 0.0,
        "fail_ratio": sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "bracketcalc" / "__init__.py").is_file():
        print("error: no bracketcalc sources under %s" % SRC, file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    n_passes = 1 if args.trace else max(1, round(args.seconds / PASS_S))
    try:
        measure_setup(deadline, 1)  # untimed: writes the bytecode caches
        probes = run_probes(deadline)
        setup, passes = [], []
        for _ in range(n_passes):
            setup += measure_setup(deadline)
            passes.append(
                json_child(["bench/worker.py", "pass", args.workload, str(args.seed), "0"], deadline)
            )
        setup += measure_setup(deadline)
        base = passes[0]
        failures = pass_failures(passes)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / ("%s-spans.json" % name)
            traced = json_child(
                ["bench/worker.py", "pass", args.workload, str(args.seed), "1", str(spans)],
                deadline,
            )
            failures += traced["failures"]
            mismatched = sum(x != y for x, y in zip(base["digests"], traced["digests"]))
            if mismatched or len(base["digests"]) != len(traced["digests"]):
                failures.append({"command": "*", "reason": "%d traced outputs differ" % mismatched})
            values = dict.fromkeys(LAYER, 0)
            values.update(traced["layers"])
            values.update(json_child(["bench/worker.py", "probe", args.workload], deadline))
            values["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
            units, extra = LAYER, {"untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"]}
            attempted = traced["attempted"]
        else:
            values, extra = e2e_metrics(passes, setup)
            units = E2E
            attempted = sum(p["attempted"] for p in passes)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        extra=extra,
        setup_samples_s=setup,
        probes=probes,
        failures=failures,
        latencies_s=[p["latencies"] for p in passes],
        commands=workloads.commands(args.workload, args.seed),
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("%s.json" % name), "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)
    for p in probes:
        print("probe %-40s exit %s traceback %s  %s" % (p["command"], p["exit"], p["traceback"], p["stderr_last_line"][:60]))
    for f in failures[:10]:
        print("FAILED %s: %s" % (f["command"][:80], f["reason"]))
    print("extra %s" % json.dumps(extra))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark's reference outputs from the current source tree.

    python3 bench/record_golden.py

Writes bench/golden/{growth,step}.json (exit code and digests of
every command any seed can produce), bench/golden/order6.json (the rank by
order type of every worm with at most six bracket pairs) and
bench/golden/certify_sizes.json (the `prove le` certificate size of every
pair the certify workload can draw, which it stratifies its draws by).
Run it only on a commit whose outputs are known good: the benchmark treats
these files as the truth.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import invoke  # noqa: E402


def head_window(argv, out: str) -> list:
    """The worms of step_iter's head window, as the command printed them."""
    if "step" not in argv:
        return []
    if "--json" in argv:
        return json.loads(out)["head"]
    lines = out.split("\n")[:-1]
    return lines[: lines.index("...") if "..." in lines else len(lines) - 1]


def record_commands(workload: str) -> dict:
    from bracketcalc.cli import main

    records = {}
    for argv in sorted(set(map(tuple, workloads.commands(workload, 0)))):
        code, out, err, _ = invoke(main, argv)
        records[workloads.command_key(argv)] = workloads.golden_record(
            code, out, err, head_window(argv, out)
        )
    return records


def record_order() -> dict:
    from bracketcalc import cmp, o_star, parse_worm

    ws = workloads.corpus(workloads.CERTIFY_MAX_PAIRS)
    types = {w: o_star(parse_worm(w)) for w in ws}
    ordered = sorted(ws, key=functools.cmp_to_key(lambda x, y: cmp(types[x], types[y])))
    rank, r = {}, -1
    for i, w in enumerate(ordered):
        if i == 0 or cmp(types[ordered[i - 1]], types[w]) < 0:
            r += 1
        rank[w] = r
    return {"rank": rank}


def record_cert_sizes() -> dict:
    from bracketcalc.cli import main

    sizes = []
    for a, b in workloads.certify_population():
        code, out, _, _ = invoke(main, ["prove", "le", a, b])
        if code != 0:
            raise SystemExit("prove le %s %s failed" % (a, b))
        sizes.append(len(out))
    return {"bytes": sizes}


def write(name: str, data: dict, indent=1) -> None:
    path = workloads.GOLDEN_DIR / name
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=indent, sort_keys=True)
        fh.write("\n")
    print("wrote", path.relative_to(HERE.parent))


def main() -> int:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    write("order6.json", record_order())
    workloads.order_ranks.cache_clear()
    write("certify_sizes.json", record_cert_sizes(), indent=None)
    for workload in ("growth", "step"):
        write("%s.json" % workload, record_commands(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the benchmark of two checkouts over alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--workload all] [--seconds 30]

Each pair runs ``python3 perfbench/run.py --workload W --seconds S`` once
in each tree as a child process, parent first in pair 1 and the order
swapped in every pair after it.  Each run prints one JSON line: its tree, side,
pair, metrics and ``minor_faults``, the rise in
``getrusage(RUSAGE_CHILDREN).ru_minflt`` across that child (the
interpreters it starts to time its set-up included).  The faults are
counted outside the benchmark's process because a probe inside it would
change what that process allocates before its timed passes.

At the end, one line per end-to-end metric and workload of PARENT's
``BENCHMARK.json``: both medians, the relative change, the pairs the
change won by the metric's ``better`` direction (ties count for
neither), the parent's IQR over its median, ``PAST BOUND`` when the
change's median is worse than the parent's by more than the bound, and
``UNRESOLVED`` when the parent's IQR over its median exceeds the bound:
then the runs spread too widely to tell a change within the bound from
noise, unless every run of the change beats every run of the parent.
Then each tree's median fault count.  Exits 1 when any run fails, reads
``correct: false`` or has ``failed > 0``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: str, workload: str, seconds: int):
    """The JSON result of one benchmark run in ``tree`` with its minor faults, or None when it failed."""
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    child = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = child.stdout.splitlines()
    if child.returncode not in (0, 1) or not lines:
        sys.stderr.write(child.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    result["minor_faults"] = faults
    return result


def summary(metric: dict, key: str, parent: list, change: list) -> str:
    lower = metric["better"] == "lower"
    a = [run["metrics"][key]["value"] for run in parent]
    b = [run["metrics"][key]["value"] for run in change]
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
    worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    beats_all = max(b) < min(a) if lower else min(b) > max(a)
    flag = "  PAST BOUND" if worse > metric["bound"] else ""
    if (q3 - q1) / med_a > metric["bound"] and not beats_all:
        flag += "  UNRESOLVED"
    return (
        f"{key}: parent {med_a:.6g} change {med_b:.6g} {metric['unit']} ({(med_b - med_a) / med_a:+.2%}), "
        f"change better in {won} of {len(a)}, parent IQR/median {(q3 - q1) / med_a:.2%}{flag}"
    )


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Alternating benchmark pairs of two checkouts.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    spec = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    ok = True
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            result = run_once(trees[side], args.workload, args.seconds)
            if result is None or not result["correct"] or result["failed"] > 0:
                print(json.dumps({"tree": trees[side], "pair": pair, "failed_run": result}), flush=True)
                ok = False
                continue
            results[side].append(result)
            print(json.dumps({"tree": trees[side], "side": side, "pair": pair, **result}), flush=True)
    parent, change = results["parent"], results["change"]
    if not ok or not parent:
        return 1
    workloads = [w["name"] for w in spec["workloads"] if args.workload in ("all", w["name"])]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = f"{workload}/{metric['name']}" if args.workload == "all" else metric["name"]
            print(summary(metric, key, parent, change))
    for side, runs in results.items():
        print(f"{side} median minor faults: {statistics.median(run['minor_faults'] for run in runs):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

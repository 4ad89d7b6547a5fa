"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs ``run.py --tiny`` (``unit-circle:8`` and a 5 x 5 grid) and checks
that every workload prints every metric of ``BENCHMARK.json`` with its
unit in both trace modes, that a corrupted reference trips the
correctness gate while a perturbation inside the float tolerance only
breaks byte identity, and that outside a checkout the harness exits
non-zero without a result line.  Exits 0 when every check holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")
TINY = os.path.join(HERE, "reference", "tiny")

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int = 0, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def corrupt_csv(path: str, row: int, column: int, change) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[row].split(",")
    fields[column] = change(fields[column])
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def corrupt_npy(path: str, rel: float) -> None:
    drops = np.load(path)
    drops[0, 1] *= 1.0 + rel
    np.save(path, drops)


def fresh_reference(workload: str) -> str:
    ref = os.path.join(SCRATCH, workload)
    shutil.rmtree(ref, ignore_errors=True)
    shutil.copytree(os.path.join(TINY, workload), ref)
    return ref


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, result = bench(workload, trace)
            what = f"{workload} --trace {trace}"
            expect(rc == 0 and result is not None and result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0, f"{what}: exits 0 with correct outputs")
            units = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: entry["unit"] for name, entry in (result or {"metrics": {}})["metrics"].items()}
            expect(got == units, f"{what}: result has exactly the {group} metrics with their units")
            printed = all(any(line.startswith(f"{n} = ") and line.split()[3] == u for line in lines)
                          for n, u in units.items())
            expect(printed, f"{what}: report prints every metric with its unit")

    cases = (
        ("circle-sweep", lambda ref: corrupt_csv(
            os.path.join(ref, "alg3-a0.6", "sweep_points.csv"), 3, 7, lambda s: "max-iterations")),
        ("horizon-table", lambda ref: corrupt_csv(
            os.path.join(ref, "N3", "horizon_table.csv"), 1, 2, lambda s: repr(float(s) * (1 + 1e-9)))),
        ("drop-grid", lambda ref: corrupt_npy(os.path.join(ref, "N3-m1.npy"), 1e-9)),
    )
    for workload, corrupt in cases:
        ref = fresh_reference(workload)
        corrupt(ref)
        rc, _, result = bench(workload, 0, "--reference", ref)
        expect(rc == 1 and result is not None and not result["correct"] and result["failed"] > 0,
               f"{workload}: a corrupted reference trips the gate")

    ref = fresh_reference("drop-grid")
    corrupt_npy(os.path.join(ref, "N3-m1.npy"), 1e-14)
    rc, lines, result = bench("drop-grid", 0, "--reference", ref)
    identical = re.search(r"(\d+) of (\d+) output files byte-identical", "\n".join(lines))
    expect(rc == 0 and result is not None and result["correct"] and identical is not None
           and int(identical[1]) < int(identical[2]),
           "drop-grid: a change within 1e-12 passes the gate but is not byte-identical")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    rc, _, result = bench("drop-grid", 0, cwd=bare)
    expect(rc not in (0, 1) and result is None, "outside a checkout: non-zero exit and no result line")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

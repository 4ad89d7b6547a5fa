"""Compare two checkouts' benchmark passes in one process, over alternating pairs.

    python3 tools/inproc_pairs.py PARENT CHANGE [--pairs 50] [--workload all] [--tiny] [--fresh-plant]

Each tree's ``src/mpccert`` is loaded twice, under a package name of
its own each time (``mpccert_parent0``, ``mpccert_change0``, then
``mpccert_change1``, ``mpccert_parent1``); the package imports its
modules relatively, so all four live in one interpreter.  The second
load takes the trees in the other order, and pairs alternate between
the two loads, so neither tree always runs the code loaded first.  The
workloads are perfbench's own classes, imported from PARENT's
``perfbench/run.py`` and handed a ``Program`` of each tree.  Each pair
runs one pass of a workload (every call of its ``jobs()``) in each tree
and times it with ``perf_counter``, the two trees' runs of each call
back to back in a shuffled order: raw seconds, no host calibration, as
both passes see the same drift of the host.  One warm-up pair per
workload and load runs first.  The working directory becomes PARENT, where
perfbench's relative plant path resolves; outputs go to a temporary
directory.

Per workload it prints the median of the pairs' change/parent ratios,
their interquartile range, the number of pairs the change won (ratio
below 1), and each tree's median minor page faults per pass
(``ru_minflt`` read around every call).  A pass that maps fresh heap
pages takes faults (drop-grid's whole-grid arrays took 187 a pass) where
a warm one takes none, so the counts tell a gain of the code from a
flip of the heap's state.
``--tiny`` uses perfbench's smoke-test sizes.

perfbench loads each tree's plant once and hands the same plant object
to every pass, so whatever a tree keeps on the plant (its Riccati
ladder) outlives the pass that built it.  ``--fresh-plant`` gives each
tree's workload a new copy of its plant before every pass, outside the
timed calls, as a caller that loads its plant for one study would see
it.  The CLI workloads load their plant inside every call anyway.

Two copies of one tree (an A/A run) read horizon-table's median at
1.000, 1.003 and 0.998 in three runs of 100 pairs on a 2-vCPU Xeon, with
interquartile ranges of 2-6 %; loading each tree once, parent first,
read 1.002, 0.997 and 0.998.  Medians within about 0.3 % of 1.000 do not
tell two trees apart.
"""

import argparse
import contextlib
import importlib
import importlib.util
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_package(tree: Path, name: str):
    """``tree/src/mpccert`` imported as the package ``name``."""
    package = tree / "src" / "mpccert"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def program(run, name: str):
    """perfbench's ``Program`` for the package ``name``."""
    model = importlib.import_module(f"{name}.model")
    return run.Program(
        cli=importlib.import_module(f"{name}.cli"),
        sweep=importlib.import_module(f"{name}.sweep"),
        refchecks=importlib.import_module(f"{name}.refchecks"),
        LqLadderSolver=importlib.import_module(f"{name}.riccati").LqLadderSolver,
        lq=model.load_plant(run.PLANT),
    )


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_pair(run, workloads: dict, out: str, rng: random.Random, fresh_plant: bool = False) -> tuple[dict, dict]:
    """Raw seconds and minor page faults of one pass of each tree's workload, their calls interleaved, stdout discarded.

    Call ``k`` of the pass runs in both trees back to back, in an order
    shuffled per call, so the two passes see the same drift of the host.
    With ``fresh_plant`` each tree's pass starts on a new copy of its plant.
    """
    if fresh_plant:
        for workload in workloads.values():
            lq = workload.program.lq
            workload.program.lq = type(lq)(lq.A, lq.B, lq.Q, lq.R)
    seconds, faults = dict.fromkeys(workloads, 0.0), dict.fromkeys(workloads, 0)
    jobs = [[(side, job) for job in workload.jobs(None)] for side, workload in workloads.items()]
    with contextlib.redirect_stdout(run._Discard()):
        for calls in zip(*jobs):
            calls = list(calls)
            rng.shuffle(calls)
            for side, job in calls:
                flt, start = minor_faults(), time.perf_counter()
                job.call(out, workloads[side].workers)
                seconds[side] += time.perf_counter() - start
                faults[side] += minor_faults() - flt
    return seconds, faults


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="In-process alternating pairs of two checkouts.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--tiny", action="store_true", help="perfbench's smoke-test sizes")
    parser.add_argument("--fresh-plant", action="store_true", help="a new copy of each tree's plant for every pass")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    os.chdir(trees["parent"])
    sys.path.insert(0, str(trees["parent"] / "perfbench"))
    run = importlib.import_module("run")
    names = run.WORKLOADS if args.workload == "all" else (args.workload,)
    size = run.SIZES["tiny" if args.tiny else "full"]
    loads = []
    for k, order in enumerate((("parent", "change"), ("change", "parent"))):
        workloads = {}
        for side in order:
            load_package(trees[side], f"mpccert_{side}{k}")
            workloads[side] = {w: run.WORKLOAD_TYPES[w](program(run, f"mpccert_{side}{k}"), size) for w in names}
        loads.append(workloads)
    rng = random.Random(0)
    with tempfile.TemporaryDirectory() as out:
        for w in names:
            pairs = [{side: workloads[side][w] for side in trees} for workloads in loads]
            for pair in pairs:
                timed_pair(run, pair, out, rng, args.fresh_plant)  # warm-up
            ratios, faults = [], {side: [] for side in trees}
            for i in range(args.pairs):
                seconds, pass_faults = timed_pair(run, pairs[i % 2], out, rng, args.fresh_plant)
                ratios.append(seconds["change"] / seconds["parent"])
                for side in trees:
                    faults[side].append(pass_faults[side])
            q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            wins = sum(r < 1.0 for r in ratios)
            flt = ", ".join(f"{side} {statistics.median(faults[side]):.1f}" for side in trees)
            print(
                f"{w}: change/parent {median:.3f} (IQR {q1:.3f}-{q3:.3f}), change faster in {wins} of {len(ratios)};"
                f" minor faults per pass {flt}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

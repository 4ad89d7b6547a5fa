"""Time the lockstep engine's bookkeeping around its plan steps, in process.

    python3 tools/engine_share.py TREE [--tiny] [--repeats 30]

mpccert is imported from TREE/src and runs on TREE's bundled plant.
Three batches, each as the benchmark's workloads build it from
``unit-circle:128``, through ``sweep.run_blocks`` on a solver warmed by
one run:

  * circle-sweep: the eight sweeps of the circle-sweep workload (alg1 to
    alg4 at N = 3, alpha_bar 0.01 and 0.6), one ``run_blocks`` call each,
    timed together;
  * horizon-table N=3 and N=10: the 256-row batch of one horizon-table
    call (alg1 at alpha_bar 0 and alg3 at alpha_bar 0.01 with forced
    length 1, the configurations of ``sweep.horizon_comparison``).

For each it prints the best of ``--repeats`` passes of ``run_blocks``
time, then, from as many passes with ``solver.plan_step`` and
``_Lockstep._iterate`` counted (and the plan steps timed), the plan-step
calls, their best time and its share of the ``run_blocks`` time, the
lockstep iterations, and the rest of the time per iteration: the
engine's bookkeeping around its plan steps.  ``--tiny`` runs 16 points
and 3 repeats, a smoke test of the tool.
"""

import argparse
import os
import sys
import time


def batches(tree: str, points: int):
    """(name, solver, points, configurations of each run_blocks call) for the three batches above."""
    from mpccert.engine import VARIANTS, AlgorithmConfig
    from mpccert.model import load_plant
    from mpccert.riccati import LqLadderSolver
    from mpccert.sweep import unit_circle

    lq = load_plant(os.path.join(tree, "plants", "spiral2d.txt"))
    X = unit_circle(points).points
    sweeps = [[AlgorithmConfig(variant, 3, alpha_bar)] for variant in VARIANTS for alpha_bar in (0.01, 0.6)]
    yield "circle-sweep", LqLadderSolver(lq, 3), X, sweeps
    for horizon in (3, 10):
        table = [AlgorithmConfig("alg1", horizon, 0.0), AlgorithmConfig("alg3", horizon, 0.01, forced_m=1)]
        yield f"horizon-table N={horizon}", LqLadderSolver(lq, horizon), X, [table]


def best_pass(run_blocks, solver, X, calls, repeats: int) -> float:
    """The fastest of ``repeats`` passes of every ``run_blocks`` call, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for configs in calls:
            run_blocks(solver, X, configs)
        best = min(best, time.perf_counter() - start)
    return best


def counted_passes(run_blocks, engine, solver, X, calls, repeats: int) -> tuple[float, int, int]:
    """The best plan-step time of ``repeats`` passes, and one pass's plan-step calls and iterations."""
    plan_step, iterate = solver.plan_step, engine._Lockstep._iterate
    tally = {"seconds": 0.0, "steps": 0, "iterations": 0}

    def timed_step(*args):
        start = time.perf_counter()
        plan_step(*args)
        tally["seconds"] += time.perf_counter() - start
        tally["steps"] += 1

    def counted_iterate(self, iteration):
        tally["iterations"] += 1
        iterate(self, iteration)

    solver.plan_step, engine._Lockstep._iterate = timed_step, counted_iterate
    best = float("inf")
    try:
        for _ in range(repeats):
            tally.update(seconds=0.0, steps=0, iterations=0)
            for configs in calls:
                run_blocks(solver, X, configs)
            best = min(best, tally["seconds"])
    finally:
        del solver.plan_step
        engine._Lockstep._iterate = iterate
    return best, tally["steps"], tally["iterations"]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="The lockstep engine's plan-step share, in process.")
    parser.add_argument("tree")
    parser.add_argument("--tiny", action="store_true", help="16 points and 3 repeats")
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path.insert(0, os.path.join(tree, "src"))
    from mpccert import engine
    from mpccert.sweep import run_blocks

    points, repeats = (16, 3) if args.tiny else (128, args.repeats)
    for name, solver, X, calls in batches(tree, points):
        for configs in calls:  # warm-up: builds the solver's table
            run_blocks(solver, X, configs)
        total = best_pass(run_blocks, solver, X, calls, repeats)
        steps_s, steps, iterations = counted_passes(run_blocks, engine, solver, X, calls, repeats)
        rest_us = 1e6 * (total - steps_s) / iterations
        print(
            f"{name}: run_blocks {1e3 * total:.2f} ms (best of {repeats}), {steps} plan steps "
            f"{1e3 * steps_s:.2f} ms ({100 * steps_s / total:.0f} %), {iterations} iterations, "
            f"{rest_us:.0f} us per iteration besides plan steps"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

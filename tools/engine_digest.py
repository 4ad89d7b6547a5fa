"""Print one SHA-256 over the engine's batch results, full traces and plans on a fixed set of inputs.

    python3 tools/engine_digest.py TREE

mpccert is imported from TREE/src.  Two trees print the same line exactly
when ``run_batch(..., traces=True)`` returns the same bits for every run
below: statuses, per-row statistics, and each trace's schedule, states,
controls, costs, certificates, slack values and windows (probe alphas and
rhos, ``closes`` and every other field), and when the plan layer under
them returns the same bits: every field of ``plans(X, N)`` (controls,
trajectory, stage costs, value, tail values) and ``rollout(X, N, m)`` for
every ``m`` in ``0..N``, at N = 2, 3, 5 and 20 from the initial states of
each plant below.  The CLI prints only part of these, so this catches
changes ``tools/cli_outputs.sh`` cannot see.  :func:`feed` walks every
field of each trace's ``AlgorithmConfig``, so a change that adds a config
field moves this line even when no result moves, and must say so in
CHANGES.md.  Under both control laws:

  * the bundled plant from 22 initial states (16 on the unit circle,
    4 of them scaled by 1e3, the origin, and a point inside the
    termination radius): every variant at alpha_bar 0, 0.01 and 0.6 with
    N = 3, 10 and 20; every variant at alpha_bar 0.01 with forced length
    2 at N = 3, forced lengths (3, 1) at N = 10, forced length 15 at
    N = 20, and the shrink schedule {2: 4, 5: 3} at N = 5; and one batch
    whose rows cycle through all of these configurations and a 7-iteration
    cap;
  * three random plants (n = 3, 4, 2; the first two reject alg2 and alg4
    re-plans), three initial states each: every variant at alpha_bar 0.01
    and 0.6 with N = 3 and 4, free and with forced length 2, capped at 30
    iterations.
"""

import hashlib
import os
import sys
from dataclasses import fields, is_dataclass

import numpy as np

# (A, B, Q, R, initial states), two decimals each.
RANDOM_PLANTS = (
    (
        [[0.62, -0.62, -0.56], [-1.21, -1.52, -1.78], [0.57, 1.28, 0.5]],
        [[0.29], [0.29], [-0.13]],
        [[2.8, -1.42, -1.92], [-1.42, 1.63, -0.06], [-1.92, -0.06, 6.22]],
        [[0.66]],
        [[0.39, 0.99, 1.04], [-0.78, -1.98, -2.08], [-0.7, -1.18, -1.06]],
    ),
    (
        [[0.31, 0.75, 0.13, -0.82], [0.06, 0.06, -0.32, -0.88], [-0.04, -1.03, -0.09, -0.01], [1.31, 0.59, 0.48, 0.27]],
        [[-0.23, -0.28], [-0.55, 0.82], [1.4, -0.32], [-0.09, 0.73]],
        [[9.93, 2.13, 1.64, 3.16], [2.13, 3.56, 1.39, 1.18], [1.64, 1.39, 1.0, 1.1], [3.16, 1.18, 1.1, 3.02]],
        [[1.09, -0.93], [-0.93, 4.77]],
        [[0.93, -0.42, 0.89, 1.07], [-1.86, 0.84, -1.78, -2.14], [-0.49, -0.05, 0.57, 1.24]],
    ),
    (
        [[-1.53, 0.21], [-2.26, -0.8]],
        [[-0.09], [-0.49]],
        [[0.14, 0.02], [0.02, 0.21]],
        [[0.91]],
        [[-0.94, -0.56], [1.88, 1.12], [-0.08, 0.0]],
    ),
)


def feed(h, value) -> None:
    """Add ``value`` to the hash ``h``, tagged with its kind so that no two values collide."""
    if value is None or isinstance(value, str):
        h.update(f"{type(value).__name__}:{value}|".encode())
    elif isinstance(value, np.ndarray):
        h.update(f"array:{value.dtype.str}:{value.shape}|".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        h.update(f"bool:{bool(value)}|".encode())
    elif isinstance(value, (int, np.integer)):
        h.update(f"int:{int(value)}|".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"float:{float(value).hex()}|".encode())
    elif isinstance(value, (tuple, list)):
        h.update(f"seq:{len(value)}|".encode())
        for item in value:
            feed(h, item)
    elif is_dataclass(value):
        h.update(f"{type(value).__name__}|".encode())
        for f in fields(value):
            feed(h, f.name)
            feed(h, getattr(value, f.name))
    else:
        raise TypeError(f"cannot hash a {type(value).__name__}")


def batches(tree: str):
    """Every (plant, initial states, configuration or one per row) above, for one control law."""
    from mpccert.engine import VARIANTS, AlgorithmConfig
    from mpccert.model import LinearQuadraticInstance, load_plant

    lq = load_plant(os.path.join(tree, "plants", "spiral2d.txt"))
    angles = 2.0 * np.pi * np.arange(1, 17) / 16
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    X = np.vstack([circle, 1e3 * circle[::4], np.zeros((1, 2)), [[1e-9, 0.0]]])
    mixed = []
    for variant in VARIANTS:
        for alpha_bar in (0.0, 0.01, 0.6):
            for horizon in (3, 10, 20):
                yield lq, X, AlgorithmConfig(variant, horizon, alpha_bar)
        for horizon, forced in ((3, 2), (10, (3, 1)), (20, 15)):
            mixed.append(AlgorithmConfig(variant, horizon, 0.01, forced_m=forced))
        mixed.append(AlgorithmConfig(variant, 5, 0.01, shrink_schedule={2: 4, 5: 3}))
    yield from ((lq, X, config) for config in mixed)
    mixed.append(AlgorithmConfig("alg4", 3, 0.6, max_iterations=7))
    yield lq, X, [mixed[k % len(mixed)] for k in range(len(X))]

    for A, B, Q, R, X in RANDOM_PLANTS:
        lq = LinearQuadraticInstance(np.array(A), np.array(B), np.array(Q), np.array(R))
        for variant in VARIANTS:
            for alpha_bar in (0.01, 0.6):
                for horizon in (3, 4):
                    for forced in (None, 2):
                        config = AlgorithmConfig(variant, horizon, alpha_bar, forced_m=forced, max_iterations=30)
                        yield lq, np.array(X), config


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} TREE")
    tree = os.path.abspath(sys.argv[1])
    sys.path.insert(0, os.path.join(tree, "src"))
    from mpccert.engine import run_batch
    from mpccert.riccati import LqBellmanSolver, LqLadderSolver

    h, runs, count, plans = hashlib.sha256(), 0, 0, 0
    for law in (LqLadderSolver, LqBellmanSolver):
        for lq, X, config in batches(tree):
            feed(h, run_batch(law(lq, 2), X, config, traces=True))
            runs, count = runs + len(X), count + 1
        # The plan layer on its own: the three-state plant has c = 1, the
        # four-state one c = 2.
        starts = {id(lq): (lq, X) for lq, X, _ in batches(tree)}
        for lq, X in starts.values():
            solver = law(lq, 2)
            for horizon in (2, 3, 5, 20):
                feed(h, solver.plans(X, horizon))
                for m in range(horizon + 1):
                    feed(h, solver.rollout(X, horizon, m))
                plans += len(X)
    print(f"{h.hexdigest()}  {runs} runs in {count} batches, {plans} plans")


if __name__ == "__main__":
    main()

"""Time one set-up of mpccert in a fresh interpreter.

Set-up is what mpccert costs before the first call: importing the
package, loading the bundled plant and building one solver per horizon.
NumPy is imported before the clock starts: its import is a fixed cost of
the one dependency, and it swings with the host's file cache far more
than anything mpccert controls.  Prints the raw seconds and the same
time calibrated by the kernel of ``calibrate.py``, run right after in the
same process.  Run from the root of a checkout::

    python3 perfbench/setup_probe.py mpccert.cli 3
    python3 perfbench/setup_probe.py mpccert 3 3 10
"""

import importlib
import os
import sys
import time

import numpy  # noqa: F401  (see above)


def main(module: str, horizons: list[int]) -> None:
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    importlib.import_module(module)
    from mpccert.model import load_plant
    from mpccert.riccati import LqLadderSolver

    lq = load_plant(os.path.join("plants", "spiral2d.txt"))
    for n in horizons:
        LqLadderSolver(lq, n)
    raw = time.perf_counter() - start

    from calibrate import calibrated, calibration_seconds

    print(repr(raw), repr(calibrated(raw, calibration_seconds(), calibration_seconds())))


if __name__ == "__main__":
    main(sys.argv[1], [int(tok) for tok in sys.argv[2:]])

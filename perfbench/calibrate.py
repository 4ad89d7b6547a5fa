"""Host-speed calibration for the benchmark's timings.

Shared hosts drift in speed by up to 2x over tens of seconds, far more
than the changes the benchmark has to resolve.  :func:`calibration_seconds`
times a fixed kernel shaped like mpccert's inner loops: 2x2 NumPy
products, small array construction, float conversion and Python
arithmetic, as in planning and certifying.  It does not call mpccert, so
changes to the program cannot move it.  :func:`calibrated` rescales a
wall time measured next to the kernel to a host of nominal speed.
"""

import math
import time

import numpy as np

# About the kernel's median time on the host the baseline was taken on
# (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, NumPy 2.4.6).
NOMINAL_S = 0.036

_A = np.array([[1.0, 1.1], [-1.1, 1.0]])
_B = np.array([[0.0], [1.0]])
_K = np.array([[0.4, 0.9]])
_P = np.array([[2.0, 0.3], [0.3, 1.5]])


def calibration_seconds() -> float:
    """Wall time of one run of the kernel: the host's current speed."""
    start = time.perf_counter()
    x = np.array([0.3, -0.2])
    acc = 0.0
    for _ in range(4000):
        y = _P @ x
        acc += float(x @ y)
        x = np.array([x[1], -x[0]]) * 1.0001
    rows = []
    for i in range(350):
        x0 = np.array([math.cos(i), math.sin(i)])
        states = np.empty((4, 2))
        costs = np.empty(3)
        states[0] = x0
        for k in range(3):
            xk = states[k]
            u = -_K @ xk
            costs[k] = float(xk @ xk + u @ u)
            states[k + 1] = _A @ xk + _B @ u
        v0, v2 = float(x0 @ _P @ x0), float(states[2] @ _P @ states[2])
        rows.append((i, (v0 - v2) / float(np.sum(costs[:2]))))
    return time.perf_counter() - start


def calibrated(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` on a host where the kernel takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / (0.5 * (kernel_before + kernel_after))

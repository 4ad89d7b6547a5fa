import sys

import pytest

from mpccert.refchecks import reference_instance
from mpccert.riccati import LqBellmanSolver, LqLadderSolver
from mpccert.sweep import unit_circle


@pytest.fixture(scope="session")
def lq():
    return reference_instance()


@pytest.fixture(scope="session")
def solver(lq):
    return LqLadderSolver(lq, 8)


@pytest.fixture(scope="session")
def bellman(lq):
    return LqBellmanSolver(lq, 8)


@pytest.fixture(scope="session")
def grid():
    return unit_circle(128)


@pytest.fixture
def engine_calls(monkeypatch):
    """The row count of each engine run (``run_rows`` call) that :mod:`mpccert.sweep` makes, in call order."""
    module = sys.modules["mpccert.sweep"]  # the package's ``sweep`` is the function
    run_rows, sizes = module.run_rows, []

    def counted(solver, X0, *args, **kwargs):
        sizes.append(len(X0))
        return run_rows(solver, X0, *args, **kwargs)

    monkeypatch.setattr(module, "run_rows", counted)
    return sizes


@pytest.fixture
def iterations(monkeypatch):
    """A list that gains one entry per outer iteration (``_Lockstep._iterate`` call) of every engine run."""
    from mpccert.engine import _Lockstep

    iterate, calls = _Lockstep._iterate, []

    def counted(self, iteration):
        calls.append(iteration)
        return iterate(self, iteration)

    monkeypatch.setattr(_Lockstep, "_iterate", counted)
    return calls

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

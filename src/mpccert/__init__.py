"""Receding-horizon control with runtime stability certificates.

The package closes a model-predictive control loop around an exact
finite-horizon solver and certifies, while the loop runs, both descent
of the finite-horizon value and a quantified degree of suboptimality.
Four scheduling variants trade off how many planned steps are applied
between re-solves, whether plans may be replaced mid-stretch, and
whether a slack account may bridge iterates that fail the pointwise
test.

The package namespace is lazy: each name of ``__all__`` is imported from
its submodule on first access, so a caller loads only the modules it
uses.  The planner (``load_plant``, the solvers and ``value_drop_grid``)
needs :mod:`~mpccert.errors`, :mod:`~mpccert.model` and
:mod:`~mpccert.riccati`; the closed loop adds :mod:`~mpccert.certify`
and :mod:`~mpccert.engine`, sweeps :mod:`~mpccert.sweep`, and the
reference checks :mod:`~mpccert.refchecks`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCES = {
    "Certificate": "certify",
    "SlackAccumulator": "certify",
    "alpha_m_step": "certify",
    "certificates_to_csv": "certify",
    "update_acceptable": "certify",
    "AlgorithmConfig": "engine",
    "BatchRun": "engine",
    "ClosedLoopTrace": "engine",
    "UpdateSchedule": "engine",
    "WindowRecord": "engine",
    "run_batch": "engine",
    "run_closed_loop": "engine",
    "shrink_horizon_check": "engine",
    "AdmissibilityError": "errors",
    "ConfigError": "errors",
    "MpcCertError": "errors",
    "PlantFormatError": "errors",
    "SolverError": "errors",
    "LinearQuadraticInstance": "model",
    "load_plant": "model",
    "reference_checks": "refchecks",
    "reference_instance": "refchecks",
    "LqBellmanSolver": "riccati",
    "LqLadderSolver": "riccati",
    "OpenLoopSolution": "riccati",
    "RiccatiLadder": "riccati",
    "riccati_fixed_point": "riccati",
    "value_drop_grid": "riccati",
    "InitialSet": "sweep",
    "SweepReport": "sweep",
    "horizon_comparison": "sweep",
    "sweep": "sweep",
    "unit_circle": "sweep",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Keeps ``mpccert.sweep`` the function once the submodule of that name is loaded.

    Loading a submodule sets it as an attribute of its package, so the
    module ``mpccert.sweep`` would replace the exported function.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "sweep" and isinstance(value, types.ModuleType):
            value = value.sweep
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

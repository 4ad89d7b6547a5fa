"""Receding-horizon control with runtime stability certificates.

The package closes a model-predictive control loop around an exact
finite-horizon solver and certifies, while the loop runs, both descent
of the finite-horizon value and a quantified degree of suboptimality.
Four scheduling variants trade off how many planned steps are applied
between re-solves, whether plans may be replaced mid-stretch, and
whether a slack account may bridge iterates that fail the pointwise
test.
"""

from .certify import (
    Certificate,
    SlackAccumulator,
    alpha_m_step,
    certificates_to_csv,
    rho,
    update_acceptable,
)
from .engine import (
    AlgorithmConfig,
    BatchRun,
    ClosedLoopTrace,
    UpdateSchedule,
    WindowRecord,
    run_batch,
    run_closed_loop,
    shrink_horizon_check,
)
from .errors import (
    AdmissibilityError,
    CertificateError,
    ConfigError,
    MpcCertError,
    PlantFormatError,
    SolverError,
)
from .model import LinearQuadraticInstance, load_plant
from .refchecks import reference_checks, reference_instance
from .riccati import (
    LqBellmanSolver,
    LqLadderSolver,
    OpenLoopSolution,
    RiccatiLadder,
    riccati_fixed_point,
)
from .sweep import (
    InitialSet,
    PointRecord,
    SweepReport,
    horizon_comparison,
    sweep,
    unit_circle,
    value_drop_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AlgorithmConfig",
    "BatchRun",
    "Certificate",
    "CertificateError",
    "ClosedLoopTrace",
    "ConfigError",
    "InitialSet",
    "LinearQuadraticInstance",
    "LqBellmanSolver",
    "LqLadderSolver",
    "MpcCertError",
    "OpenLoopSolution",
    "PlantFormatError",
    "PointRecord",
    "RiccatiLadder",
    "SlackAccumulator",
    "SolverError",
    "SweepReport",
    "UpdateSchedule",
    "WindowRecord",
    "alpha_m_step",
    "certificates_to_csv",
    "horizon_comparison",
    "load_plant",
    "reference_checks",
    "reference_instance",
    "rho",
    "riccati_fixed_point",
    "run_batch",
    "run_closed_loop",
    "shrink_horizon_check",
    "sweep",
    "unit_circle",
    "update_acceptable",
    "value_drop_grid",
]

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
    alpha_asymptotic,
    alpha_from_slack,
    alpha_m_step,
    certificates_to_csv,
    rho,
    splice_control,
    update_acceptable,
)
from .engine import (
    AlgorithmConfig,
    BatchRun,
    ClosedLoopTrace,
    UpdateSchedule,
    WindowRecord,
    run_alg1,
    run_alg2,
    run_alg3,
    run_alg4,
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
from .model import (
    LinearQuadraticInstance,
    SystemModel,
    load_plant,
    step,
    trajectory_cost,
)
from .refchecks import reference_checks, reference_instance
from .riccati import (
    LqBellmanSolver,
    LqLadderSolver,
    OpenLoopSolution,
    RiccatiLadder,
    lq_solve,
    riccati_fixed_point,
    riccati_ladder,
    solve,
)
from .sweep import (
    InitialSet,
    PointRecord,
    SweepReport,
    failure_set,
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
    "SystemModel",
    "UpdateSchedule",
    "WindowRecord",
    "alpha_asymptotic",
    "alpha_from_slack",
    "alpha_m_step",
    "certificates_to_csv",
    "failure_set",
    "horizon_comparison",
    "load_plant",
    "lq_solve",
    "reference_checks",
    "reference_instance",
    "rho",
    "riccati_fixed_point",
    "riccati_ladder",
    "run_alg1",
    "run_alg2",
    "run_alg3",
    "run_alg4",
    "run_batch",
    "run_closed_loop",
    "shrink_horizon_check",
    "solve",
    "splice_control",
    "step",
    "sweep",
    "trajectory_cost",
    "unit_circle",
    "update_acceptable",
    "value_drop_grid",
]

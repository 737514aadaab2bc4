"""Certified adaptive-discretization solver for convex semi-infinite
programs, with a shape-constrained polynomial regression front-end."""

from .core_loop import (
    CoreConfig,
    CoreResult,
    CoreStatus,
    Discretization,
    RunTrace,
    Stream,
    ToleranceSchedule,
    eventually_zero_schedule,
    geometric_schedule,
    run_core,
    update_discretization,
)
from .drivers import (
    OutcomeStatus,
    SequentialConfig,
    SimultaneousConfig,
    SolveOutcome,
    compute_termination_index,
    run_feas_finite,
    run_sequential,
    run_simultaneous,
)
from .errors import CertificationError, ConfigError, InputError, NumericalError
from .finite_solver import (
    DiscretizedProblem,
    DiscretizedSolveResult,
    SolveStatus,
    solve_discretized,
)
from .instances import builtin, default_y0, random_affine_instance
from .lower_level import CertifiedMax, certified_max
from .problem import (
    BoxDomain,
    ConstraintFamily,
    ConvexObjective,
    QuadraticForm,
    SipProblem,
    derive_eps_star,
    feasibility_margin,
    validate_problem,
)
from .regression import (
    RegressionSpec,
    ShapeConstraint,
    build_problem,
)
from .serialization import load_problem

__version__ = "0.1.0"

__all__ = [
    "BoxDomain",
    "CertificationError",
    "CertifiedMax",
    "ConfigError",
    "ConstraintFamily",
    "ConvexObjective",
    "CoreConfig",
    "CoreResult",
    "CoreStatus",
    "Discretization",
    "DiscretizedProblem",
    "DiscretizedSolveResult",
    "InputError",
    "NumericalError",
    "OutcomeStatus",
    "QuadraticForm",
    "RegressionSpec",
    "RunTrace",
    "SequentialConfig",
    "ShapeConstraint",
    "SimultaneousConfig",
    "SipProblem",
    "SolveOutcome",
    "SolveStatus",
    "Stream",
    "ToleranceSchedule",
    "builtin",
    "build_problem",
    "certified_max",
    "compute_termination_index",
    "default_y0",
    "derive_eps_star",
    "eventually_zero_schedule",
    "feasibility_margin",
    "geometric_schedule",
    "load_problem",
    "random_affine_instance",
    "run_core",
    "run_feas_finite",
    "run_sequential",
    "run_simultaneous",
    "solve_discretized",
    "update_discretization",
    "validate_problem",
]

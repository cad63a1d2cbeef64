"""Discrete zeroing-neural-dynamics solvers for time-variant
Sylvester-conjugate matrix equations, with a split-complex matrix kernel
and an experiment CLI."""

from .assembly import (
    ComplexGain,
    characteristic_roots,
    euler_forward_characteristic,
    is_zero_stable,
    state_from_matrix,
    zero_stability_roots,
)
from .errors import CapabilityError, ConfigError, NumericError, ShapeError
from .linalg import (
    RealMatrix,
    RealVector,
    SplitComplexMatrix,
    conjugate,
    conjugate_transpose,
    frobenius_norm,
    kron,
    pinv,
    vec,
)
from .problems import (
    BlockProvider,
    InitialState,
    PROBLEMS,
    SylvesterConjugateProblem,
    equation_residual,
    example1,
    example2,
    get_problem,
    random_initial_state,
    solution_error,
)
from .solvers import (
    Model,
    Outcome,
    SolverConfig,
    Trajectory,
    run,
    scalar_error_modulus,
    tail_max_equation_residual,
    tail_max_solution_error,
)

__all__ = [
    "BlockProvider",
    "CapabilityError",
    "ComplexGain",
    "ConfigError",
    "InitialState",
    "Model",
    "NumericError",
    "Outcome",
    "PROBLEMS",
    "RealMatrix",
    "RealVector",
    "ShapeError",
    "SolverConfig",
    "SplitComplexMatrix",
    "SylvesterConjugateProblem",
    "Trajectory",
    "characteristic_roots",
    "conjugate",
    "conjugate_transpose",
    "equation_residual",
    "euler_forward_characteristic",
    "example1",
    "example2",
    "frobenius_norm",
    "get_problem",
    "is_zero_stable",
    "kron",
    "pinv",
    "random_initial_state",
    "run",
    "scalar_error_modulus",
    "solution_error",
    "state_from_matrix",
    "tail_max_equation_residual",
    "tail_max_solution_error",
    "vec",
    "zero_stability_roots",
]

__version__ = "0.1.0"

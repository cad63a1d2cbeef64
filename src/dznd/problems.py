"""Time-variant Sylvester-conjugate matrix equation problems.

A problem is the data of the matrix equation

    X(tau) F(tau) - A(tau) conj(X(tau)) - C(tau) = 0,

with F n x n, A m x m, C and the unknown X m x n, all split-complex, for
real time tau >= 0.  Coefficients and their time derivatives are supplied
as separate providers; the solvers consume the derivatives explicitly, so
problems should supply analytic derivatives whenever possible (the
finite-difference fallback below limits the achievable accuracy order).

Two benchmark problems with known exact solutions ship in a registry
keyed by name: ``example1`` (constant coefficients) and ``example2``
(trigonometric time-variant coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ShapeError
from .linalg import SplitComplexMatrix, conjugate, frobenius_norm

CoefficientProvider = Callable[
    [float], tuple[SplitComplexMatrix, SplitComplexMatrix, SplitComplexMatrix]
]
SolutionProvider = Callable[[float], SplitComplexMatrix]


@dataclass(frozen=True)
class SylvesterConjugateProblem:
    """One instance of the matrix equation, with providers over time.

    ``coefficients(tau)`` returns (F, A, C); ``derivatives(tau)`` returns
    their time derivatives with matching shapes.  Providers must be pure,
    total on the solve horizon, and consistent with each other (the
    derivative of F at tau is what ``derivatives`` claims it is).
    ``theoretical_solution``, when present, maps tau to the unique exact
    solution.

    A run calls ``coefficients`` and ``theoretical_solution`` once per
    record and ``derivatives`` once per step, one block of
    :data:`~dznd.solvers.BLOCK_RECORDS` records ahead of the steps.  A
    run that diverges may so have called them at up to BLOCK_RECORDS - 1
    records past the record where it stopped; no run calls them at a tau
    past its duration.
    """

    m: int
    n: int
    coefficients: CoefficientProvider
    derivatives: CoefficientProvider
    theoretical_solution: Optional[SolutionProvider] = None
    label: str = ""


@dataclass(frozen=True)
class InitialState:
    """Starting matrix for a solver run plus the seed that produced it."""

    x0: SplitComplexMatrix
    seed: int


def _check_candidate(problem: SylvesterConjugateProblem, x: SplitComplexMatrix):
    if x.shape != (problem.m, problem.n):
        raise ShapeError(
            f"candidate shape {x.shape} does not match problem "
            f"dimensions ({problem.m}, {problem.n})"
        )


def equation_residual(
    problem: SylvesterConjugateProblem, x: SplitComplexMatrix, tau: float
) -> float:
    """Frobenius norm of X F - A conj(X) - C at time tau."""
    _check_candidate(problem, x)
    f, a, c = problem.coefficients(tau)
    return frobenius_norm(x @ f - a @ conjugate(x) - c)


def solution_error(
    problem: SylvesterConjugateProblem, x: SplitComplexMatrix, tau: float
) -> float:
    """Frobenius norm of x minus the exact solution at time tau."""
    if problem.theoretical_solution is None:
        raise CapabilityError(
            f"problem {problem.label or '<unnamed>'!r} has no theoretical solution"
        )
    _check_candidate(problem, x)
    return frobenius_norm(x - problem.theoretical_solution(tau))


def random_initial_state(
    problem: SylvesterConjugateProblem, seed: int
) -> InitialState:
    """Draw an m x n starting matrix with every real and imaginary entry
    uniform in [-5, 5].  Deterministic for a fixed seed: the real block is
    drawn first, then the imaginary block."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(-5.0, 5.0, size=(problem.m, problem.n))
    im = rng.uniform(-5.0, 5.0, size=(problem.m, problem.n))
    return InitialState(x0=SplitComplexMatrix(re, im), seed=seed)


def finite_difference_derivatives(
    coefficients: CoefficientProvider, step: float = 1e-6
) -> CoefficientProvider:
    """Central-difference derivative provider for user problems that lack
    analytic derivatives.  Accuracy-limiting: differencing noise ~1e-10
    dominates long before the solvers' own error floor."""

    def derivs(tau: float):
        lo = coefficients(max(tau - step, 0.0))
        hi = coefficients(tau + step)
        width = (tau + step) - max(tau - step, 0.0)
        return tuple(
            SplitComplexMatrix((h.re - l.re) / width, (h.im - l.im) / width)
            for h, l in zip(hi, lo)
        )

    return derivs


# ---------------------------------------------------------------------------
# Benchmark problem 1: constant coefficients (3 x 2 unknown).
# ---------------------------------------------------------------------------

_F1 = SplitComplexMatrix([[0, 0], [1, -1]], [[2, 1], [0, 1]])
_A1 = SplitComplexMatrix(
    [[1, -2, -1], [0, 0, 0], [0, -1, 1]],
    [[0, -1, 1], [0, 1, 0], [0, 0, -1]],
)
_C1 = SplitComplexMatrix(
    [[-1, 1], [0, 0], [0, 1]],
    [[1, 0], [0, 1], [-1, -2]],
)
# Exact solution entries are small rationals, converted to float once here.
_X1 = SplitComplexMatrix(
    [[21 / 40, -9 / 8], [1 / 2, 3 / 4], [-6 / 5, -13 / 20]],
    [[-33 / 40, 5 / 8], [1 / 4, -1 / 2], [21 / 20, 9 / 5]],
)
_ZERO_F1 = SplitComplexMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
_ZERO_A1 = SplitComplexMatrix(np.zeros((3, 3)), np.zeros((3, 3)))
_ZERO_C1 = SplitComplexMatrix(np.zeros((3, 2)), np.zeros((3, 2)))


def example1() -> SylvesterConjugateProblem:
    """Constant-coefficient benchmark with a unique exact solution."""
    return SylvesterConjugateProblem(
        m=3,
        n=2,
        coefficients=lambda tau: (_F1, _A1, _C1),
        derivatives=lambda tau: (_ZERO_F1, _ZERO_A1, _ZERO_C1),
        theoretical_solution=lambda tau: _X1,
        label="example1",
    )


# ---------------------------------------------------------------------------
# Benchmark problem 2: trigonometric coefficients (2 x 2 unknown).
# ---------------------------------------------------------------------------


def _coeffs2(tau: float):
    s, c = np.sin(tau), np.cos(tau)
    s2 = np.sin(2 * tau)
    f = SplitComplexMatrix([[6 + s, c], [c, 4 + s]], [[c, s], [s, c]])
    a = SplitComplexMatrix([[c, s], [-s, c]], [[s, c], [c, -s]])
    cc = SplitComplexMatrix(
        [
            [2 * c * c - 2 * c * s + 6 * s, 4 * c + 2 * c * s - 2 * c * c],
            [-2 * s2 - 6 * c + 2, 2 * s2 - 4 * s - 2],
        ],
        [
            [2 * c * c + 2 * c * s + 6 * s, 4 * c + 2 * c * s + 2 * c * c],
            [-2 * s2 - 6 * c - 2, -2 * s2 - 4 * s - 2],
        ],
    )
    return f, a, cc


def _derivs2(tau: float):
    # Term-wise analytic derivatives of the entries in _coeffs2, using
    # d(2 cos^2) = -2 sin(2 tau) and d(2 sin cos) = 2 cos(2 tau).
    s, c = np.sin(tau), np.cos(tau)
    s2, c2 = np.sin(2 * tau), np.cos(2 * tau)
    fd = SplitComplexMatrix([[c, -s], [-s, c]], [[-s, c], [c, -s]])
    ad = SplitComplexMatrix([[-s, c], [-c, -s]], [[c, -s], [-s, -c]])
    cd = SplitComplexMatrix(
        [
            [-2 * s2 - 2 * c2 + 6 * c, -4 * s + 2 * c2 + 2 * s2],
            [-4 * c2 + 6 * s, 4 * c2 - 4 * c],
        ],
        [
            [-2 * s2 + 2 * c2 + 6 * c, -4 * s + 2 * c2 - 2 * s2],
            [-4 * c2 + 6 * s, -4 * c2 - 4 * c],
        ],
    )
    return fd, ad, cd


def _solution2(tau: float) -> SplitComplexMatrix:
    s, c = np.sin(tau), np.cos(tau)
    p = np.array([[s, c], [-c, -s]])
    return SplitComplexMatrix(p, p.copy())


def example2() -> SylvesterConjugateProblem:
    """Time-variant trigonometric benchmark with a unique exact solution."""
    return SylvesterConjugateProblem(
        m=2,
        n=2,
        coefficients=_coeffs2,
        derivatives=_derivs2,
        theoretical_solution=_solution2,
        label="example2",
    )


PROBLEMS: dict[str, Callable[[], SylvesterConjugateProblem]] = {
    "example1": example1,
    "example2": example2,
}


def get_problem(name: str) -> SylvesterConjugateProblem:
    """Look up a registered problem by name."""
    try:
        return PROBLEMS[name]()
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; registered: {known}") from None

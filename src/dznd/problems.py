"""Time-variant Sylvester-conjugate matrix equation problems.

A problem is the data of the matrix equation

    X(tau) F(tau) - A(tau) conj(X(tau)) - C(tau) = 0,

with F n x n, A m x m, C and the unknown X m x n, all split-complex, for
real time tau >= 0.  Coefficients and their time derivatives are supplied
as separate providers; the solvers consume the derivatives explicitly, so
a problem must supply them analytically.

A provider is a function of one tau, or a :class:`BlockProvider`: a
formula written once over an array of tau, which a run evaluates once
per block of records and which still answers at one tau.

Two benchmark problems with known exact solutions ship in a registry
keyed by name: ``example1`` (constant coefficients) and ``example2``
(trigonometric time-variant coefficients); their providers are block
providers.
"""

from __future__ import annotations

import operator
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
class BlockProvider:
    """A provider written over an array of tau.

    ``over(taus)`` takes a 1-D float64 array of k times and returns the
    values at every one of them as complex128 stacks with a leading axis
    of length k: the tuple (F, A, C) for coefficients or derivatives, or
    one stack of X* for a solution.  Called at one tau, the provider
    evaluates ``over`` on a one-element array and returns split matrices,
    as a per-tau provider does, so each formula is written once.
    """

    over: Callable[[np.ndarray], object]

    def __call__(self, tau: float):
        values = self.over(np.array([tau], dtype=np.float64))
        if isinstance(values, tuple):
            return tuple(SplitComplexMatrix(z[0].real, z[0].imag) for z in values)
        return SplitComplexMatrix(values[0].real, values[0].imag)


@dataclass(frozen=True)
class SylvesterConjugateProblem:
    """One instance of the matrix equation, with providers over time.

    ``coefficients(tau)`` returns (F, A, C); ``derivatives(tau)`` returns
    their time derivatives with matching shapes.  Providers must be pure,
    total on the solve horizon, and consistent with each other (the
    derivative of F at tau is what ``derivatives`` claims it is).
    ``theoretical_solution``, when present, maps tau to the unique exact
    solution.  The sizes m and n are integers >= 1; anything else raises
    :class:`~dznd.errors.ShapeError`.

    A run works one block of at most
    :data:`~dznd.solvers.BLOCK_RECORDS` records ahead of the steps.  It
    calls a :class:`BlockProvider` once per block, with the block's
    array of tau: ``coefficients`` and ``theoretical_solution`` at its
    records, ``derivatives`` at those that take a step.  Any other
    provider it calls once per record (``coefficients``,
    ``theoretical_solution``) or step (``derivatives``).  A run that
    diverges may so have evaluated them at up to BLOCK_RECORDS - 1
    records past the record where it stopped; no run evaluates them at
    a tau past its duration.
    """

    m: int
    n: int
    coefficients: CoefficientProvider
    derivatives: CoefficientProvider
    theoretical_solution: Optional[SolutionProvider] = None
    label: str = ""

    def __post_init__(self):
        for name in ("m", "n"):
            size = getattr(self, name)
            if not (hasattr(size, "__index__") and operator.index(size) >= 1):
                raise ShapeError(
                    f"problem dimension {name} must be an integer >= 1, "
                    f"got {size!r}"
                )


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


# ---------------------------------------------------------------------------
# Benchmark problem 1: constant coefficients (3 x 2 unknown).
# ---------------------------------------------------------------------------


def _constant(re, im) -> np.ndarray:
    """A complex128 matrix, set part by part."""
    z = np.empty(np.shape(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


_F1 = _constant([[0, 0], [1, -1]], [[2, 1], [0, 1]])
_A1 = _constant(
    [[1, -2, -1], [0, 0, 0], [0, -1, 1]],
    [[0, -1, 1], [0, 1, 0], [0, 0, -1]],
)
_C1 = _constant(
    [[-1, 1], [0, 0], [0, 1]],
    [[1, 0], [0, 1], [-1, -2]],
)
# Exact solution entries are small rationals, converted to float once here.
_X1 = _constant(
    [[21 / 40, -9 / 8], [1 / 2, 3 / 4], [-6 / 5, -13 / 20]],
    [[-33 / 40, 5 / 8], [1 / 4, -1 / 2], [21 / 20, 9 / 5]],
)
_ZEROS1 = tuple(np.zeros_like(z) for z in (_F1, _A1, _C1))


def _held(taus: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each of ``values`` at every tau, as a read-only broadcast stack."""
    return tuple(np.broadcast_to(z, (len(taus),) + z.shape) for z in values)


def example1() -> SylvesterConjugateProblem:
    """Constant-coefficient benchmark with a unique exact solution."""
    return SylvesterConjugateProblem(
        m=3,
        n=2,
        coefficients=BlockProvider(lambda taus: _held(taus, _F1, _A1, _C1)),
        derivatives=BlockProvider(lambda taus: _held(taus, *_ZEROS1)),
        theoretical_solution=BlockProvider(lambda taus: _held(taus, _X1)[0]),
        label="example1",
    )


# ---------------------------------------------------------------------------
# Benchmark problem 2: trigonometric coefficients (2 x 2 unknown).
# ---------------------------------------------------------------------------


def _stack(re: list, im: list) -> np.ndarray:
    """The (k, rows, cols) complex128 stack whose entry (i, j) has the
    parts ``re[i][j]`` and ``im[i][j]``, arrays over k taus, set part by
    part."""
    re, im = np.array(re), np.array(im)
    z = np.empty((re.shape[-1],) + re.shape[:-1], dtype=np.complex128)
    z.real, z.imag = re.transpose(2, 0, 1), im.transpose(2, 0, 1)
    return z


def _example2_coefficients(taus: np.ndarray) -> tuple[np.ndarray, ...]:
    s, c = np.sin(taus), np.cos(taus)
    s2 = np.sin(2 * taus)
    f = _stack([[6 + s, c], [c, 4 + s]], [[c, s], [s, c]])
    a = _stack([[c, s], [-s, c]], [[s, c], [c, -s]])
    cc = _stack(
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


def _example2_derivatives(taus: np.ndarray) -> tuple[np.ndarray, ...]:
    # Term-wise analytic derivatives of the entries in
    # _example2_coefficients, using d(2 cos^2) = -2 sin(2 tau) and
    # d(2 sin cos) = 2 cos(2 tau).
    s, c = np.sin(taus), np.cos(taus)
    s2, c2 = np.sin(2 * taus), np.cos(2 * taus)
    fd = _stack([[c, -s], [-s, c]], [[-s, c], [c, -s]])
    ad = _stack([[-s, c], [-c, -s]], [[c, -s], [-s, -c]])
    cd = _stack(
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


def _example2_solution(taus: np.ndarray) -> np.ndarray:
    s, c = np.sin(taus), np.cos(taus)
    p = [[s, c], [-c, -s]]
    return _stack(p, p)


def example2() -> SylvesterConjugateProblem:
    """Time-variant trigonometric benchmark with a unique exact solution."""
    return SylvesterConjugateProblem(
        m=2,
        n=2,
        coefficients=BlockProvider(_example2_coefficients),
        derivatives=BlockProvider(_example2_derivatives),
        theoretical_solution=BlockProvider(_example2_solution),
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

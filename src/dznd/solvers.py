"""Fixed-step trajectory integration for the two solver models.

Both models drive the equation error E = X F - A conj(X) - C along
dE/dt = -gamma E.  Each step forms, in complex128,

    E = X F - A conj(X) - C,
    G = Cdot + Adot conj(X) - X Fdot - gamma E,

solves L(D) = D F - A conj(D) = G for the direction D with
:class:`~dznd.assembly.OperatorFactors`, and updates the stacked real
state as x(tau_{k+1}) = x(tau_k) + epsilon * stack(D).

Written over the reals, dznd2-2i's drive b_dot - W_dot x - gamma (W x - b)
is the same G, so the two models take the same step; they differ only
in the gains they admit: dznd1-2i also takes a complex gain, which
multiplies E in the complex field, and dznd2-2i only a real one.

Each solve equals pinv(W) stack(G) for the 2mn x 2mn real form W of L.
Above a size crossover it comes, when certified and checked, from the
O(m^3 + n^3) Sylvester form of L; otherwise from the inverse of W
whenever its condition number proves the pseudo-inverse would cut no
singular value, and from the SVD pseudo-inverse when not.  A run counts
the steps that took the first path and those that needed the last.

A run does the work that depends on tau alone one block of
:data:`BLOCK_RECORDS` records at a time: it calls the providers at every
record of the block, converts their values to complex128 stacks, and
factors the block's distinct operators together.  It keeps the factors
of L while F and A stay bitwise the same (the bytes of both arrays are
compared, so even a changed sign of zero refactors), across block
boundaries too: with constant coefficients it factors L once and only
applies the factors at every later step, with the same answer to the
last bit.  It counts the factorizations its steps used.  The loop over
the steps keeps only what depends on the state: the equation error, the
two residuals, the drive, one solve and the update.

A run records, at every sample time, the state together with the
equation residual ||E||_F and the solution error ||X - X*||_F (nan when
the problem has no known solution), and stops early when the state goes
non-finite or the residual passes the divergence threshold.  The
coefficients are evaluated once per record: the E behind the residual
is the E of the drive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .assembly import (
    ComplexGain,
    OperatorFactors,
    SolvePath,
    state_from_matrix,
    unstack,
)
from .errors import CapabilityError, ConfigError, ShapeError
from .linalg import RealVector
from .problems import InitialState, SylvesterConjugateProblem


class Model(enum.Enum):
    DZND1_2I = "dznd1-2i"
    DZND2_2I = "dznd2-2i"

    @classmethod
    def from_name(cls, name: str) -> "Model":
        for model in cls:
            if model.value == name:
                return model
        known = ", ".join(m.value for m in cls)
        raise KeyError(f"unknown model {name!r}; known models: {known}")


class Outcome(enum.Enum):
    COMPLETED = "COMPLETED"
    DIVERGED = "DIVERGED"


# Relative slack when deciding whether duration/epsilon is an integer.
_STEP_COUNT_SLACK = 1e-9
# A run allocates all k+1 records up front, 33 + 16mn bytes each (a step
# index, a time, two residuals, a finite flag and 2mn state floats): about
# 0.1 kB for a 2x2 problem, so the 10^7-record cap bounds a 2x2 run at
# about 1 GB and a 16x16 run at about 41 GB.  Past it a run is refused
# rather than left to exhaust memory.
MAX_STEP_COUNT = 10**7
# A run evaluates its providers, converts their values to complex128 and
# factors its operators for this many records at a time.  A run that
# diverges has evaluated its providers at most BLOCK_RECORDS - 1 records
# past the record where it stopped, and never past the duration.
BLOCK_RECORDS = 64


@dataclass(frozen=True)
class SolverConfig:
    """Everything that determines a run besides the problem and the start."""

    model: Model
    gamma: ComplexGain
    epsilon: float
    duration: float = 10.0
    pinv_tolerance: Optional[float] = None
    divergence_threshold: float = 1e12

    @property
    def step_count(self) -> int:
        return int(round(self.duration / self.epsilon))

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming the first violated invariant."""
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(
                f"step size epsilon must lie in (0, 1), got {self.epsilon}"
            )
        if not 0.0 < self.duration < math.inf:
            raise ConfigError(
                f"duration must be positive and finite, got {self.duration}"
            )
        ratio = self.duration / self.epsilon
        k = round(ratio) if math.isfinite(ratio) else 0
        if k < 1 or abs(ratio - k) > _STEP_COUNT_SLACK * max(1.0, abs(ratio)):
            raise ConfigError(
                f"duration/epsilon = {ratio!r} is not an integral step count"
            )
        if k > MAX_STEP_COUNT:
            raise ConfigError(
                f"duration/epsilon = {k} steps exceeds the step count limit "
                f"{MAX_STEP_COUNT}"
            )
        if self.model is Model.DZND2_2I and not self.gamma.is_real:
            raise ConfigError(
                f"model {self.model.value} requires a real gain, got {self.gamma}"
            )
        if not self.divergence_threshold > 0.0:
            raise ConfigError(
                f"divergence threshold must be positive, got "
                f"{self.divergence_threshold}"
            )
        if self.pinv_tolerance is not None and not (
            0.0 <= self.pinv_tolerance < math.inf
        ):
            raise ConfigError(
                f"pinv tolerance must be nonnegative and finite, got "
                f"{self.pinv_tolerance}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Per-step records of a run, stored as aligned arrays.

    Record i holds step index ``steps[i]``, sample time ``taus[i]``
    (= steps[i] * epsilon), the stacked state ``states[i]``, both
    residuals, and whether everything was still finite.
    ``structured_solve_steps`` counts the steps solved through the
    Sylvester form, and ``pinv_fallback_steps`` those whose solve needed
    the SVD pseudo-inverse because no other path could be certified.
    ``operator_factorizations`` counts the times L was factored: once
    per run with constant F and A, once per step when they move.
    """

    steps: np.ndarray
    taus: np.ndarray
    states: np.ndarray
    equation_residuals: np.ndarray
    solution_errors: np.ndarray
    finite: np.ndarray
    outcome: Outcome
    diverged_at: Optional[int] = None
    pinv_fallback_steps: int = 0
    structured_solve_steps: int = 0
    operator_factorizations: int = 0

    def __len__(self) -> int:
        return len(self.steps)


def tail_max_equation_residual(trajectory: Trajectory, tau_from: float) -> float:
    """Largest equation residual over records with tau >= tau_from."""
    mask = trajectory.taus >= tau_from
    if not mask.any():
        return math.nan
    return float(trajectory.equation_residuals[mask].max())


def tail_max_solution_error(trajectory: Trajectory, tau_from: float) -> float:
    """Largest solution error over records with tau >= tau_from."""
    mask = trajectory.taus >= tau_from
    if not mask.any():
        return math.nan
    return float(trajectory.solution_errors[mask].max())


def scalar_error_modulus(gamma: ComplexGain, epsilon: float) -> float:
    """|1 - epsilon*gamma|: the per-step growth factor of each scalar
    error mode.  Values above one predict divergence of the dznd1 model."""
    return math.hypot(1.0 - epsilon * gamma.re, epsilon * gamma.im)


class _Block(NamedTuple):
    """Provider values at consecutive records as complex128 stacks: F, A,
    C and, when asked for, X* at every record, and the derivatives of F,
    A and C at the records that take a step.

    Everything in a step that depends on tau alone comes from here; the
    one drive expression of both models is :meth:`advance`.
    """

    f: np.ndarray
    a: np.ndarray
    c: np.ndarray
    fd: Optional[np.ndarray]
    ad: Optional[np.ndarray]
    cd: Optional[np.ndarray]
    exact: Optional[np.ndarray]

    @classmethod
    def evaluate(
        cls,
        problem: SylvesterConjugateProblem,
        taus: list[float],
        steps: int,
        with_solution: bool,
    ) -> "_Block":
        """Call the coefficient (and solution) providers at every tau in
        ``taus`` and the derivative provider at the first ``steps``,
        checking every shape against the problem."""
        f, a, c = _coefficient_stacks(problem, problem.coefficients, taus)
        exact = None
        if with_solution:
            solutions = [problem.theoretical_solution(tau) for tau in taus]
            for x in solutions:
                if x.shape != (problem.m, problem.n):
                    raise ShapeError(
                        f"theoretical solution shape {x.shape} does not match "
                        f"problem dimensions {(problem.m, problem.n)}"
                    )
            exact = _complex_stack(solutions)
        fd, ad, cd = _coefficient_stacks(
            problem, problem.derivatives, taus[:steps]
        )
        return cls(f, a, c, fd, ad, cd, exact)

    def equation_error(self, i: int, x: np.ndarray) -> np.ndarray:
        """E = X F - A conj(X) - C at record i."""
        return x @ self.f[i] - self.a[i] @ np.conj(x) - self.c[i]

    def advance(
        self,
        i: int,
        state: RealVector,
        x: np.ndarray,
        e: np.ndarray,
        gamma: complex,
        epsilon: float,
        factors: OperatorFactors,
        member: int,
    ) -> tuple[RealVector, SolvePath]:
        """The update from ``state`` = stack(X) at record i, whose
        equation error is E and whose L is member ``member`` of
        ``factors``, and the path its solve took."""
        drive = self.cd[i] + self.ad[i] @ np.conj(x) - x @ self.fd[i] - gamma * e
        direction, path = factors.solve(member, drive)
        return state + epsilon * direction, path


def _complex_stack(matrices: list) -> np.ndarray:
    """The split matrices as one complex128 stack, set part by part (see
    :meth:`~dznd.linalg.SplitComplexMatrix.to_complex`)."""
    z = np.empty((len(matrices),) + matrices[0].shape, dtype=np.complex128)
    z.real, z.imag = [x.re for x in matrices], [x.im for x in matrices]
    return z


def _coefficient_stacks(
    problem: SylvesterConjugateProblem, provider, taus: list[float]
) -> tuple[np.ndarray, ...]:
    """``provider(tau)`` for every tau as stacks of F, A and C, after
    checking the shapes of each F, A and C against the problem."""
    m, n = problem.m, problem.n
    values = [provider(tau) for tau in taus]
    for f, a, c in values:
        if f.shape != (n, n) or a.shape != (m, m) or c.shape != (m, n):
            raise ShapeError(
                f"provider returned shapes F{f.shape}, A{a.shape}, C{c.shape}; "
                f"expected F({n},{n}), A({m},{m}), C({m},{n})"
            )
    if not values:
        return (None,) * 3
    return tuple(_complex_stack(list(part)) for part in zip(*values))


def step_dznd1(
    problem: SylvesterConjugateProblem,
    state: RealVector,
    gamma: ComplexGain,
    tau: float,
    epsilon: float,
    pinv_tolerance: Optional[float] = None,
) -> RealVector:
    """One update of the complex-field model from the pre-step state."""
    block = _Block.evaluate(problem, [tau], 1, with_solution=False)
    x = unstack(state, problem.m, problem.n)
    factors = OperatorFactors(block.f, block.a, pinv_tolerance)
    return block.advance(
        0, state, x, block.equation_error(0, x), complex(gamma.re, gamma.im),
        epsilon, factors, 0,
    )[0]


def step_dznd2(
    problem: SylvesterConjugateProblem,
    state: RealVector,
    gamma: ComplexGain,
    tau: float,
    epsilon: float,
    pinv_tolerance: Optional[float] = None,
) -> RealVector:
    """One update of the real-field model from the pre-step state: the
    dznd1-2i update, for real gains only."""
    if not gamma.is_real:
        raise CapabilityError(
            f"model dznd2-2i is defined for real gains only, got {gamma}"
        )
    return step_dznd1(problem, state, gamma, tau, epsilon, pinv_tolerance)


def run(
    problem: SylvesterConjugateProblem,
    config: SolverConfig,
    initial: InitialState,
) -> Trajectory:
    """Integrate the configured model over k = duration/epsilon steps.

    Deterministic for fixed inputs.  Halts early with a DIVERGED outcome
    as soon as a record is non-finite or its equation residual exceeds
    the divergence threshold; the offending record is kept.
    """
    config.validate()
    if initial.x0.shape != (problem.m, problem.n):
        raise ShapeError(
            f"initial state shape {initial.x0.shape} does not match problem "
            f"dimensions ({problem.m}, {problem.n})"
        )
    has_solution = problem.theoretical_solution is not None
    k_total = config.step_count
    m, n = problem.m, problem.n

    state = state_from_matrix(initial.x0)
    gamma = complex(config.gamma.re, config.gamma.im)
    taus = np.empty(k_total + 1)
    states = np.empty((k_total + 1, state.size))
    eq_residuals = np.empty(k_total + 1)
    sol_errors = np.empty(k_total + 1)
    finite_flags = np.empty(k_total + 1, dtype=bool)
    outcome = Outcome.COMPLETED
    diverged_at: Optional[int] = None
    paths = dict.fromkeys(SolvePath, 0)
    factorizations = 0
    # The operator of the last step taken, as its bytes and as a member
    # of some block's factors; it carries across block boundaries.
    key, factors, member = None, None, 0

    for k in range(k_total + 1):
        i = k % BLOCK_RECORDS
        if i == 0:
            block_taus = [
                j * config.epsilon
                for j in range(k, min(k + BLOCK_RECORDS, k_total + 1))
            ]
            steps = min(len(block_taus), k_total - k)
            block = _Block.evaluate(problem, block_taus, steps, has_solution)
            # The steps whose operator differs bitwise from the one before
            # (the bytes of F and A are compared, so even a changed sign
            # of zero refactors) start a new member of the block's factors.
            starts = {}
            for j in range(steps):
                step_key = (block.f[j].tobytes(), block.a[j].tobytes())
                if step_key != key:
                    starts[j] = len(starts)
                    key = step_key
            block_factors = OperatorFactors(
                block.f[list(starts)], block.a[list(starts)],
                config.pinv_tolerance,
            )

        tau = block_taus[i]
        x = unstack(state, m, n)
        e = block.equation_error(i, x)
        eq = float(np.linalg.norm(e))
        sol = (
            float(np.linalg.norm(x - block.exact[i])) if has_solution
            else math.nan
        )
        finite = bool(np.isfinite(state).all() and np.isfinite(eq))

        taus[k] = tau
        states[k] = state
        eq_residuals[k] = eq
        sol_errors[k] = sol
        finite_flags[k] = finite

        if not finite or eq > config.divergence_threshold:
            outcome = Outcome.DIVERGED
            diverged_at = k
            break
        if k == k_total:
            break
        if i in starts:
            factors, member = block_factors, starts[i]
            factorizations += 1
        state, path = block.advance(
            i, state, x, e, gamma, config.epsilon, factors, member
        )
        paths[path] += 1

    records = k + 1
    return Trajectory(
        steps=np.arange(records, dtype=np.int64),
        taus=taus[:records],
        states=states[:records],
        equation_residuals=eq_residuals[:records],
        solution_errors=sol_errors[:records],
        finite=finite_flags[:records],
        outcome=outcome,
        diverged_at=diverged_at,
        pinv_fallback_steps=paths[SolvePath.PINV],
        structured_solve_steps=paths[SolvePath.STRUCTURED],
        operator_factorizations=factorizations,
    )

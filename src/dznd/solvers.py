"""Fixed-step trajectory integration for the two solver models.

Both models drive the equation error E = X F - A conj(X) - C along
dE/dt = -gamma E.  Each step forms, in complex128,

    E = X F - A conj(X) - C,
    G = Cdot + Adot conj(X) - X Fdot - gamma E,

solves L(D) = D F - A conj(D) = G for the direction D, and updates the
stacked real state as x(tau_{k+1}) = x(tau_k) + epsilon * stack(D).

Written over the reals, dznd2-2i's drive b_dot - W_dot x - gamma (W x - b)
is the same G, so the two models take the same step; they differ only
in the gains they admit: dznd1-2i also takes a complex gain, which
multiplies E in the complex field, and dznd2-2i only a real one.

Each solve equals pinv(W) stack(G) for the 2mn x 2mn real form W of L.
Above a size crossover it comes, when certified and checked, from the
Sylvester form of L; otherwise from the inverse of W whenever its
condition number proves the pseudo-inverse would cut no singular value,
and from the SVD pseudo-inverse when not.  A run records, for each step
it took, the :class:`~dznd.assembly.SolvePath` of its solve and whether
it factored L; its counts of the steps that took the first path, of
those that needed the last, and of the factorizations of L are derived
from these.

A run works one block of records at a time: :data:`BLOCK_RECORDS`, or
fewer for a problem whose stacks would pass :data:`BLOCK_BYTES`
(:func:`block_records`).  It evaluates the providers at every record of
the block as complex128 stacks; each provider is a
:class:`~dznd.problems.BlockProvider` (a problem adapts a function of
one tau when it is built), called once per block with the block's array
of tau.  The run picks its solver once, by
:func:`~dznd.assembly.solver_class`: a
:class:`~dznd.assembly.DenseSolver` below the structured crossover, a
:class:`~dznd.assembly.StructuredSolver` from it up.  Each block the run
calls the solver's ``advance`` once, for every member, and nothing
else.  The solver owns the rest: it finds the block's operators from
the bits of its F and A and of the last step before it, which it keeps;
takes the steps; and finds where each member stops.  It gives each
member's paths and factored flags and its records' ||E||_F and
||X - X*||_F, cut at that member's stop.  How each solver steps is told
in its own docstring.

Runs that share epsilon, duration and the pinv tolerance, and differ in
model, gain or divergence threshold, go in lockstep as one batch,
:func:`run_batch`, whose members each take their own run's blocks and
equal it bitwise.  They share each block's provider values, its
operators and what the solver forms of them alone.  The batch keeps its
records as rows of stacked arrays, one row per member, and after each
block one loop over the members still running keeps their residuals,
paths and factored flags, one slice of each a member.  A member that
stops keeps its records and leaves the batch.  An exception raised in a
block (by a provider, a solve, or a warning made an error) ends the
members still running there; those that stopped before keep their
records.

There is one way to integrate: :func:`run` is a batch of one, and a
single step is :func:`run` with duration = epsilon.

A run records, at every sample time, the state together with the
equation residual ||E||_F and the solution error ||X - X*||_F (nan when
the problem has no known solution).  It stops at the first record whose
state or residual is non-finite or whose residual passes the divergence
threshold; that record is kept, and the paths and factored flags cover
the steps taken before it.  An operator whose real form W is not finite
is never factored: a step with it goes to a nan state, so a run ends
DIVERGED rather than raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import assembly
from .assembly import (
    ComplexGain,
    SolvePath,
    frobenius_norms,
    state_from_matrix,
    unstack,
)
from .errors import ConfigError, ShapeError
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
# A run allocates all k+1 records up front, 24 + 16mn bytes each (a time,
# two residuals and 2mn state floats), and 2 bytes for each step (its
# solve path and whether it factored): about 0.1 kB for a 2x2 problem, so
# the 10^7-record cap bounds a 2x2 run at about 1 GB and a 16x16 run at
# about 41 GB.  Past it a run is refused rather than left to exhaust
# memory.
MAX_STEP_COUNT = 10**7
# A run evaluates its providers, converts their values to complex128 and
# has its solver take its steps a block of records at a time:
# BLOCK_RECORDS, or fewer where the block's stacks would pass BLOCK_BYTES
# (see block_records).  A run that diverges has evaluated its providers at
# most one block less one record past the record where it stopped, and
# never past the duration.  A record holds F, A, C, their derivatives and
# X*, 16 (2n^2 + 2m^2 + 3mn) bytes, which the members of a batch share,
# and the bytes the solver adds per record; the solver may also set bytes
# aside for the block (see each solver's block_bytes).  A block holds 256
# records of a 2x2 problem, 0.6 MB, 66 at mn = 31, 224 at 16x16 and 11 at
# 64x64.  Every member of a batch takes these blocks; those past the first
# add uncounted O(n^2 + m^2 + mn) stacks a record and, from the
# crossover up, a window of their own.  Transient products are not
# counted.
BLOCK_RECORDS = 256
BLOCK_BYTES = 8 * 2**20


def block_records(m: int, n: int) -> int:
    """The records per block of a run of an m x n problem, which every
    member of a batch takes too: BLOCK_RECORDS, or as many as fit in
    BLOCK_BYTES of a run's stacks (at least one), with those of the run's
    solver."""
    record, reserved = assembly.solver_class(m, n).block_bytes(m, n)
    size = 16 * (2 * n * n + 2 * m * m + 3 * m * n) + record
    return min(BLOCK_RECORDS, max(1, (BLOCK_BYTES - reserved) // size))


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
        # As Python floats: a numpy scalar quotient would warn on overflow.
        ratio = float(self.duration) / float(self.epsilon)
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
    """What a run produced, as aligned arrays: per record and per step.

    Record i holds sample time ``taus[i]`` (= i * epsilon), the stacked
    state ``states[i]`` and both residuals.  A run stops at its first
    record whose state or equation residual is non-finite, so only the
    last record can be.  Step i, from record i to record i + 1, holds the
    uint8 :class:`~dznd.assembly.SolvePath` code ``paths[i]`` of its
    solve and ``factored[i]``, whether it factored L: one entry for each
    step taken, one fewer than records.

    The counts are derived from these.  ``structured_solve_steps`` counts
    the steps solved through the Sylvester form, and
    ``pinv_fallback_steps`` those whose solve needed the SVD
    pseudo-inverse because no other path could be certified.
    ``operator_factorizations`` counts the factorizations of L actually
    made for the steps taken, each operator's at most once: below the
    structured crossover the W^+ formed, one for each new operator (once
    per run with constant F and A, once per step when they move); from
    it up the operators eigendecomposed (or inverted) on their own, so a
    moving run that solves most steps in an earlier step's eigenbases has
    fewer factorizations than structured steps.
    """

    taus: np.ndarray
    states: np.ndarray
    equation_residuals: np.ndarray
    solution_errors: np.ndarray
    outcome: Outcome
    paths: np.ndarray
    factored: np.ndarray

    def __len__(self) -> int:
        return len(self.taus)

    @property
    def steps(self) -> np.ndarray:
        """The step index of each record."""
        return np.arange(len(self), dtype=np.int64)

    @property
    def diverged_at(self) -> Optional[int]:
        """The last record of a DIVERGED run, where it stopped; else None."""
        return len(self) - 1 if self.outcome is Outcome.DIVERGED else None

    @property
    def pinv_fallback_steps(self) -> int:
        return int(np.count_nonzero(self.paths == SolvePath.PINV))

    @property
    def structured_solve_steps(self) -> int:
        return int(np.count_nonzero(self.paths == SolvePath.STRUCTURED))

    @property
    def operator_factorizations(self) -> int:
        return int(np.count_nonzero(self.factored))


def tail_max_equation_residual(trajectory: Trajectory, tau_from: float) -> float:
    """Largest equation residual over records with tau >= tau_from."""
    return _tail_max(trajectory.taus, trajectory.equation_residuals, tau_from)


def tail_max_solution_error(trajectory: Trajectory, tau_from: float) -> float:
    """Largest solution error over records with tau >= tau_from."""
    return _tail_max(trajectory.taus, trajectory.solution_errors, tau_from)


def _tail_max(taus: np.ndarray, values: np.ndarray, tau_from: float) -> float:
    """Largest of the per-record ``values`` over records with
    tau >= tau_from; nan when there is none."""
    mask = taus >= tau_from
    if not mask.any():
        return math.nan
    return float(values[mask].max())


def scalar_error_modulus(gamma: ComplexGain, epsilon: float) -> float:
    """|1 - epsilon*gamma|: the per-step growth factor of each scalar
    error mode.  Values above one predict divergence of the dznd1 model."""
    return math.hypot(1.0 - epsilon * gamma.re, epsilon * gamma.im)


class _Block(NamedTuple):
    """Provider values at consecutive records as complex128 stacks: F, A,
    C and, when asked for, X* at every record, and the derivatives of F,
    A and C at the records that take a step.

    Everything in a step that depends on tau alone comes from here, once
    for every member of a batch, for the run's solver to step with; the
    records' residuals come from :meth:`equation_error` and
    :meth:`solution_errors`.
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
        taus: np.ndarray,
        steps: int,
        with_solution: bool,
    ) -> "_Block":
        """Evaluate the coefficient (and solution) providers at every tau
        in ``taus`` and the derivative provider at the first ``steps``,
        checking every shape, and the number of matrices, against the
        problem."""
        m, n = problem.m, problem.n

        def check_coefficients(*shapes):
            if shapes != ((n, n), (m, m), (m, n)):
                raise ShapeError(
                    f"provider returned shapes {list(shapes)}; "
                    f"expected F({n},{n}), A({m},{m}), C({m},{n})"
                )

        def check_solution(*shapes):
            if shapes != ((m, n),):
                raise ShapeError(
                    f"theoretical solution shapes {list(shapes)}; expected "
                    f"one matrix of the problem dimensions {(m, n)}"
                )

        f, a, c = _stacks(problem.coefficients, taus, check_coefficients)
        exact = None
        if with_solution:
            exact, = _stacks(problem.theoretical_solution, taus, check_solution)
        fd = ad = cd = None
        if steps:
            fd, ad, cd = _stacks(
                problem.derivatives, taus[:steps], check_coefficients
            )
        return cls(f, a, c, fd, ad, cd, exact)

    def equation_error(self, x: np.ndarray, at) -> np.ndarray:
        """E = X F - A conj(X) - C at record ``at``, or at the records of
        the slice ``at`` for a stack of X."""
        return x @ self.f[at] - self.a[at] @ np.conj(x) - self.c[at]

    def solution_errors(self, states: np.ndarray) -> np.ndarray:
        """||X - X*||_F (nan without X*) at the block's first records,
        whose stacked states are the rows of ``states``, or of each
        member's stack along a leading axis."""
        if self.exact is None:
            return np.full(states.shape[:-1], math.nan)
        x = unstack(states, self.a.shape[-1], self.f.shape[-1])
        # States integrated past a stop may overflow; they warn nothing.
        with np.errstate(all="ignore"):
            return frobenius_norms(x - self.exact[:states.shape[-2]])


def _stacks(provider, taus: np.ndarray, check) -> tuple:
    """The values of the :class:`~dznd.problems.BlockProvider`
    ``provider`` at every tau of ``taus`` (at least one) as complex128
    stacks, one for each matrix it returns, after ``check`` has seen the
    shapes of one record's matrices."""
    values = provider.over(np.array(taus, dtype=np.float64))
    stacks = tuple(
        np.asarray(z, dtype=np.complex128)
        for z in (values if isinstance(values, tuple) else (values,))
    )
    for z in stacks:
        if z.shape[:1] != (len(taus),):
            raise ShapeError(
                f"block provider returned a stack of shape {z.shape}; "
                f"expected {len(taus)} records along its first axis"
            )
    check(*(z.shape[1:] for z in stacks))
    return stacks


def run_batch(
    problem: SylvesterConjugateProblem,
    configs: Sequence[SolverConfig],
    initial: InitialState,
) -> list[Trajectory]:
    """Integrate one run of ``problem`` from ``initial`` for each of
    ``configs`` (at least one), in lockstep; trajectory i equals
    ``run(problem, configs[i], initial)`` bitwise, paths included.

    The members may differ in model, gain and divergence threshold, and
    must share epsilon, duration and the pinv tolerance.  Every config is
    validated, and the shared fields compared, before any provider call;
    a violation raises :class:`ConfigError`.  Every member takes the
    blocks of its own run, and they share each block's provider values,
    its operators and what the solver forms of them alone (module
    docstring).  A member that stops keeps its records and leaves the
    batch; the others go on.  An exception raised in a block (by a
    provider, a solve, or a warning made an error) ends the members still
    running there, and propagates as it was raised.
    """
    trajectories, error = _run_batch(problem, configs, initial)
    if error is not None:
        raise error
    return trajectories


def _run_batch(
    problem: SylvesterConjugateProblem,
    configs: Sequence[SolverConfig],
    initial: InitialState,
) -> tuple[list[Optional[Trajectory]], Optional[Exception]]:
    """The trajectories of :func:`run_batch` and None; or, when a block
    raises, those of the members that stopped before it (None for the
    others) and the exception.  A config or start that cannot run raises
    at once.  The records of each member are kept as the solver gives
    them, so one that it ends in a block before another raises keeps
    them."""
    if not configs:
        raise ConfigError("a batch needs at least one member")
    for config in configs:
        config.validate()
    lead = configs[0]
    for config in configs[1:]:
        for name in ("epsilon", "duration", "pinv_tolerance"):
            if getattr(config, name) != getattr(lead, name):
                raise ConfigError(
                    f"batch members must share {name}, got "
                    f"{getattr(lead, name)!r} and {getattr(config, name)!r}"
                )
    m, n = problem.m, problem.n
    if initial.x0.shape != (m, n):
        raise ShapeError(
            f"initial state shape {initial.x0.shape} does not match problem "
            f"dimensions ({m}, {n})"
        )
    has_solution = problem.theoretical_solution is not None
    k_total, epsilon, count = lead.step_count, lead.epsilon, len(configs)
    taus = np.arange(k_total + 1) * epsilon
    states = np.empty((count, k_total + 1, 2 * m * n))
    states[:, 0] = state_from_matrix(initial.x0)
    residuals = np.empty((count, k_total + 1))
    errors = np.empty((count, k_total + 1))
    paths = np.empty((count, k_total), dtype=np.uint8)
    factored = np.empty((count, k_total), dtype=bool)
    stops: list[Optional[int]] = [None] * count
    gammas = [complex(c.gamma.re, c.gamma.im) for c in configs]
    thresholds = [c.divergence_threshold for c in configs]
    solver = assembly.solver_class(m, n)(lead.pinv_tolerance)
    # Each member takes its run's blocks, whose edges can move a structured
    # run's last bits, and a row's outcome when a provider raises.
    size = block_records(m, n)

    def trajectory(i: int) -> Trajectory:
        """Member i's records up to where it stopped."""
        stop = stops[i]
        records = k_total + 1 if stop is None else stop + 1
        return Trajectory(
            taus[:records], states[i, :records], residuals[i, :records],
            errors[i, :records],
            Outcome.COMPLETED if stop is None else Outcome.DIVERGED,
            paths[i, :records - 1], factored[i, :records - 1],
        )

    active = list(range(count))
    try:
        for start in range(0, k_total + 1, size):
            records = min(size, k_total + 1 - start)
            steps = min(records, k_total - start)
            block = _Block.evaluate(
                problem, taus[start:start + records], steps, has_solution
            )
            advanced = solver.advance(
                block, states[:, start:start + steps + 1], active, gammas,
                epsilon, thresholds,
            )
            for i, (solved, made, eq, error, stopped) in zip(active, advanced):
                end, taken = start + len(eq), start + len(solved)
                residuals[i, start:end], errors[i, start:end] = eq, error
                paths[i, start:taken], factored[i, start:taken] = solved, made
                if stopped:
                    stops[i] = end - 1
            active = [i for i in active if stops[i] is None]
            if not active:
                break
    except Exception as exc:  # noqa: BLE001 - ends the running members
        return [None if stop is None else trajectory(i)
                for i, stop in enumerate(stops)], exc
    return [trajectory(i) for i in range(count)], None


def run(
    problem: SylvesterConjugateProblem,
    config: SolverConfig,
    initial: InitialState,
) -> Trajectory:
    """Integrate the configured model over k = duration/epsilon steps: a
    batch of one, ``run_batch(problem, [config], initial)[0]``.

    Deterministic for fixed inputs.  Halts early with a DIVERGED outcome
    as soon as a record is non-finite or its equation residual exceeds
    the divergence threshold; the offending record is kept.
    """
    return run_batch(problem, [config], initial)[0]

"""Fixed-step trajectory integration for the two solver models.

Both models drive the equation error E = X F - A conj(X) - C along
dE/dt = -gamma E.  Each step forms, in complex128,

    E = X F - A conj(X) - C,
    G = Cdot + Adot conj(X) - X Fdot - gamma E,

solves L(D) = D F - A conj(D) = G for the direction D with the run's
solver from :mod:`dznd.assembly`, and updates the stacked real state as
x(tau_{k+1}) = x(tau_k) + epsilon * stack(D).

Written over the reals, dznd2-2i's drive b_dot - W_dot x - gamma (W x - b)
is the same G, so the two models take the same step; they differ only
in the gains they admit: dznd1-2i also takes a complex gain, which
multiplies E in the complex field, and dznd2-2i only a real one.

Each solve equals pinv(W) stack(G) for the 2mn x 2mn real form W of L.
Above a size crossover it comes, when certified and checked, from the
Sylvester form of L: in the eigenbases of an earlier step's operator,
also one of an earlier block, while they are certified for it, else from
its own O(m^3 + n^3) eigendecompositions; otherwise from the inverse of W
whenever its condition number proves the pseudo-inverse would cut no
singular value, and from the SVD pseudo-inverse when not.  A run counts
the steps that took the first path and those that needed the last.

A run works one block of records at a time: :data:`BLOCK_RECORDS`, or
fewer for a problem whose stacks would pass :data:`BLOCK_BYTES`
(:func:`block_records`).  It evaluates the providers at every record of
the block as complex128 stacks.  Each provider is a
:class:`~dznd.problems.BlockProvider` (a problem adapts a function of
one tau when it is built), called once per block with the block's array
of tau.  :func:`~dznd.assembly.find_operators` then finds the block's
operators once, from the bits of its F and A and of the last step before
it, which the run carries.  They go to the run's one solver, picked once
from mn: a :class:`~dznd.assembly.DenseSolver` below the structured
crossover, a :class:`~dznd.assembly.StructuredSolver` from it up.  It
keeps only the current operator's factors, so a run factors L once while
F and A stay bitwise the same, across block edges too, and tells for
each step whether it factored: below the crossover a new operator's W^+;
from the crossover up an operator's own eigendecompositions (or W^+), so
a step solved in another operator's eigenbases counts none.  A run sums
those of the steps it takes.  Then the block's steps advance in one of
two ways:

* Below the structured crossover the drive is affine in the state,
  G = (Cdot + gamma C) - [X (Fdot + gamma F) - (Adot + gamma A) conj(X)],
  so each step is x_{k+1} = x_k + epsilon (q_k - P_k x_k) with P_k and
  q_k known before the loop: W_k^+ times the real form R_k of the
  bracket, and W_k^+ c_k with c_k = stack(Cdot_k + gamma C_k).  On the
  lifted state [x; 1] that step is one product with the lifted step
  matrix S_k = [[I - epsilon P_k, epsilon q_k], [0^T, 1]].  The S of the
  whole block come from one batched product W^+ [R | -c] = [P | -q],
  formed once for each group of consecutive steps whose provider values
  are bitwise the same (once per block when the coefficients are
  constant), whatever the gain, and the loop makes one matrix-vector
  product per step, reading the 8 (2mn + 1)^2 bytes of its S.  At these
  sizes the Python overhead of each numpy call costs more than the
  arithmetic.  The block integrates all its steps, also those past the
  record where the run stops; they are discarded, and run without
  warnings.
* From the crossover up each step forms G from E and solves with the
  Sylvester factors, as P would cost O((mn)^3) per step against the
  O(m^3 + n^3) of the solve.  A run's operators move little from one
  step to the next, so most steps solve in the eigenbases of the run's
  last factored operator, with Jacobi sweeps, and factor only when that
  fails its certificate or its check.  What that takes of F and A alone
  is formed before the steps, in batched products: P = F conj F,
  Q = A conj A and s once per block, the certificates by the solver (see
  :class:`~dznd.assembly.StructuredSolver`); the loop keeps what depends
  on the state.  These steps stop at the first record where the run
  stops, and so do their factorizations.

An operator whose real form W is not finite (for non-finite F or A, or
where F[t, t] +- A[s, s] overflows) is never factored: a step with it
goes to a nan state, so a run ends DIVERGED rather than raising.  From
the crossover up, so does a step whose drive is not finite (for a
non-finite derivative, say), without a solve.

Runs that share epsilon, duration and the pinv tolerance, and differ in
model, gain or divergence threshold, go in lockstep as one batch,
:func:`run_batch`, whose members each take their own run's blocks and
equal it bitwise.  They share each block's provider values and
operators.  Below the crossover they also share its W^+ and step groups,
and their shifted coefficients, drive columns, residual norms and
solution errors are each formed in one stacked operation; each member
then forms its own bracket and lifted step matrices in turn, so a batch
holds one member's S at a time.  From the crossover up they share the
operators' P, Q and s, and each member solves with a solver of its own,
since a solve's path depends on its drive.  The batch keeps its records
as rows of stacked arrays, one row per member, and after each block one
loop over the members still running, for both paths, keeps their
residuals, finds where each stops and counts its paths and
factorizations.  A member that stops keeps its records and leaves the
batch.  An exception raised in a block (by a provider, a solve, or a
warning made an error) ends the members still running there; those that
stopped before keep their records.

There is one way to integrate: :func:`run` is a batch of one, and a
single step is :func:`run` with duration = epsilon.

A run records, at every sample time, the state together with the
equation residual ||E||_F and the solution error ||X - X*||_F (nan when
the problem has no known solution): below the crossover for the whole
block from its stored states, in batched norms equal bitwise to
``np.linalg.norm``, from the crossover up record by record from the E
of the drive.  It stops at the first record whose state or residual is
non-finite or whose residual passes the divergence threshold; that
record is kept, and path and factorization counts cover the steps taken
before it.
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
    DenseSolver,
    SolvePath,
    StructuredSolver,
    frobenius_norms,
    real_operator,
    stack,
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
# A run allocates all k+1 records up front, 32 + 16mn bytes each (a step
# index, a time, two residuals and 2mn state floats): about 0.1 kB for a
# 2x2 problem, so the 10^7-record cap bounds a 2x2 run at about 1 GB and
# a 16x16 run at about 41 GB.  Past it a run is refused rather than left
# to exhaust memory.
MAX_STEP_COUNT = 10**7
# A run evaluates its providers, converts their values to complex128,
# factors its operators and, below the structured crossover, takes its
# steps for a block of records at a time: BLOCK_RECORDS, or fewer where
# the block's stacks would pass BLOCK_BYTES (see block_records).  A run
# that diverges has evaluated its providers at most one block less one
# record past the record where it stopped, and never past the duration.
# A record holds F, A, C, their derivatives and X*, 16 (2n^2 + 2m^2 + 3mn)
# bytes, which the members of a batch share.  Below the crossover it adds
# W^+, 8 (2mn)^2 bytes, also shared, the real form of the bracket with the
# drive's column [R | -c] and the lifted step matrix S, which a batch
# forms for one member at a time, and the lifted state and the states,
# 8 (2 (2mn + 1)^2 + 2mn) bytes: 256 records come to 0.6 MB for a 2x2
# problem, and a block at mn = 31 holds 66.  Every member of a batch takes
# these blocks; those past the first add uncounted O(n^2 + m^2 + mn)
# stacks a record.  From the crossover up it adds the operators'
# P = F conj F and Q = A conj A, 16 (n^2 + m^2) bytes, also shared, and the
# block sets aside a solver's window of Sylvester forms, REUSE_WINDOW times
# P_off, Q_off and the gaps, 16 (n^2 + m^2 + mn) bytes each: a block at
# 16x16 holds 224 records and one at 64x64 11.  There each member of a
# batch has a solver of its own, so every member past the first adds its
# window.  Transient products are not counted.
BLOCK_RECORDS = 256
BLOCK_BYTES = 8 * 2**20


def block_records(m: int, n: int) -> int:
    """The records per block of a run of an m x n problem, which every
    member of a batch takes too: BLOCK_RECORDS, or as many as fit in
    BLOCK_BYTES of a run's stacks (at least one).  The structured
    crossover is read at call time, as :func:`run_batch` reads it when it
    picks its solver."""
    mn = m * n
    size = 16 * (2 * n * n + 2 * m * m + 3 * mn)
    budget = BLOCK_BYTES
    if mn < assembly.STRUCTURED_SOLVE_MIN_UNKNOWNS:
        size += 8 * ((2 * mn) ** 2 + 2 * (2 * mn + 1) ** 2 + 2 * mn)
    else:
        size += 16 * (n * n + m * m)
        budget -= assembly.REUSE_WINDOW * 16 * (n * n + m * m + mn)
    return min(BLOCK_RECORDS, max(1, budget // size))


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
    """Per-step records of a run, stored as aligned arrays.

    Record i holds step index ``steps[i]``, sample time ``taus[i]``
    (= steps[i] * epsilon), the stacked state ``states[i]`` and both
    residuals.  A run stops at its first record whose state or equation
    residual is non-finite, so only the last record can be.
    ``structured_solve_steps`` counts the steps solved through the
    Sylvester form, and ``pinv_fallback_steps`` those whose solve needed
    the SVD pseudo-inverse because no other path could be certified.
    ``operator_factorizations`` counts the factorizations of L actually
    made for the steps taken, each operator's at most once: below the
    structured crossover the W^+ formed, one for each new operator (once
    per run with constant F and A, once per step when they move); from
    it up the operators eigendecomposed (or inverted) on their own, so a
    moving run that solves most steps in an earlier step's eigenbases has
    fewer factorizations than structured steps.
    """

    steps: np.ndarray
    taus: np.ndarray
    states: np.ndarray
    equation_residuals: np.ndarray
    solution_errors: np.ndarray
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

    Everything in a step that depends on tau alone comes from here, once
    for every member of a batch; :meth:`advance_dense` takes the block's
    steps of all members at once, :meth:`advance_structured` those of one,
    and both give the records' residuals, with :meth:`solution_errors`.
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

    def advance_dense(
        self,
        states: np.ndarray,
        members: list[int],
        solver: DenseSolver,
        operators: Optional[assembly.Operators],
        rows: Optional[np.ndarray],
        gammas: np.ndarray,
        epsilon: float,
    ) -> list[tuple[list[Optional[SolvePath]], list[bool], np.ndarray,
                    np.ndarray]]:
        """Take the block's steps for the ``members`` of a batch, rows of
        ``states``, each from its state ``states[i, 0]`` at its gain in
        ``gammas``, given the steps' ``operators`` and the ``rows`` of
        their bits (both None without a step), writing the state after
        step j into ``states[i, j + 1]``.  Return for each member, as
        :meth:`advance_structured` does, each step's path (None for a step
        that solves nothing) and whether it factored L, which the members
        share, and ||E||_F and ||X - X*||_F at the block's records.

        Each step is the product [x_{k+1}; 1] = S_k [x_k; 1] with the
        lifted step matrix of the module docstring, whose W_k^+ come from
        one :meth:`~dznd.assembly.DenseSolver.inverses` call for the
        whole batch.  Consecutive steps with bitwise the same F, A, C,
        Fdot, Adot and Cdot (their ``rows``, which begin with the bits of
        F and A) form a group; a group shares one operator, and for any
        gain one S.  The members' shifted coefficients and drive columns
        -c are formed at the group starts only, stacked.  Each member in
        turn then forms its bracket [R | -c], the S of every group from
        one product W^+ [R | -c] = [P | -q], and one matrix-vector
        product per step into its lifted buffer, and releases both before
        the next member's, as a block's budget holds a run's.  The
        residual norms and solution errors follow for the whole stack.
        All the steps are taken, without warnings: those past a stop are
        the caller's to discard.  An operator that is not finite has a
        nan W^+, hence a nan S, so the state after its step is non-finite.
        """
        records, steps = len(self.f), states.shape[1] - 1
        count, size = len(members), states.shape[-1]
        m, n = self.a.shape[-1], self.f.shape[-1]
        paths, made = [], []
        lifted = np.zeros((count, steps + 1, size + 1))
        lifted[:, 0, :size], lifted[:, 0, size] = states[members, 0], 1.0
        with np.errstate(all="ignore"):
            if steps:
                inverses, operator_paths, formed = solver.inverses(operators)
                firsts = assembly._changes(rows)
                group = (np.cumsum(firsts) - 1).tolist()
                firsts = np.flatnonzero(firsts)
                # With one group for each operator, the stack serves as
                # it is.
                if len(firsts) > len(inverses):
                    inverses = inverses[operators.index[firsts]]
                # Each member's shifted coefficients at the group starts,
                # one product over the rows [F A C | Fdot Adot Cdot]: at
                # least three entries, as numpy rounds a product of one
                # complex entry differently from one of several.
                values = rows.view(np.complex128)[firsts, None]
                half = values.shape[-1] // 2
                shifted = (values[..., half:]
                           + gammas[:, None] * values[..., :half])
                edges = [0, n * n, n * n + m * m, half]
                fs, as_, cs = (
                    shifted[..., lo:hi].reshape(shifted.shape[:2] + z.shape[1:])
                    for lo, hi, z in zip(edges, edges[1:], self[:3])
                )
                paths = operator_paths[operators.index].tolist()
                made = (operators.starts & formed[operators.index]).tolist()
                columns = -stack(cs)[..., None]
                for i, buffer in enumerate(lifted):
                    # [R | -c] before S, as in a run, which bounds the peak.
                    bracket = np.concatenate([real_operator(
                        fs[:, i], as_[:, i]), columns[:, i]], axis=-1)
                    # The top rows W^+ [R | -c] = [P | -q] become
                    # [I - epsilon P | epsilon q]; the last row is e^T.
                    s = np.zeros((len(firsts), size + 1, size + 1))
                    np.matmul(inverses, bracket, out=s[:, :size])
                    del bracket
                    s[:, :size] *= -epsilon
                    s.reshape(len(firsts), -1)[:, ::size + 2] += 1.0
                    matrices, x = list(s), buffer[0]
                    for out, slot in zip(buffer[1:], group):
                        x = matrices[slot].dot(x, out)
                    del s, matrices
                states[members, 1:] = lifted[:, 1:, :size]
            recorded = lifted[:, :records, :size]
            x = unstack(recorded, m, n)
            eq = frobenius_norms(self.equation_error(x, slice(records)))
        errors = self.solution_errors(recorded)
        return [(paths, made, *member) for member in zip(eq, errors)]

    def advance_structured(
        self,
        states: np.ndarray,
        solver: StructuredSolver,
        gamma: complex,
        epsilon: float,
        threshold: float,
    ) -> tuple[list[Optional[SolvePath]], list[bool], np.ndarray,
               np.ndarray]:
        """Take the block's steps of one run from ``states[0]``, writing
        the state after step j into ``states[j + 1]``.  Return, for each
        step taken, its path (None for a step that solves nothing) and
        whether it factored L, and ||E||_F and ||X - X*||_F at each record
        filled: all of the block's, or those up to an early stop.

        Each record's E gives its residual norm and the drive
        G = Cdot + Adot conj(X) - X Fdot - gamma E, from one conj(X), and
        the step solves L(D) = G with the run's own ``solver``, which holds
        the block's operators, since that costs O(m^3 + n^3) per solve
        against O((mn)^3) for P.  The steps stop at the first record whose
        state or ||E||_F is non-finite, or whose ||E||_F passes
        ``threshold``.
        """
        steps, records = len(states) - 1, len(self.f)
        m, n = self.a.shape[-1], self.f.shape[-1]
        paths, made, eqs = [], [], []
        # A record past overflow is recorded, not warned about.
        with np.errstate(all="ignore"):
            for j in range(records):
                x = unstack(states[j], m, n)
                x_conj = np.conj(x)
                e = x @ self.f[j] - self.a[j] @ x_conj - self.c[j]
                eqs.append(np.linalg.norm(e))
                if j == steps or _stops(
                    np.isfinite(states[j]).all() and math.isfinite(eqs[-1]),
                    eqs[-1], threshold,
                ):
                    break
                drive = (
                    self.cd[j] + self.ad[j] @ x_conj - x @ self.fd[j]
                    - gamma * e
                )
                direction, path, factored = solver.solve(j, drive)
                states[j + 1] = states[j] + epsilon * direction
                paths.append(path)
                made.append(factored)
        return paths, made, np.array(eqs), self.solution_errors(
            states[:len(eqs)])


def _stops(finite, equation_residual, threshold):
    """Whether a run stops at a record: it is non-finite or its equation
    residual passes the divergence threshold (elementwise for arrays)."""
    return np.logical_not(finite) | (equation_residual > threshold)


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
    ``run(problem, configs[i], initial)`` bitwise, counts included.

    The members may differ in model, gain and divergence threshold, and
    must share epsilon, duration and the pinv tolerance.  Every config is
    validated, and the shared fields compared, before any provider call;
    a violation raises :class:`ConfigError`.  Every member takes the
    blocks of its own run, and they share each block's provider values
    and operators and, below the structured crossover, its W^+ and step
    groups, from it up the operators' P, Q and s (module docstring).  A
    member that stops keeps its records and leaves the batch; the others
    go on.  An exception raised in a block (by a provider, a solve, or a
    warning made an error) ends the members still running there, and
    propagates as it was raised.
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
    at once.  From the crossover up the members step one after another,
    so one that stops in the block before another raises keeps its
    records."""
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
    # Each member's pinv and structured steps and factorizations.
    pinv, structured, factorizations = ([0] * count for _ in range(3))
    stops: list[Optional[int]] = [None] * count
    gammas = [complex(c.gamma.re, c.gamma.im) for c in configs]
    dense = m * n < assembly.STRUCTURED_SOLVE_MIN_UNKNOWNS
    if dense:
        solver = DenseSolver(lead.pinv_tolerance)
    else:
        solvers = [StructuredSolver(lead.pinv_tolerance) for _ in configs]
    # Each member takes its run's blocks, whose edges can move a structured
    # run's last bits, and a row's outcome when a provider raises.
    size = block_records(m, n)

    def trajectory(i: int) -> Trajectory:
        """Member i's records up to where it stopped."""
        stop = stops[i]
        records = k_total + 1 if stop is None else stop + 1
        return Trajectory(
            np.arange(records, dtype=np.int64), taus[:records],
            states[i, :records], residuals[i, :records], errors[i, :records],
            Outcome.COMPLETED if stop is None else Outcome.DIVERGED,
            stop, pinv[i], structured[i], factorizations[i],
        )

    # The bits of F and A at the last step taken.
    width, row = 2 * (n * n + m * m), None
    active = list(range(count))
    try:
        for start in range(0, k_total + 1, size):
            records = min(size, k_total + 1 - start)
            steps = min(records, k_total - start)
            block = _Block.evaluate(
                problem, taus[start:start + records], steps, has_solution
            )
            rows = operators = None
            if steps:
                # Below the crossover the step groups take the bits of all
                # six stacks, whose rows begin with those of F and A.
                stacks = block[:6] if dense else block[:2]
                rows = assembly._bit_rows(*(z[:steps] for z in stacks))
                operators = assembly.find_operators(
                    rows[:, :width], row, block.f[:steps], block.a[:steps]
                )
                row = rows[-1, :width].copy()
                if not dense:
                    terms = assembly.sylvester_terms(operators)
                    for i in active:
                        solvers[i].block(operators, terms)
            block_states = states[:, start:start + steps + 1]
            if dense:
                advanced = block.advance_dense(
                    block_states, active, solver, operators, rows,
                    np.array([gammas[i] for i in active]), epsilon,
                )
            else:
                advanced = (
                    block.advance_structured(
                        block_states[i], solvers[i], gammas[i], epsilon,
                        configs[i].divergence_threshold,
                    )
                    for i in active
                )
            for i, (paths, made, eq, error) in zip(active, advanced):
                kept = slice(start, start + len(eq))
                residuals[i, kept], errors[i, kept] = eq, error
                finite = np.isfinite(states[i, kept]).all(axis=1)
                stop = np.flatnonzero(_stops(finite & np.isfinite(eq), eq,
                                             configs[i].divergence_threshold))
                taken = int(stop[0]) if stop.size else steps
                # list.count compares by identity in C: no Enum hash per
                # step.
                taken_paths = paths[:taken]
                pinv[i] += taken_paths.count(SolvePath.PINV)
                structured[i] += taken_paths.count(SolvePath.STRUCTURED)
                factorizations[i] += made[:taken].count(True)
                if stop.size:
                    stops[i] = start + taken
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

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
Sylvester form of L: in the eigenbases of an earlier step's operator of
the same block while they are certified for it, else from its own
O(m^3 + n^3) eigendecompositions; otherwise from the inverse of W
whenever its condition number proves the pseudo-inverse would cut no
singular value, and from the SVD pseudo-inverse when not.  A run counts
the steps that took the first path and those that needed the last.

A run works one block of records at a time: :data:`BLOCK_RECORDS`, or
fewer for a problem whose stacks would pass :data:`BLOCK_BYTES`
(:func:`block_records`).  It evaluates the providers at every record of
the block as complex128 stacks, and factors the block's operators
together.  A :class:`~dznd.problems.BlockProvider`, as the registered
problems have, is called once per block with the block's array of tau;
any other provider is called at each tau, and its split values are
stacked.  A run keeps the factors of L while F and A stay bitwise the
same (their entries are compared as uint64 bit patterns, consecutive
steps in one array operation, so even a changed sign of zero
refactors), across block boundaries too: with constant coefficients it
factors L once.  It counts the factorizations made for the steps taken:
below the crossover each operator's W^+; from the crossover up each
operator's own eigendecompositions (or W^+), so a step solved in
another operator's eigenbases counts none.  Then the block's steps
advance in one of two ways:

* Below the structured crossover the drive is affine in the state,
  G = (Cdot + gamma C) - [X (Fdot + gamma F) - (Adot + gamma A) conj(X)],
  so each step is x_{k+1} = x_k + epsilon (q_k - P_k x_k) with P_k and
  q_k known before the loop: W_k^+ times the real form of the bracket,
  and W_k^+ stack(Cdot_k + gamma C_k).  P and q of the whole block come
  from batched products, formed once for each group of consecutive
  steps that share W^+ and bitwise the same shifted coefficients (once
  per block when the coefficients are constant), and the loop keeps one
  matrix-vector product and the update.  At these sizes the Python
  overhead of some twenty small numpy calls per step cost more than the
  arithmetic.  The block integrates all its steps, also those past the
  record where the run stops; they are discarded, and run without
  warnings.
* From the crossover up each step forms G from E and solves with the
  Sylvester factors, as P would cost O((mn)^3) per step against the
  O(m^3 + n^3) of the solve.  A block's operators move little from one
  step to the next, so most steps solve in the eigenbases of the
  block's last factored operator, with Jacobi sweeps, and factor only
  when that fails its certificate or its check (see
  :class:`~dznd.assembly.OperatorFactors`).  These steps stop at the
  first record where the run stops, and so do their factorizations.

An operator whose real form W is not finite (for non-finite F or A, or
where F[t, t] +- A[s, s] overflows) is never factored: a step with it
goes to a nan state, so a run ends DIVERGED rather than raising.

There is one way to integrate: a single step is :func:`run` with
duration = epsilon.

A run records, at every sample time, the state together with the
equation residual ||E||_F and the solution error ||X - X*||_F (nan when
the problem has no known solution): below the crossover for the whole
block from its stored states, in batched norms equal bitwise to
``np.linalg.norm``, from the crossover up record by record from the E
of the drive.  It stops at the first record that is non-finite or whose
residual passes the divergence threshold; that record is kept, and path
and factorization counts cover the steps taken before it.
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import assembly
from .assembly import (
    ComplexGain,
    OperatorFactors,
    SolvePath,
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
# A run allocates all k+1 records up front, 33 + 16mn bytes each (a step
# index, a time, two residuals, a finite flag and 2mn state floats): about
# 0.1 kB for a 2x2 problem, so the 10^7-record cap bounds a 2x2 run at
# about 1 GB and a 16x16 run at about 41 GB.  Past it a run is refused
# rather than left to exhaust memory.
MAX_STEP_COUNT = 10**7
# A run evaluates its providers, converts their values to complex128,
# factors its operators and, below the structured crossover, takes its
# steps for a block of records at a time: BLOCK_RECORDS, or fewer where
# the block's stacks would pass BLOCK_BYTES (see block_records).  A run
# that diverges has evaluated its providers at most one block less one
# record past the record where it stopped, and never past the duration.
# A record holds F, A, C, their derivatives and X*, 16 (2n^2 + 2m^2 + 3mn)
# bytes, and below the crossover P and two more stacks of its size (W^+
# and the real form of the bracket), 3 * 8 (2mn)^2 bytes: 256 records
# come to 0.5 MB for a 2x2 problem, and a block at mn = 31 holds 67.
BLOCK_RECORDS = 256
BLOCK_BYTES = 8 * 2**20


def block_records(m: int, n: int) -> int:
    """The records per block of a run of an m x n problem:
    BLOCK_RECORDS, or as many as fit in BLOCK_BYTES of stacks (at least
    one).  The structured crossover is read at call time, as
    :class:`~dznd.assembly.OperatorFactors` reads it."""
    mn = m * n
    size = 16 * (2 * n * n + 2 * m * m + 3 * mn)
    if mn < assembly.STRUCTURED_SOLVE_MIN_UNKNOWNS:
        size += 3 * 8 * (2 * mn) ** 2
    return min(BLOCK_RECORDS, max(1, BLOCK_BYTES // size))


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
    ``operator_factorizations`` counts the factorizations of L made for
    the steps taken: once per run with constant F and A; below the
    structured crossover once per step when they move; from it up only
    the steps whose operator was eigendecomposed (or inverted) on its
    own, so a moving run that solves most steps in an earlier step's
    eigenbases has fewer factorizations than structured steps.
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

    Everything in a step that depends on tau alone comes from here;
    :meth:`advance` takes the block's steps, and with
    :meth:`solution_errors` gives its records' residuals.
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
        """||X - X*||_F (nan without X*) at the block's first len(states)
        records, whose stacked states are ``states``."""
        if self.exact is None:
            return np.full(len(states), math.nan)
        x = unstack(states, self.a.shape[-1], self.f.shape[-1])
        # States integrated past a stop may overflow; they warn nothing.
        with np.errstate(all="ignore"):
            return _norms(x - self.exact[:len(states)])

    def advance(
        self,
        states: np.ndarray,
        factors: OperatorFactors,
        members: np.ndarray,
        carried: Optional[tuple[OperatorFactors, int]],
        gamma: complex,
        epsilon: float,
        threshold: float,
    ) -> tuple[list[Optional[SolvePath]], np.ndarray]:
        """Take the block's steps from ``states[0]``, writing the state
        after step j into ``states[j + 1]``; step j solves with member
        ``members[j]`` of ``factors``, or, where that is negative (only
        leading steps), with the ``carried`` (factors, member) of the step
        before the block.  Return the path of each step taken (None for
        an operator that is not finite) and ||E||_F at each record
        filled: all of the block's, or those up to an early stop.

        Below the structured crossover the step is affine in the state,

            x_{k+1} = x_k + epsilon (q_k - P_k x_k),
            P_k = W_k^+ real_operator(Fdot_k + gamma F_k, Adot_k + gamma A_k),
            q_k = W_k^+ stack(Cdot_k + gamma C_k),

        with W_k^+ from :meth:`~dznd.assembly.OperatorFactors.inverses`.
        Consecutive steps with the same member and bitwise the same
        Fdot + gamma F, Adot + gamma A and Cdot + gamma C form a group,
        found in one array comparison; P and q are formed in batched
        products once per group, and the loop keeps one matrix-vector
        product and the update.  The residual norms follow for the whole
        block.  All the steps are taken, without warnings: those past a
        stop are the caller's to discard.  A member whose operator is not
        finite has a nan W^+, so the state after its step is non-finite.

        From the crossover up each record's E gives its residual norm and
        the drive G = Cdot + Adot conj(X) - X Fdot - gamma E, and the step
        solves L(D) = G with the factors, since they cost O(m^3 + n^3)
        per solve against O((mn)^3) for W^+; a member whose operator is
        not finite steps to a nan state.  The steps stop at the first
        record whose state or ||E||_F is non-finite, or whose ||E||_F
        passes ``threshold``.
        """
        steps, records = len(members), len(self.f)
        m, n = self.a.shape[-1], self.f.shape[-1]
        if not factors.structured:
            paths = []
            with np.errstate(all="ignore"):
                if steps:
                    fs, as_, cs = (
                        self.fd + gamma * self.f[:steps],
                        self.ad + gamma * self.a[:steps],
                        self.cd + gamma * self.c[:steps],
                    )
                    starts = _changes(_bit_rows(fs, as_, cs), None)
                    starts[1:] |= members[1:] != members[:-1]
                    firsts = np.flatnonzero(starts)
                    inverses, paths = _inverses(
                        factors, carried, members[firsts]
                    )
                    p = inverses @ real_operator(fs[firsts], as_[firsts])
                    q = (inverses @ stack(cs[firsts])[..., None])[..., 0]
                    group = np.cumsum(starts) - 1
                    paths = paths[group].tolist()
                    x = states[0]
                    for j, slot in enumerate(group.tolist(), 1):
                        x = x + epsilon * (q[slot] - p[slot] @ x)
                        states[j] = x
                x = unstack(states[:records], m, n)
                eq = _norms(self.equation_error(x, slice(records)))
            return paths, eq
        paths, eqs = [], []
        # A record past overflow is recorded, not warned about.
        with np.errstate(all="ignore"):
            for j in range(records):
                x = unstack(states[j], m, n)
                e = self.equation_error(x, j)
                eqs.append(np.linalg.norm(e))
                if j == steps or _stops(
                    np.isfinite(states[j]).all() and np.isfinite(eqs[-1]),
                    eqs[-1], threshold,
                ):
                    break
                owner, member = (
                    (factors, members[j]) if members[j] >= 0 else carried
                )
                if owner.finite[member]:
                    drive = (
                        self.cd[j] + self.ad[j] @ np.conj(x) - x @ self.fd[j]
                        - gamma * e
                    )
                    direction, path = owner.solve(member, drive)
                else:
                    direction, path = math.nan, None
                states[j + 1] = states[j] + epsilon * direction
                paths.append(path)
        return paths, np.array(eqs)


def _inverses(
    factors: OperatorFactors,
    carried: Optional[tuple[OperatorFactors, int]],
    members: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """W^+ and the solve path of each of ``members`` of ``factors``; the
    negative members, which lead, stand for the ``carried`` member."""
    leading = np.count_nonzero(members < 0)
    members = members[leading:]
    # Every member's first step starts a group, so the members listed are
    # 0 ... k-1 in order, each once, exactly when there are k of them;
    # the stack then serves as it is, without a gather.
    inverses, paths = factors.inverses(
        None if len(members) == len(factors) else members
    )
    if leading:
        owner, member = carried
        w_plus, path = owner.inverses(np.full(leading, member))
        inverses = np.concatenate([w_plus, inverses])
        paths = np.concatenate([path, paths])
    return inverses, paths


def _bit_rows(*stacks: np.ndarray) -> np.ndarray:
    """The entries of each record of complex128 stacks as one row of
    uint64 bit patterns: two rows are equal when every entry is bitwise
    the same, so even a changed sign of zero makes them differ."""
    records = len(stacks[0])
    widths = [math.prod(z.shape[1:]) for z in stacks]
    rows = np.empty((records, sum(widths)), dtype=np.complex128)
    np.concatenate(
        [z.reshape(records, w) for z, w in zip(stacks, widths)], axis=1,
        out=rows,
    )
    return rows.view(np.uint64)


def _changes(rows: np.ndarray, previous: Optional[np.ndarray]) -> np.ndarray:
    """Whether each row differs from the row before it; the first is
    compared with ``previous``, and differs when there is none."""
    changed = np.empty(len(rows), dtype=bool)
    if len(rows):
        changed[0] = previous is None or bool((rows[0] != previous).any())
        np.any(rows[1:] != rows[:-1], axis=1, out=changed[1:])
    return changed


def _norms(z: np.ndarray) -> np.ndarray:
    """||Z||_F of each complex matrix of a stack, equal bitwise to
    ``np.linalg.norm``: that takes sqrt(Re Z . Re Z + Im Z . Im Z) with
    the dot products over the strided real and imaginary views, and a
    stacked vector-vector matmul calls the same dot.  (A contiguous copy
    or ``einsum`` sums in another order and can differ in the last
    bit.)  Overflow reads inf without a warning, as it does there."""
    z = z.reshape(len(z), -1)
    re, im = z.real, z.imag
    with np.errstate(all="ignore"):
        squares = (
            re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
        )
        return np.sqrt(squares[:, 0, 0])


def _stops(finite, equation_residual, threshold):
    """Whether a run stops at a record: it is non-finite or its equation
    residual passes the divergence threshold (elementwise for arrays)."""
    return np.logical_not(finite) | (equation_residual > threshold)


def _stacks(provider, taus: np.ndarray, check) -> tuple:
    """The values of ``provider`` at every tau of ``taus`` (at least one)
    as complex128 stacks, one for each matrix it returns, after ``check``
    has seen the shapes of one record's matrices.

    A :class:`~dznd.problems.BlockProvider` is called once, with the
    array of taus.  Any other provider is called at each tau and its
    split matrices are stacked part by part (see
    :meth:`~dznd.linalg.SplitComplexMatrix.to_complex`), each record's
    shapes checked first.
    """
    over = getattr(provider, "over", None)
    if over is None:
        values = [_matrices(provider(tau)) for tau in taus.tolist()]
        for matrices in values:
            check(*(x.shape for x in matrices))
        stacks = []
        for part in zip(*values):
            z = np.empty((len(part),) + part[0].shape, dtype=np.complex128)
            z.real, z.imag = [x.re for x in part], [x.im for x in part]
            stacks.append(z)
        return tuple(stacks)
    stacks = tuple(
        np.asarray(z, dtype=np.complex128)
        for z in _matrices(over(np.array(taus, dtype=np.float64)))
    )
    for z in stacks:
        if z.shape[:1] != (len(taus),):
            raise ShapeError(
                f"block provider returned a stack of shape {z.shape}; "
                f"expected {len(taus)} records along its first axis"
            )
    check(*(z.shape[1:] for z in stacks))
    return stacks


def _matrices(values) -> tuple:
    """A provider's value as a tuple: (F, A, C), or (X*,)."""
    return values if isinstance(values, tuple) else (values,)


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

    gamma = complex(config.gamma.re, config.gamma.im)
    taus = np.empty(k_total + 1)
    states = np.empty((k_total + 1, 2 * m * n))
    states[0] = state_from_matrix(initial.x0)
    eq_residuals = np.empty(k_total + 1)
    sol_errors = np.empty(k_total + 1)
    finite_flags = np.empty(k_total + 1, dtype=bool)
    outcome = Outcome.COMPLETED
    diverged_at: Optional[int] = None
    paths = collections.Counter()
    factorizations = 0
    # F and A of the last step taken, as one row of bit patterns, and the
    # member of some block's factors that is its operator; both carry
    # across block boundaries.
    last, carried = None, None

    size = block_records(m, n)
    for start in range(0, k_total + 1, size):
        records = min(size, k_total + 1 - start)
        steps = min(records, k_total - start)
        block_taus = np.arange(start, start + records) * config.epsilon
        block = _Block.evaluate(problem, block_taus, steps, has_solution)
        # A step whose F and A differ bitwise from those of the step
        # before (even in the sign of a zero) starts a new member of the
        # block's factors.
        rows = _bit_rows(block.f[:steps], block.a[:steps])
        starts = _changes(rows, last)
        block_factors = OperatorFactors(
            block.f[:steps][starts], block.a[:steps][starts],
            config.pinv_tolerance,
        )
        members = np.cumsum(starts) - 1

        # From the crossover up, members are factored by the solves of the
        # steps taken, those of the carried member's factors too; below
        # it, every finite member at construction, and those whose first
        # step is taken count.
        owner = carried[0] if carried else None
        made = owner.factorizations if owner else 0
        step_paths, eq = block.advance(
            states[start:start + steps + 1], block_factors, members, carried,
            gamma, config.epsilon, config.divergence_threshold,
        )
        kept = slice(start, start + len(eq))
        finite = np.isfinite(states[kept]).all(axis=1) & np.isfinite(eq)
        taus[kept] = block_taus[:len(eq)]
        eq_residuals[kept], finite_flags[kept] = eq, finite
        sol_errors[kept] = block.solution_errors(states[kept])

        stop = np.flatnonzero(_stops(finite, eq, config.divergence_threshold))
        taken = int(stop[0]) if stop.size else steps
        if block_factors.structured:
            factorizations += block_factors.factorizations
            if owner:
                factorizations += owner.factorizations - made
        else:
            firsts = members[:taken][starts[:taken]]
            factorizations += int(np.count_nonzero(block_factors.finite[firsts]))
        paths.update(step_paths[:taken])
        if stop.size:
            outcome = Outcome.DIVERGED
            diverged_at = start + taken
            break
        if steps:
            last = rows[-1]
            if members[-1] >= 0:
                carried = block_factors, int(members[-1])

    records = k_total + 1 if diverged_at is None else diverged_at + 1
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

"""The stacked real state, the real operator, and the gain.

The solvers advance a real state vector of length 2mn laid out as
``[vec(X_re); vec(X_im)]``.  Because ``vec`` acts part by part, this
coincides exactly with stacking real and imaginary parts of the complex
column vec(X); there is only one state layout, and this module alone
knows it: :func:`stack`/:func:`unstack` convert complex128 arrays, and
:func:`state_from_matrix` stacks a split matrix, a run's start, through
them.

Both models solve, at every step, one operator
L(Z) = Z F - A conj(Z) for their update direction.  Over the reals it
is the 2mn x 2mn matrix W with W stack(Z) = stack(L(Z)); with
U = (F^T kron I_m) and V = (I_n kron A),

    W = [[U_re - V_re, -(U_im + V_im)],
         [U_im - V_im,   U_re + V_re ]]

and :func:`real_operator` writes its entries straight into place by
index scatter, without forming either Kronecker product.

:class:`DenseSolver` and :class:`StructuredSolver` take the steps of a
run, which picks one of them once by :func:`solver_class`.  The run
calls one method, ``advance``, once per block for every member of a
batch; each solver owns the rest.  It finds the block's operators by
:func:`find_operators`, once per block: the steps whose F and A stay
bitwise the same share one, also across the edge from the block
before, whose last bits the solver keeps.  It takes the steps, solving
L(D) = G in them, finds where each member stops and marks the steps
that factored L.  Steps only move forward from one operator to the
next, so a solver keeps only the current operator's factors.
Below mn = :data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns the factor is
W^+ from :func:`~dznd.linalg.pseudo_inverses`: the certified inverse of
W, or its SVD pseudo-inverse.  From it up the factors are those of the
Sylvester form of L: applying T(G) = G conj(F) + A conj(G) to both sides
gives K(D) = D (F conj F) - (A conj A) D = T(G) (Bevis, Hall & Hartwig,
SIAM J. Matrix Anal. Appl. 1988), which two eigendecompositions solve in
O(m^3 + n^3) instead of the O((mn)^3) of a dense solve with W.  A run's
operators usually move little from one step to the next, so a new
operator first tries the eigenbases of the last operator factored, also
in an earlier block: in them its Sylvester form is nearly diagonal, and
a few Jacobi sweeps solve it in O(m^2 n + m n^2) each, under a
certificate of its own.  That form and its certificate depend on F and A
alone, so they are formed ahead of the steps, for a window of a block's
operators at once in batched products.  When the Sylvester answer
cannot be certified or checked, the step takes W^+.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .linalg import (
    RealMatrix,
    RealVector,
    SplitComplexMatrix,
    pseudo_inverses,
    singular_value_cutoff,
)

# The number of unknowns mn from which the structured solve is tried;
# below it the dense affine step of dznd.solvers is faster.  Median
# process time per step of dznd.run on moving shifted trig problems
# (seed 3, epsilon = 0.01, 128 steps, 9 alternating runs, one BLAS
# thread, 2-vCPU host whose speed drifts by up to 50% between runs),
# dense against structured, with the dense step one product with the
# lifted step matrix: 2x2 121/419 us, 4x4 231/394 us, 4x6 368/399 us,
# 4x8 542/405 us, 5x7 582/245 us, 6x6 440/235 us, 6x8 731/228 us.  The
# two meet between mn = 24 and 32.
STRUCTURED_SOLVE_MIN_UNKNOWNS = 32

_EPS = float(np.finfo(np.float64).eps)
# Below half the largest float, no sum of two parts overflows.
_HALF_MAX = float(np.finfo(np.float64).max) / 2
# The Jacobi sweeps of a solve in the eigenbases of another member stop
# once an update's Frobenius norm is at most _SWEEP_TOLERANCE times that
# of the first iterate, and give up after _SWEEP_CAP sweeps.  Shifted
# trig problems from 6x6 to 64x64 at epsilon = 0.01 and 0.001 took 5 to
# 19 sweeps; at 16x16 a sweep costs about 8 us and the two
# eigendecompositions it saves about 700 us (one BLAS thread).
_SWEEP_TOLERANCE = _EPS
_SWEEP_CAP = 32
# The Sylvester forms of a block's coming operators in the base's
# eigenbases are formed REUSE_WINDOW at a time.  Forming the rest of the
# block at each new base instead made a 16x16 run at epsilon = 0.01 over
# 300 steps, which factors every dozen steps or so, 37% slower.
REUSE_WINDOW = 8


@dataclass(frozen=True)
class ComplexGain:
    """Convergence-rate gain gamma = re + i*im, in 1/seconds.

    The real part must be positive; the imaginary part probes the models
    with a rotating error feedback and is zero for ordinary use.
    """

    re: float
    im: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"gain must be finite, got {self.re}+{self.im}i")
        if not self.re > 0:
            raise ValueError(f"gain real part must be positive, got {self.re}")

    @property
    def is_real(self) -> bool:
        return self.im == 0.0

    @classmethod
    def parse(cls, text: str) -> "ComplexGain":
        """Parse gain text of the form ``a``, ``a+bi`` or ``a-bi``."""
        try:
            value = complex(text.strip().replace("i", "j").replace("I", "j"))
        except ValueError:
            raise ValueError(
                f"cannot parse gain {text!r} (expected a, a+bi or a-bi)"
            ) from None
        return cls(value.real, value.imag)

    def __str__(self) -> str:
        if self.im == 0.0:
            return repr(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re!r}{sign}{abs(self.im)!r}i"


def stack(z: np.ndarray) -> RealVector:
    """The state vector [vec(Z_re); vec(Z_im)] of a complex matrix, or
    the stack of them for a stack of matrices along leading axes."""
    z = z.swapaxes(-1, -2).reshape(z.shape[:-2] + (-1,))
    return np.concatenate([z.real, z.imag], axis=-1)


def unstack(state: RealVector, m: int, n: int) -> np.ndarray:
    """The complex128 m x n matrix whose state vector is ``state``, or
    the stack of them for a stack of states along leading axes."""
    state = np.asarray(state, dtype=np.float64)
    mn = m * n
    if state.shape[-1:] != (2 * mn,):
        raise ShapeError(
            f"state of shape {state.shape} does not match 2mn = {2 * mn}"
        )
    z = np.empty(state.shape[:-1] + (mn,), dtype=np.complex128)
    z.real, z.imag = state[..., :mn], state[..., mn:]
    return z.reshape(z.shape[:-1] + (n, m)).swapaxes(-1, -2)


def state_from_matrix(x: SplitComplexMatrix) -> RealVector:
    """Stack a split matrix into the solver state layout
    [vec(X_re); vec(X_im)]."""
    return stack(x.to_complex())


def real_operator(f: np.ndarray, a: np.ndarray) -> RealMatrix:
    """The 2mn x 2mn real matrix W of Z -> Z F - A conj(Z) (module
    docstring), for complex F n x n and A m x m, or the stack of them for
    stacks of F and A along leading axes.

    Row and column (p, t, s) index part p (0 real, 1 imaginary) of
    vec entry t*m + s.  The F terms, F[t', t] at s = s', are set first;
    the A terms, A[s, s'] at t = t', are then added where they land, so
    every entry is the same single sum the Kronecker formula computes.
    Each is one gather from the parts of F (or A) and one scatter into W
    through the index plan of :func:`_operator_plan`.
    """
    batch, n, m = f.shape[:-2], f.shape[-1], a.shape[-1]
    f, a = f.reshape(-1, n, n), a.reshape(-1, m, m)
    f_to, f_from, a_to, a_from = _operator_plan(m, n)
    size = 2 * m * n
    w = np.zeros((f.shape[0], size * size))
    f_parts = np.concatenate([f.real, f.imag, -f.imag], axis=1)
    a_parts = np.concatenate([-a.real, -a.imag, a.real], axis=1)
    w[:, f_to] = f_parts.reshape(f.shape[0], -1)[:, f_from]
    w[:, a_to] += a_parts.reshape(a.shape[0], -1)[:, a_from]
    return w.reshape(batch + (size, size))


@functools.lru_cache(maxsize=8)
def _operator_plan(m: int, n: int) -> tuple[np.ndarray, ...]:
    """Flat indices (F terms into W, from F's parts, A terms into W, from
    A's parts) for :func:`real_operator`.

    F's parts are [Re F; Im F; -Im F] and A's parts [-Re A; -Im A; Re A],
    each flattened row-major.  Block (p, q) of W takes, from F, part
    0, 2, 1, 0 for (p, q) = (0, 0), (0, 1), (1, 0), (1, 1), and from A,
    part 0, 1, 1, 2.
    """
    mn = m * n
    p = np.arange(2)[:, None, None, None, None]
    q = np.arange(2)[:, None, None, None]
    # F[t', t] lands at row (p, t, s), column (q, t', s).
    t, u, s = np.ix_(np.arange(n), np.arange(n), np.arange(m))
    f_to = (p * mn + t * m + s) * (2 * mn) + q * mn + u * m + s
    f_from = np.array([[0, 2], [1, 0]])[p, q] * n * n + u * n + t
    # A[s, s'] lands at row (p, t, s), column (q, t, s').
    t, s, v = np.ix_(np.arange(n), np.arange(m), np.arange(m))
    a_to = (p * mn + t * m + s) * (2 * mn) + q * mn + t * m + v
    a_from = np.array([[0, 1], [1, 2]])[p, q] * m * m + s * m + v
    plan = []
    for index, shape in (
        (f_to, (2, 2, n, n, m)), (f_from, (2, 2, n, n, m)),
        (a_to, (2, 2, n, m, m)), (a_from, (2, 2, n, m, m)),
    ):
        index = np.broadcast_to(index, shape).ravel()
        index.setflags(write=False)  # shared by every caller of the cache
        plan.append(index)
    return tuple(plan)


class SolvePath(enum.IntEnum):
    """How the solve of a step obtained its direction, by the code a
    trajectory stores for the step as a uint8."""

    NONE = 0  # no solve: the operator or the drive is not finite
    STRUCTURED = 1  # the eigendecomposed Sylvester form
    INVERSE = 2  # the certified inverse of W
    PINV = 3  # the SVD pseudo-inverse of W


class Operators(NamedTuple):
    """The operators of a block's steps, from :func:`find_operators`."""

    index: np.ndarray  # each step's operator
    starts: np.ndarray  # whether a step starts an operator
    f: np.ndarray  # F and A of each operator
    a: np.ndarray
    new: np.ndarray  # not the previous block's last; only the first can be
    finite: np.ndarray  # whether its W is finite (_finite_operators)
    last: np.ndarray  # the bits of F and A at the last step


def find_operators(
    rows: np.ndarray, previous: np.ndarray | None, f: np.ndarray, a: np.ndarray
) -> Operators:
    """The operators of a block's steps (at least one), from the stacks
    ``f`` and ``a`` of their F and A, the ``rows`` of their bits
    (:func:`_bit_rows`, which begin with F and A) and the bits ``previous``
    of F and A at the step before the block, or None: a step starts one
    when its F or A changes a bit."""
    rows = rows[:, :2 * (f.shape[-1] ** 2 + a.shape[-1] ** 2)]
    starts = _changes(rows)
    f, a = f[starts], a[starts]
    new = np.ones(len(f), dtype=bool)
    new[0] = previous is None or bool((rows[0] != previous).any())
    finite = _finite_operators(f, a)
    return Operators(
        np.cumsum(starts) - 1, starts, f, a, new, finite, rows[-1].copy()
    )


def _block_operators(stacks, steps: int, before: Operators | None):
    """The bit rows of a block's ``stacks``, which begin with F and A, at
    its first ``steps`` records, and the operators of those steps after
    the operators ``before`` of the block before, or None."""
    stacks = [z[:steps] for z in stacks]
    rows = _bit_rows(*stacks)
    previous = None if before is None else before.last
    return rows, find_operators(rows, previous, stacks[0], stacks[1])


def sylvester_terms(operators: Operators) -> tuple[np.ndarray, ...]:
    """P = F conj F, Q = A conj A and s = ||F||_F + ||A||_F of each of a
    block's operators, in batched products, without a warning: an
    operator that is not finite is never solved."""
    f, a = operators.f, operators.a
    with np.errstate(all="ignore"):
        s = frobenius_norms(f) + frobenius_norms(a)
        return f @ np.conj(f), a @ np.conj(a), s


def solver_class(m: int, n: int) -> type[DenseSolver] | type[StructuredSolver]:
    """The solver of a run of an m x n problem: :class:`DenseSolver`
    below :data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns,
    :class:`StructuredSolver` from it up, read at call time."""
    if m * n < STRUCTURED_SOLVE_MIN_UNKNOWNS:
        return DenseSolver
    return StructuredSolver


def _stops(finite, equation_residual, threshold):
    """Whether a run stops at a record: it is non-finite or its equation
    residual passes the divergence threshold (elementwise for arrays)."""
    return np.logical_not(finite) | (equation_residual > threshold)


class DenseSolver:
    """The steps of a run below the structured crossover, with a pinv
    cutoff ``tolerance``.

    There the drive is affine in the state,
    G = (Cdot + gamma C) - [X (Fdot + gamma F) - (Adot + gamma A) conj(X)],
    so a step is x_{k+1} = x_k + epsilon (q_k - P_k x_k) with P_k and q_k
    known before the loop: W_k^+ times the real form R_k of the bracket,
    and W_k^+ c_k with c_k = stack(Cdot_k + gamma C_k).  On the lifted
    state [x; 1] that step is one product with the lifted step matrix
    S_k = [[I - epsilon P_k, epsilon q_k], [0^T, 1]].  At these sizes the
    Python overhead of each numpy call costs more than the arithmetic.

    :meth:`advance` finds a block's operators from the bits of its F, A,
    C, Fdot, Adot and Cdot and of F and A at the step before it, and forms
    the W^+ of its new finite operators in one :meth:`inverses` call, for
    every member of a batch.  The solver keeps only the last operator's
    W^+ and path, which serve a block whose first operator repeats it: a
    run with constant coefficients forms W^+ once.  It takes every step of
    the block for every member and then finds where each stops, in one
    pass over them all.
    """

    @staticmethod
    def block_bytes(m: int, n: int) -> tuple[int, int]:
        """The bytes a block adds per record, W^+, the bracket [R | -c],
        S, the lifted state and the states, and sets aside: none."""
        size = 2 * m * n
        return 8 * (size**2 + 2 * (size + 1) ** 2 + size), 0

    def __init__(self, tolerance: float | None = None):
        self._tolerance = tolerance
        self._kept: tuple[RealMatrix, int] | None = None
        self._operators: Operators | None = None

    def inverses(self, operators: Operators) -> tuple[np.ndarray, ...]:
        """For each of a block's operators: its ``pinv(W_i, tolerance)``,
        stacked; the uint8 code of its path, the certified inverse of W or
        its SVD pseudo-inverse (an operator whose W is not finite has a nan
        W^+ and path NONE); and whether this block formed its W^+."""
        f, a = operators.f, operators.a
        formed = operators.new & operators.finite
        if formed.all():
            # Every operator is new and finite: the stack serves as it is.
            w_plus, fell_back = pseudo_inverses(
                real_operator(f, a), self._tolerance
            )
            paths = (SolvePath.INVERSE + fell_back).astype(np.uint8)
        else:
            size = 2 * f.shape[-1] * a.shape[-1]
            w_plus = np.full((len(f), size, size), math.nan)
            paths = np.full(len(f), SolvePath.NONE, dtype=np.uint8)
            if not operators.new[0]:
                w_plus[0], paths[0] = self._kept
            todo = np.flatnonzero(formed)
            if todo.size:
                w_plus[todo], fell_back = pseudo_inverses(
                    real_operator(f[todo], a[todo]), self._tolerance
                )
                paths[todo] = SolvePath.INVERSE + fell_back
        self._kept = w_plus[-1].copy(), paths[-1]
        return w_plus, paths, formed

    def advance(self, block, states, members, gammas, epsilon, thresholds):
        """Take the block's steps for the ``members`` of a batch, rows of
        ``states``, each from its state ``states[i, 0]`` at its gain
        ``gammas[i]``, writing the state after step j into
        ``states[i, j + 1]``.  Return for each member each step's
        :class:`SolvePath` code and whether it factored L, which the
        members share, ||E||_F and ||X - X*||_F at the block's records, and
        whether it stopped, every array cut at its stop: the first record
        whose state or ||E||_F is non-finite, or whose ||E||_F passes
        ``thresholds[i]``.

        Consecutive steps with bitwise the same F, A, C, Fdot, Adot and
        Cdot (their rows) form a group; a group shares one operator, and
        for any gain one S.  The members' shifted coefficients and drive
        columns -c are formed at the group starts only, stacked.  Each
        member in turn then forms its bracket [R | -c], the S of every
        group from one product W^+ [R | -c] = [P | -q], and one
        matrix-vector product per step into its lifted buffer, and
        releases both before the next member's, as a block's budget holds
        a run's.  The norms follow for the whole stack, equal bitwise to
        ``np.linalg.norm``.  All the steps are taken, without warnings:
        those past a stop are discarded.  An operator that is not finite
        has a nan W^+, hence a nan S, so the state after its step is
        non-finite.
        """
        records, steps = len(block.f), states.shape[1] - 1
        count, size = len(members), states.shape[-1]
        m, n = block.a.shape[-1], block.f.shape[-1]
        paths, made = np.zeros(0, np.uint8), np.zeros(0, bool)
        lifted = np.zeros((count, steps + 1, size + 1))
        lifted[:, 0, :size], lifted[:, 0, size] = states[members, 0], 1.0
        with np.errstate(all="ignore"):
            if steps:
                rows, operators = _block_operators(
                    block[:6], steps, self._operators)
                self._operators = operators
                inverses, operator_paths, formed = self.inverses(operators)
                firsts = _changes(rows)
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
                shifted = values[..., half:] + np.array(
                    [gammas[i] for i in members])[:, None] * values[..., :half]
                edges = [0, n * n, n * n + m * m, half]
                fs, as_, cs = (
                    shifted[..., lo:hi].reshape(
                        shifted.shape[:2] + z.shape[1:])
                    for lo, hi, z in zip(edges, edges[1:], block[:3])
                )
                paths = operator_paths[operators.index]
                made = operators.starts & formed[operators.index]
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
            eq = frobenius_norms(block.equation_error(x, slice(records)))
        errors = block.solution_errors(recorded)
        stopping = _stops(
            np.isfinite(recorded).all(axis=-1) & np.isfinite(eq), eq,
            np.array(thresholds)[members, None],
        )
        # Each member's stop, or ``records`` for none.
        stops = np.where(
            stopping.any(axis=1), stopping.argmax(axis=1), records).tolist()
        return [
            (paths[:k], made[:k], eq[i, :k + 1], errors[i, :k + 1],
             k < records)
            for i, k in enumerate(stops)
        ]


@dataclass
class _Held:
    """What one member of a batch holds between the solves of a
    :class:`StructuredSolver`."""

    base: _SylvesterFactors | None = None
    factors: _SylvesterFactors | None = None
    own: bool = False  # whether ``factors`` are the operator's own
    dense: tuple[RealMatrix, SolvePath] | None = None
    operator: int = -1  # the current one's index in the block; -1 for none
    reuses: _Reuses | None = None
    first: int = 0  # the operator of the first of ``reuses``


class StructuredSolver:
    """The steps of a run from the structured crossover up, with a pinv
    cutoff ``tolerance``: each member of a batch steps in turn, and each
    step forms E and G and solves L(D) = G with the Sylvester factors, as
    P would cost O((mn)^3) per step against the O(m^3 + n^3) of a solve.

    :meth:`advance` finds a block's operators from the bits of its F and A
    and of F and A at the step before it, and :meth:`block` forms their
    :func:`sylvester_terms` once for all members.  Each member keeps its
    base, the operator whose Sylvester form it factored and certified
    last, across block edges too; the Sylvester forms of a window of
    :data:`REUSE_WINDOW` coming operators in the base's eigenbases, with
    their certificates (:func:`_reuses`); and, until a step starts a new
    operator, what served the current one.

    A new operator's first solve takes the base's eigenbases when their
    certificate holds for it.  When it does not, or the sweeps reach
    their cap or the answer fails the backward-error check, the
    operator's own Sylvester form is factored and certified at once
    (:func:`_sylvester_factors`), and when certified it becomes the base
    and starts a new window.  The operator keeps what served it: the
    base's eigenbases while they pass, or else its own factors for every
    later G.  When neither is certified, or the answer of its own fails
    the check, its W^+ from :func:`~dznd.linalg.pseudo_inverses` is
    formed and kept.  A step whose operator or drive is not finite solves
    nothing: its state goes to nan.
    """

    @staticmethod
    def block_bytes(m: int, n: int) -> tuple[int, int]:
        """The bytes a block adds per record, P = F conj F and
        Q = A conj A, and sets aside: a member's window of Sylvester
        forms, P_off, Q_off and the gaps."""
        square = n * n + m * m
        return 16 * square, REUSE_WINDOW * 16 * (square + m * n)

    def __init__(self, tolerance: float | None = None):
        self._tolerance = tolerance
        self._held: dict[int, _Held] = collections.defaultdict(_Held)
        self._operators: Operators | None = None

    def block(self, operators: Operators):
        """Take a block's operators and form their Sylvester terms; its
        steps are then solved in order."""
        self._operators = operators
        self._steps = operators.index.tolist()
        self._p, self._q, self._s = sylvester_terms(operators)
        self._cutoff = singular_value_cutoff(
            self._tolerance, 2 * operators.f.shape[-1] * operators.a.shape[-1]
        )
        for held in self._held.values():
            # The first operator is the one held now unless it is new.
            held.operator = -1 if operators.new[0] else 0
            held.reuses, held.first = None, 0

    def advance(self, block, states, members, gammas, epsilon, thresholds):
        """Take the block's steps of each of the ``members`` of a batch in
        turn, from its state ``states[i, 0]`` at its gain ``gammas[i]``,
        writing the state after step j into ``states[i, j + 1]``, and
        yield, as :meth:`DenseSolver.advance` returns, each step's path and
        whether it factored L, ||E||_F and ||X - X*||_F at each record
        filled, and whether it stopped.  A member's steps stop at the first
        record whose state or ||E||_F is non-finite, or whose ||E||_F
        passes ``thresholds[i]``.  A member's records are yielded before
        the next member steps, so they are kept when a later one raises.
        """
        steps, records = states.shape[1] - 1, len(block.f)
        m, n = block.a.shape[-1], block.f.shape[-1]
        if steps:
            _, operators = _block_operators(block[:2], steps, self._operators)
            self.block(operators)
        for i in members:
            x_states, paths, made, eqs = states[i], [], [], []
            # A record past overflow is recorded, not warned about.
            with np.errstate(all="ignore"):
                for j in range(records):
                    x = unstack(x_states[j], m, n)
                    x_conj = np.conj(x)
                    e = x @ block.f[j] - block.a[j] @ x_conj - block.c[j]
                    eqs.append(np.linalg.norm(e))
                    stopped = _stops(
                        np.isfinite(x_states[j]).all()
                        and math.isfinite(eqs[-1]), eqs[-1], thresholds[i],
                    )
                    if stopped or j == steps:
                        break
                    drive = (
                        block.cd[j] + block.ad[j] @ x_conj - x @ block.fd[j]
                        - gammas[i] * e
                    )
                    direction, path, factored = self.solve(j, drive, i)
                    x_states[j + 1] = x_states[j] + epsilon * direction
                    paths.append(path)
                    made.append(factored)
            yield paths, made, np.array(eqs), block.solution_errors(
                x_states[:len(eqs)]), bool(stopped)

    def solve(
        self, step: int, g: np.ndarray, member: int = 0
    ) -> tuple[RealVector, SolvePath, bool]:
        """``pinv(W_k, tolerance) @ stack(G)`` for step k of the block,
        i.e. stack(D) with D F_k - A_k conj(D) = G, by a ``member``; the
        path that gave it; and whether this solve factored L, that is
        formed the operator's own Sylvester factors (counted once per
        operator).  It tries the base's eigenbases, then the operator's
        own Sylvester factors, then its W^+.

        When W_k (see :func:`_finite_operators`) or G is not finite, the
        answer is nan and the path NONE, without a solve."""
        held = self._held[member]
        operator = self._steps[step]
        if operator != held.operator:
            held.operator = operator
            held.factors, held.own, held.dense = None, False, None
        if not (self._operators.finite[operator] and np.isfinite(g).all()):
            return np.full(2 * g.size, math.nan), SolvePath.NONE, False
        f, a = self._operators.f[operator], self._operators.a[operator]
        factored = False
        if not held.own:
            factors = held.factors or self._reused(held)
            d = None if factors is None else factors.apply(f, a, g)
            if d is not None:
                held.factors = factors
                return stack(d), SolvePath.STRUCTURED, False
            held.own = factored = True
            held.factors = _sylvester_factors(
                self._p[operator], self._q[operator],
                float(self._s[operator]), self._cutoff,
            )
            if held.factors is not None:
                held.base, held.reuses = held.factors, None
        d = None if held.factors is None else held.factors.apply(f, a, g)
        if d is not None:
            return stack(d), SolvePath.STRUCTURED, factored
        if held.dense is None:
            w_plus, fell_back = pseudo_inverses(
                real_operator(f, a)[None], self._tolerance
            )
            held.dense = w_plus[0], (
                SolvePath.PINV if fell_back[0] else SolvePath.INVERSE)
        matrix, path = held.dense
        return matrix @ stack(g), path, factored

    def _reused(self, held: _Held) -> _SylvesterFactors | None:
        """The factors of the current operator's Sylvester form in the
        base's eigenbases, or None without a base or when their
        certificate fails.  An operator past the window forms the next
        one from it on."""
        if held.base is None:
            return None
        i, reuses = held.operator, held.reuses
        if reuses is None or i >= held.first + len(reuses.certified):
            end = i + REUSE_WINDOW
            reuses = held.reuses = _reuses(
                held.base, self._p[i:end], self._q[i:end], self._s[i:end],
                self._cutoff,
            )
            held.first = i
        k = i - held.first
        if not reuses.certified[k]:
            return None
        return held.base._replace(
            gaps=reuses.gaps[k], s=float(self._s[i]),
            off=(reuses.p_off[k], reuses.q_off[k]),
        )


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


def _changes(rows: np.ndarray) -> np.ndarray:
    """Whether each of rows (at least one) differs from the row before
    it; the first does."""
    return np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])


def _finite_operators(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether W_i = ``real_operator(F_i, A_i)`` is finite for each member
    of stacks of F and A, of any memory layout.  :func:`real_operator`
    adds an A term onto an F term only on W's diagonal blocks, at F[t, t]
    and A[s, s]; the sums there are Re F[t, t] +- Re A[s, s] and
    Im F[t, t] +- Im A[s, s], up to sign, so W overflows exactly when some
    F[t, t] +- A[s, s] does.  No sum overflows when every diagonal part of
    the stack is below half the largest float, which one test of the
    whole stack shows; only otherwise are the sums formed member by
    member."""
    finite = np.isfinite(f).all(axis=(1, 2)) & np.isfinite(a).all(axis=(1, 2))
    fd = np.diagonal(f, axis1=1, axis2=2)
    ad = np.diagonal(a, axis1=1, axis2=2)
    parts = np.concatenate([fd.real, fd.imag, ad.real, ad.imag], axis=1)
    # A nan part fails the test, as it should.
    if np.abs(parts).max(initial=0.0) < _HALF_MAX:
        return finite
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.isfinite(fd[:, :, None] + ad[:, None, :]) & np.isfinite(
            fd[:, :, None] - ad[:, None, :]
        )
    return finite & sums.all(axis=(1, 2))


class _SylvesterFactors(NamedTuple):
    """The Sylvester form D P - Q D = T(G), P = F conj F, Q = A conj A
    (module docstring), in the eigenbases V of some P_0 and U of some
    Q_0: V^-1 P V = diag(lam) + P_off and U^-1 Q U = diag(mu) + Q_off,
    ``gaps[i, j]`` = lam_j - mu_i, ``condition`` = kF(U) kF(V) with
    kF(U) = ||U||_F ||U^-1||_F, and s = ||F||_F + ||A||_F.  For a
    member's own factors P_0 = P and Q_0 = Q, and ``off`` is None;
    otherwise ``off`` holds (P_off, Q_off)."""

    u: np.ndarray
    u_inv: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    gaps: np.ndarray
    condition: float
    s: float
    off: tuple[np.ndarray, np.ndarray] | None = None

    def apply(
        self, f: np.ndarray, a: np.ndarray, g: np.ndarray
    ) -> np.ndarray | None:
        """D = U Y V^-1 with D F - A conj(D) = G, where Y solves
        Y (diag(lam) + P_off) - (diag(mu) + Q_off) Y = U^-1 T(G) V; or
        None when the sweeps for Y reach their cap or D fails the
        backward-error check
        ||D F - A conj(D) - G||_F <= eps * 2mn * (s ||D||_F + ||G||_F),
        which does not depend on the cutoff.

        Without ``off``, Y = (U^-1 T(G) V) / gaps.  With it, Jacobi sweeps
        Y <- (U^-1 T(G) V - Y P_off + Q_off Y) / gaps start from that
        quotient; each adds the update R <- (Q_off R - R P_off) / gaps of
        the one before, which the certificate shrinks to at most
        delta < 1/2 of that one's norm, until ||R||_F is at most
        _SWEEP_TOLERANCE times the first iterate's norm."""
        t = g @ np.conj(f) + a @ np.conj(g)
        y = (self.u_inv @ t @ self.v) / self.gaps
        if self.off is not None:
            p_off, q_off = self.off
            # Squared norms as dot products: cheaper than np.linalg.norm.
            limit = _SWEEP_TOLERANCE**2 * np.vdot(y, y).real
            update = y
            for _ in range(_SWEEP_CAP):
                update = q_off @ update - update @ p_off
                update /= self.gaps
                y += update
                if np.vdot(update, update).real <= limit:
                    break
            else:
                return None
        d = self.u @ y @ self.v_inv
        r = d @ f - a @ np.conj(d) - g
        residual = math.sqrt(np.vdot(r, r).real)
        scale = self.s * math.sqrt(np.vdot(d, d).real) + math.sqrt(
            np.vdot(g, g).real
        )
        if not residual <= _EPS * 2 * g.size * scale:
            return None
        return d


def _certified(s, condition, cutoff, gap, off=0.0) -> bool | np.ndarray:
    """The Sylvester certificate: whether, for ||L|| <= s and the
    Sylvester form in eigenbases U and V with ``condition`` kF(U) kF(V),
    smallest |gap| ``gap`` and off-diagonal norm ``off``
    (||P_off||_F + ||Q_off||_F), delta = off / gap < 1/2 and
    s^2 kF(U) kF(V) cutoff < gap (1 - delta) / 2; elementwise for arrays.

    The Neumann series bounds the inverse of the Sylvester form in the
    eigenbases by 1 / (gap (1 - delta)), so ||L^-1|| <= s kF(U) kF(V) /
    (gap (1 - delta)), and the test bounds kappa_2(W) as the certificate
    of :func:`~dznd.linalg.pseudo_inverses` does: pinv would cut no
    singular value and equals the inverse.  It is written without a
    division: an overflow reads inf and inf * 0 reads nan; neither
    passes, and a zero gap fails."""
    return (off < 0.5 * gap) & (s * s * condition * cutoff < 0.5 * (gap - off))


def _sylvester_factors(
    p: np.ndarray, q: np.ndarray, s: float, cutoff: float
) -> _SylvesterFactors | None:
    """The factors of the Sylvester form of L, with P = F conj F,
    Q = A conj A and s = ||F||_F + ||A||_F, from its own two
    eigendecompositions, or None when they cannot be certified
    (:func:`_certified` with delta = 0)."""
    try:
        lam, v = np.linalg.eig(p)
        mu, u = np.linalg.eig(q)
        v_inv, u_inv = np.linalg.inv(v), np.linalg.inv(u)
    except np.linalg.LinAlgError:
        return None
    gaps = lam - mu[:, None]
    condition = 1.0
    for factor in (u, u_inv, v, v_inv):
        condition *= math.sqrt(np.vdot(factor, factor).real)
    if not _certified(s, condition, cutoff, float(np.abs(gaps).min())):
        return None
    return _SylvesterFactors(u, u_inv, v, v_inv, gaps, condition, s)


class _Reuses(NamedTuple):
    """The Sylvester forms of a stack of operators in the eigenbases of a
    base (:class:`_SylvesterFactors`): for each, the off-diagonal parts
    P_off and Q_off, the gaps lam_j - mu_i of the diagonals, and whether
    :func:`_certified` holds for it."""

    p_off: np.ndarray
    q_off: np.ndarray
    gaps: np.ndarray
    certified: np.ndarray


def _reuses(
    base: _SylvesterFactors,
    p: np.ndarray,
    q: np.ndarray,
    s: np.ndarray,
    cutoff: float,
) -> _Reuses:
    """The Sylvester forms, in the eigenbases of ``base``, of the
    operators with stacks P = F conj F and Q = A conj A and norms
    s = ||F||_F + ||A||_F: no eigendecomposition, only the transforms
    V^-1 P V and U^-1 Q U in batched products, split into their
    diagonals and off-diagonal parts.  A non-finite operator's form is
    not certified, and warns nothing."""
    with np.errstate(all="ignore"):
        p = base.v_inv @ p @ base.v
        q = base.u_inv @ q @ base.u
        # Views of the diagonals, by a step of n + 1 along each member.
        lam = p.reshape(len(p), -1)[:, :: p.shape[-1] + 1]
        mu = q.reshape(len(q), -1)[:, :: q.shape[-1] + 1]
        gaps = lam[:, None, :] - mu[:, :, None]
        lam[...] = 0.0
        mu[...] = 0.0
        # ||P_off||_F + ||Q_off||_F of each member by vdot, as the
        # backward-error check and the condition take their norms.
        off = np.array([
            math.sqrt(np.vdot(pk, pk).real) + math.sqrt(np.vdot(qk, qk).real)
            for pk, qk in zip(p, q)
        ])
        certified = _certified(
            s, base.condition, cutoff, np.abs(gaps).min(axis=(1, 2)), off
        )
    return _Reuses(p, q, gaps, certified)


def frobenius_norms(z: np.ndarray) -> np.ndarray:
    """||Z||_F of each complex matrix of a stack along leading axes, equal
    bitwise to ``np.linalg.norm``: that takes
    sqrt(Re Z . Re Z + Im Z . Im Z) with the dot products over the
    strided real and imaginary views, and a stacked vector-vector matmul
    calls the same dot.  (A contiguous copy or ``einsum`` sums in another
    order and can differ in the last bit.)  Overflow reads inf without a
    warning, as it does there."""
    z = z.reshape(z.shape[:-2] + (math.prod(z.shape[-2:]),))
    re, im = z.real, z.imag
    with np.errstate(all="ignore"):
        squares = (
            re[..., None, :] @ re[..., :, None]
            + im[..., None, :] @ im[..., :, None]
        )
        return np.sqrt(squares[..., 0, 0])


# ---------------------------------------------------------------------------
# Zero-stability of the one-step update scheme.
# ---------------------------------------------------------------------------


def euler_forward_characteristic() -> np.ndarray:
    """Ascending coefficients of the scheme polynomial delta - 1
    (from x_{k+1} - x_k = epsilon * drive)."""
    return np.array([-1.0, 1.0])


def characteristic_roots(coefficients) -> np.ndarray:
    """Roots of P(delta) = sum_i f_i delta^i, coefficients ascending."""
    coeffs = np.trim_zeros(np.asarray(coefficients, dtype=np.float64), "b")
    if coeffs.size < 2:
        raise ValueError("characteristic polynomial must have degree >= 1")
    return np.roots(coeffs[::-1])


def zero_stability_roots() -> np.ndarray:
    """Root multiset of the one-step scheme used by both models: {1}."""
    return characteristic_roots(euler_forward_characteristic())


def is_zero_stable(roots, tol: float = 1e-9) -> bool:
    """True iff all roots lie inside or on the unit circle and every root
    of modulus one is simple."""
    roots = np.atleast_1d(np.asarray(roots, dtype=np.complex128))
    moduli = np.abs(roots)
    if np.any(moduli > 1.0 + tol):
        return False
    for i in np.nonzero(np.abs(moduli - 1.0) <= tol)[0]:
        if np.sum(np.abs(roots - roots[i]) <= tol) > 1:
            return False
    return True

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

:class:`DenseSolver` and :class:`StructuredSolver` solve L(D) = G for
the steps of a run, which picks one of them once from its mn.
:func:`find_operators` decides once per block, for either solver and
every member of a batch, which steps share an operator: those whose F
and A stay bitwise the same, also across the edge from the block before.
Steps only move forward from one operator to the next, so a solver keeps
only the current operator's factors.  Below mn =
:data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns the factor is W^+ from
:func:`~dznd.linalg.pseudo_inverses`: the certified inverse of W, or its
SVD pseudo-inverse.  From it up the factors are those of the Sylvester
form of L: applying T(G) = G conj(F) + A conj(G) to both sides gives
K(D) = D (F conj F) - (A conj A) D = T(G) (Bevis, Hall & Hartwig, SIAM
J. Matrix Anal. Appl. 1988), which two eigendecompositions solve in
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


class SolvePath(enum.Enum):
    """How the solve of a step obtained its direction."""

    STRUCTURED = "structured"  # the eigendecomposed Sylvester form
    INVERSE = "inverse"  # the certified inverse of W
    PINV = "pinv"  # the SVD pseudo-inverse of W


class Operators(NamedTuple):
    """The operators of a block's steps, from :func:`find_operators`."""

    index: np.ndarray  # each step's operator
    starts: np.ndarray  # whether a step starts an operator
    f: np.ndarray  # F and A of each operator
    a: np.ndarray
    new: np.ndarray  # not the previous block's last; only the first can be
    finite: np.ndarray  # whether its W is finite (_finite_operators)


def find_operators(
    rows: np.ndarray, previous: np.ndarray | None, f: np.ndarray, a: np.ndarray
) -> Operators:
    """The operators of a block's steps (at least one), from the stacks
    ``f`` and ``a`` of their F and A, the ``rows`` of their bits
    (:func:`_bit_rows`) and the row ``previous`` of the step before the
    block, or None: a step starts one when its F or A changes a bit."""
    starts = _changes(rows)
    f, a = f[starts], a[starts]
    new = np.ones(len(f), dtype=bool)
    new[0] = previous is None or bool((rows[0] != previous).any())
    finite = _finite_operators(f, a)
    return Operators(np.cumsum(starts) - 1, starts, f, a, new, finite)


def sylvester_terms(operators: Operators) -> tuple[np.ndarray, ...]:
    """P = F conj F, Q = A conj A and s = ||F||_F + ||A||_F of each of a
    block's operators, in batched products, without a warning: an
    operator that is not finite is never solved."""
    f, a = operators.f, operators.a
    with np.errstate(all="ignore"):
        s = frobenius_norms(f) + frobenius_norms(a)
        return f @ np.conj(f), a @ np.conj(a), s


class DenseSolver:
    """The W^+ of L(Z) = Z F - A conj(Z) for the steps of a run below the
    structured crossover, with a pinv cutoff ``tolerance``: for a block's
    operators (:func:`find_operators`), :meth:`inverses` forms those of
    the new finite ones in one :func:`~dznd.linalg.pseudo_inverses` call.
    The solver keeps only the last operator's W^+ and path, which serve a
    block whose first operator repeats it: a run with constant
    coefficients forms W^+ once."""

    def __init__(self, tolerance: float | None = None):
        self._tolerance = tolerance
        self._kept: tuple[RealMatrix, SolvePath | None] | None = None

    def inverses(self, operators: Operators) -> tuple[np.ndarray, ...]:
        """For each of a block's operators: its ``pinv(W_i, tolerance)``,
        stacked; its path, the certified inverse of W or its SVD
        pseudo-inverse, in an object array (an operator whose W is not
        finite has a nan W^+ and path None); and whether this block formed
        its W^+."""
        f, a = operators.f, operators.a
        formed = operators.new & operators.finite
        if formed.all():
            # Every operator is new and finite: the stack serves as it is.
            w_plus, fell_back = pseudo_inverses(
                real_operator(f, a), self._tolerance
            )
            paths = _DENSE_PATHS[fell_back.astype(np.intp)]
        else:
            size = 2 * f.shape[-1] * a.shape[-1]
            w_plus = np.full((len(f), size, size), math.nan)
            paths = np.full(len(f), None, dtype=object)
            if not operators.new[0]:
                w_plus[0], paths[0] = self._kept
            todo = np.flatnonzero(formed)
            if todo.size:
                w_plus[todo], fell_back = pseudo_inverses(
                    real_operator(f[todo], a[todo]), self._tolerance
                )
                paths[todo] = _DENSE_PATHS[fell_back.astype(np.intp)]
        self._kept = w_plus[-1].copy(), paths[-1]
        return w_plus, paths, formed


class StructuredSolver:
    """Solves of L(Z) = Z F - A conj(Z) for the steps of a run from the
    structured crossover up, one step at a time, with a pinv cutoff
    ``tolerance``.  :meth:`block` takes a block's operators
    (:func:`find_operators`) and their :func:`sylvester_terms`, which the
    members of a batch share.  The solver keeps its base, the operator
    whose Sylvester form it factored and certified last, across block
    edges too; the Sylvester forms of a window of :data:`REUSE_WINDOW`
    coming operators in the base's eigenbases, with their certificates
    (:func:`_reuses`); and, until a step starts a new operator, what
    served the current one.

    A new operator's first solve takes the base's eigenbases when their
    certificate holds for it.  When it does not, or the sweeps reach
    their cap or the answer fails the backward-error check, the
    operator's own Sylvester form is factored and certified at once
    (:func:`_sylvester_factors`), and when certified it becomes the base
    and starts a new window.  The operator keeps what served it: the
    base's eigenbases while they pass, or else its own factors for every
    later G.  When neither is certified, or the answer of its own fails
    the check, its W^+ from :func:`~dznd.linalg.pseudo_inverses` is
    formed and kept.
    """

    def __init__(self, tolerance: float | None = None):
        self._tolerance = tolerance
        self._base: _SylvesterFactors | None = None
        self._factors: _SylvesterFactors | None = None
        self._own = False
        self._dense: tuple[RealMatrix, SolvePath] | None = None

    def block(self, operators: Operators, terms: tuple) -> None:
        """Take a block's operators and their Sylvester ``terms``; its
        steps are then solved in order by :meth:`solve`."""
        self._operators = operators
        self._steps = operators.index.tolist()
        # The first operator is the one held now unless it is new.
        self._operator = -1 if operators.new[0] else 0
        self._p, self._q, self._s = terms
        self._cutoff = singular_value_cutoff(
            self._tolerance, 2 * operators.f.shape[-1] * operators.a.shape[-1]
        )
        self._reuses: _Reuses | None = None
        self._first = 0

    def solve(
        self, step: int, g: np.ndarray
    ) -> tuple[RealVector, SolvePath | None, bool]:
        """``pinv(W_k, tolerance) @ stack(G)`` for step k of the block,
        i.e. stack(D) with D F_k - A_k conj(D) = G; the path that gave it;
        and whether this solve factored L, its own Sylvester form
        eigendecomposed or its W^+ formed (counted once per operator).

        When W_k (see :func:`_finite_operators`) or G is not finite, the
        answer is nan and the path None, without a solve."""
        operator = self._steps[step]
        if operator != self._operator:
            self._operator = operator
            self._factors, self._own, self._dense = None, False, None
        if not (self._operators.finite[operator] and np.isfinite(g).all()):
            return np.full(2 * g.size, math.nan), None, False
        factored = self._own or self._dense is not None
        f, a = self._operators.f[operator], self._operators.a[operator]
        d = self._sylvester_solve(f, a, g)
        if d is not None:
            direction, path = stack(d), SolvePath.STRUCTURED
        else:
            if self._dense is None:
                w_plus, fell_back = pseudo_inverses(
                    real_operator(f, a)[None], self._tolerance
                )
                self._dense = w_plus[0], _DENSE_PATHS[int(fell_back[0])]
            matrix, path = self._dense
            direction = matrix @ stack(g)
        return direction, path, not factored and (
            self._own or self._dense is not None
        )

    def _sylvester_solve(
        self, f: np.ndarray, a: np.ndarray, g: np.ndarray
    ) -> np.ndarray | None:
        """D from the Sylvester form of the current operator, or None for
        the dense path."""
        factors = self._factors
        if not self._own:
            if factors is None:
                factors = self._reused()
            d = None if factors is None else factors.apply(f, a, g)
            if d is not None:
                self._factors = factors
                return d
            self._own = True
            i = self._operator
            factors = self._factors = _sylvester_factors(
                self._p[i], self._q[i], float(self._s[i]), self._cutoff
            )
            if factors is not None:
                self._base, self._reuses = factors, None
        return None if factors is None else factors.apply(f, a, g)

    def _reused(self) -> _SylvesterFactors | None:
        """The factors of the current operator's Sylvester form in the
        base's eigenbases, or None without a base or when their
        certificate fails.  An operator past the window forms the next
        one from it on."""
        if self._base is None:
            return None
        i, reuses = self._operator, self._reuses
        if reuses is None or i >= self._first + len(reuses.certified):
            end = i + REUSE_WINDOW
            reuses = self._reuses = _reuses(
                self._base, self._p[i:end], self._q[i:end], self._s[i:end],
                self._cutoff,
            )
            self._first = i
        k = i - self._first
        if not reuses.certified[k]:
            return None
        return self._base._replace(
            gaps=reuses.gaps[k], s=float(self._s[i]),
            off=(reuses.p_off[k], reuses.q_off[k]),
        )


# The path of a W^+ from pseudo_inverses, indexed by whether it fell back.
_DENSE_PATHS = np.array([SolvePath.INVERSE, SolvePath.PINV], dtype=object)


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

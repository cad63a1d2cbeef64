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

:class:`OperatorFactors` solves L(D) = G in two parts: factor L for the
steps of a block, given their F and A, then apply the factors of one
step's operator to G.  It decides which factors serve each step: steps
whose F and A stay bitwise the same, also across the edge from the
block before, share them and pay only the application.  A one-shot
solve is a block of one step.  From mn =
:data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns up the factors are those
of the Sylvester form of L: applying T(G) = G conj(F) + A conj(G) to
both sides gives K(D) = D (F conj F) - (A conj A) D = T(G) (Bevis, Hall
& Hartwig, SIAM J. Matrix Anal. Appl. 1988), which two
eigendecompositions solve in O(m^3 + n^3) instead of the O((mn)^3) of a
dense solve with W.  A block's members usually move little from one
to the next, so a member first tries the eigenbases of the last member
factored: in them its Sylvester form is nearly diagonal, and a few
Jacobi sweeps solve it in O(m^2 n + m n^2) each, under a certificate of
its own.  Below that size, or when the Sylvester answer
cannot be certified or checked, the factor is W^+ from
:func:`~dznd.linalg.pseudo_inverses`: the certified inverse of W, or
its SVD pseudo-inverse.
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
# (epsilon = 0.01, 128 steps, 20 runs, one BLAS thread, 2-vCPU host
# whose speed drifts by up to 50% between runs), dense against
# structured: 4x4 154/254 us, 4x6 291/334 us, 4x8 453/342 us, 5x7
# 475/358 us, 6x6 559/319 us.
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
    """How :meth:`OperatorFactors.solve` obtained a direction."""

    STRUCTURED = "structured"  # the eigendecomposed Sylvester form
    INVERSE = "inverse"  # the certified inverse of W
    PINV = "pinv"  # the SVD pseudo-inverse of W


class OperatorFactors:
    """The factors of L(Z) = Z F_k - A_k conj(Z) for each step k of a
    block, given the stacks of F_k and A_k, and a pinv cutoff
    ``tolerance``.

    Consecutive steps whose F and A are bitwise the same (their entries
    compared as uint64 bit patterns, so even a changed sign of zero
    differs) share one member, the operator (F_i, A_i); ``members[k]``
    is the member of step k.  The first step is compared with the last
    step of the block that ``follows``, the factors of the block before,
    if any: when it repeats that operator, member 0 takes over that
    member's state, so a run with constant coefficients factors L once
    over all its blocks.  Nothing else of ``follows`` is kept.

    :meth:`solve` applies the factors of member i to any G, and
    :meth:`inverse` gives member i's pseudo-inverse of W itself.
    ``structured`` tells whether solves try the Sylvester form, and
    ``finite[i]`` whether W_i = ``real_operator(F_i, A_i)`` is finite:
    F_i and A_i are, and no entry of W_i where an F term and an A term
    add, F_i[t, t] +- A_i[s, s] part by part, overflows.

    With at least :data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns (read
    when the factors are built), each finite member is factored only
    when a solve needs it.  Its first solve tries the eigenbases of the
    base, the member whose Sylvester form these factors factored and
    certified last (:func:`_reused_factors`); the base starts empty.
    When that fails its certificate, its sweep cap or the backward-error
    check, the member's own Sylvester form is factored and certified
    (:func:`_sylvester_factors`), and when certified it becomes the
    base.  A member keeps what served it: the base's eigenbases while
    they pass, or else its own factors for every later G.  W^+ is formed
    only when a G needs it.  Below that size the W^+ of every finite
    member is formed at construction, by one
    :func:`~dznd.linalg.pseudo_inverses` call for the stack (a member
    taken over is formed again, bitwise the same), and :meth:`inverses`
    gives them for the members of consecutive steps.  A member that is
    not finite raises only when solved.  :meth:`factorizations` counts
    the factorizations made for the block.
    """

    def __init__(
        self,
        f: np.ndarray,
        a: np.ndarray,
        tolerance: float | None = None,
        follows: OperatorFactors | None = None,
    ):
        rows = _bit_rows(f, a)
        # Whether each step's F and A differ from the step's before, the
        # first step's from the last step of follows: every step that
        # does starts a member, which no earlier block has factored.
        self._new = _changes(rows, None if follows is None else follows._last)
        starts = self._new.copy()
        starts[:1] = True
        self.members = np.cumsum(starts) - 1
        self._last = rows[-1].copy() if len(rows) else None
        f, a = f[starts], a[starts]
        self._f, self._a, self._tolerance = f, a, tolerance
        mn = f.shape[-1] * a.shape[-1]
        self._cutoff = singular_value_cutoff(tolerance, 2 * mn)
        self.structured = mn >= STRUCTURED_SOLVE_MIN_UNKNOWNS
        self.finite = _finite_operators(f, a)
        self._base: _SylvesterFactors | None = None
        self._sylvester: dict[int, _SylvesterFactors | None] = {}
        self._own: set[int] = set()
        self._dense: dict[int, tuple[RealMatrix, bool]] = {}
        if self.structured and len(starts) and not self._new[0]:
            last = follows.members[-1]
            if last in follows._sylvester:
                self._sylvester[0] = follows._sylvester[last]
            if last in follows._own:
                self._own.add(0)
            if last in follows._dense:
                self._dense[0] = follows._dense[last]
        # Member 0's factorizations when taken over were made before.
        self._before = len(self._own | self._dense.keys())
        if not self.structured:
            if len(f) and self.finite.all():
                # Every member is finite: the stack serves as it is.
                self._w_plus, fell_back = pseudo_inverses(
                    real_operator(f, a), tolerance
                )
                self._paths = _DENSE_PATHS[fell_back.astype(np.intp)]
                return
            self._w_plus = np.full((len(f), 2 * mn, 2 * mn), math.nan)
            self._paths = np.full(len(f), None, dtype=object)
            finite = np.flatnonzero(self.finite)
            if finite.size:
                w_plus, fell_back = pseudo_inverses(
                    real_operator(f[finite], a[finite]), tolerance
                )
                self._w_plus[finite] = w_plus
                self._paths[finite] = _DENSE_PATHS[fell_back.astype(np.intp)]

    def factorizations(self, taken: int) -> int:
        """The factorizations of L made for the block's first ``taken``
        steps.  Below the crossover, one W^+ for each finite member whose
        first step is among them.  From it up, the members factored on
        their own by the solves so far, their Sylvester form
        eigendecomposed, or their W^+ formed, or both, counting once (a
        run solves only the steps it takes).  A member taken over from
        ``follows`` counts only if it is factored here."""
        if self.structured:
            return len(self._own | self._dense.keys()) - self._before
        firsts = self.members[:taken][self._new[:taken]]
        return int(np.count_nonzero(self.finite[firsts]))

    def solve(self, member: int, g: np.ndarray) -> tuple[RealVector, SolvePath]:
        """``pinv(W_i, tolerance) @ stack(G)`` for member i, i.e.
        stack(D) with D F_i - A_i conj(D) = G, and the path that gave it.

        For finite G on a finite member the Sylvester form is tried first,
        in the base's eigenbases or the member's own (class docstring).
        When neither is certified, or the answer of its own fails the
        backward-error check, the result is that of :meth:`inverse`.
        """
        if self.structured and self.finite[member] and np.isfinite(g).all():
            d = self._sylvester_solve(member, g)
            if d is not None:
                return stack(d), SolvePath.STRUCTURED
        matrix, path = self.inverse(member)
        return matrix @ stack(g), path

    def _sylvester_solve(self, member: int, g: np.ndarray) -> np.ndarray | None:
        """D from the Sylvester form of finite member i, or None for the
        dense path."""
        f, a = self._f[member], self._a[member]
        factors = self._sylvester.get(member)
        if member not in self._own:
            if factors is None and self._base is not None:
                factors = _reused_factors(self._base, f, a, self._cutoff)
            d = None if factors is None else factors.apply(f, a, g)
            if d is not None:
                self._sylvester[member] = factors
                return d
            self._own.add(member)
            factors = self._sylvester[member] = _sylvester_factors(
                f, a, self._cutoff
            )
            if factors is not None:
                self._base = factors
        return None if factors is None else factors.apply(f, a, g)

    def inverse(self, member: int) -> tuple[RealMatrix, SolvePath]:
        """``pinv(W_i, tolerance)`` for member i, and the path it is: the
        certified inverse of W or its SVD pseudo-inverse, from
        :func:`~dznd.linalg.pseudo_inverses`.  A member without it from
        construction forms it now and keeps it; that raises
        :class:`~dznd.errors.NumericError` for a member that is not
        finite."""
        if not self.structured and self.finite[member]:
            return self._w_plus[member], self._paths[member]
        if member not in self._dense:
            w_plus, fell_back = pseudo_inverses(
                real_operator(self._f[member], self._a[member])[None],
                self._tolerance,
            )
            self._dense[member] = w_plus[0], fell_back[0]
        matrix, fell_back = self._dense[member]
        return matrix, SolvePath.PINV if fell_back else SolvePath.INVERSE

    def inverses(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Below the crossover, the stack of ``pinv(W_i, tolerance)`` for
        each member i of ``members``, a non-decreasing integer array that
        lists every member (as a selection of consecutive steps' members
        that keeps each member's first step does), and the object array of
        their paths; a member that is not finite has a nan W^+ and path
        None.  When it lists each member once, it is 0 ... k-1 and the
        stack serves as it is, without a gather."""
        if len(members) == len(self.finite):
            return self._w_plus, self._paths
        return self._w_plus[members], self._paths[members]


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


def _changes(rows: np.ndarray, previous: np.ndarray | None) -> np.ndarray:
    """Whether each row differs from the row before it; the first is
    compared with ``previous``, and differs when there is none."""
    changed = np.empty(len(rows), dtype=bool)
    if len(rows):
        changed[0] = previous is None or bool((rows[0] != previous).any())
        np.any(rows[1:] != rows[:-1], axis=1, out=changed[1:])
    return changed


def _finite_operators(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether W_i = ``real_operator(F_i, A_i)`` is finite for each member
    of stacks of F and A.  :func:`real_operator` adds an A term onto an F
    term only on W's diagonal blocks, at F[t, t] and A[s, s]; the sums
    there are Re F[t, t] +- Re A[s, s] and Im F[t, t] +- Im A[s, s], up to
    sign, so W overflows exactly when some F[t, t] +- A[s, s] does.  No
    sum overflows when every diagonal part of the stack is below half the
    largest float, which one test of the whole stack shows; only
    otherwise are the sums formed member by member."""
    finite = np.isfinite(f).all(axis=(1, 2)) & np.isfinite(a).all(axis=(1, 2))
    fd = np.diagonal(f, axis1=1, axis2=2)
    ad = np.diagonal(a, axis1=1, axis2=2)
    parts = np.concatenate([fd, ad], axis=1).view(np.float64)
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
        residual = float(np.linalg.norm(d @ f - a @ np.conj(d) - g))
        scale = self.s * float(np.linalg.norm(d)) + float(np.linalg.norm(g))
        if not residual <= _EPS * 2 * g.size * scale:
            return None
        return d


def _certified(
    s: float, condition: float, cutoff: float, gap: float, off: float = 0.0
) -> bool:
    """The Sylvester certificate: whether, for ||L|| <= s and the
    Sylvester form in eigenbases U and V with ``condition`` kF(U) kF(V),
    smallest |gap| ``gap`` and off-diagonal norm ``off``
    (||P_off||_F + ||Q_off||_F), delta = off / gap < 1/2 and
    s^2 kF(U) kF(V) cutoff < gap (1 - delta) / 2.

    The Neumann series bounds the inverse of the Sylvester form in the
    eigenbases by 1 / (gap (1 - delta)), so ||L^-1|| <= s kF(U) kF(V) /
    (gap (1 - delta)), and the test bounds kappa_2(W) as the certificate
    of :func:`~dznd.linalg.pseudo_inverses` does: pinv would cut no
    singular value and equals the inverse.  It is written without a
    division, on Python floats: an overflow reads inf and inf * 0 reads
    nan; neither passes, and a zero gap fails."""
    return off < 0.5 * gap and s * s * condition * cutoff < 0.5 * (gap - off)


def _sylvester_factors(
    f: np.ndarray, a: np.ndarray, cutoff: float
) -> _SylvesterFactors | None:
    """The factors of the Sylvester form of L from its own two
    eigendecompositions, or None when they cannot be certified
    (:func:`_certified` with delta = 0)."""
    try:
        lam, v = np.linalg.eig(f @ np.conj(f))
        mu, u = np.linalg.eig(a @ np.conj(a))
        v_inv, u_inv = np.linalg.inv(v), np.linalg.inv(u)
    except np.linalg.LinAlgError:
        return None
    gaps = lam - mu[:, None]
    s = float(np.linalg.norm(f)) + float(np.linalg.norm(a))
    condition = 1.0
    for factor in (u, u_inv, v, v_inv):
        condition *= float(np.linalg.norm(factor))
    if not _certified(s, condition, cutoff, float(np.abs(gaps).min())):
        return None
    return _SylvesterFactors(u, u_inv, v, v_inv, gaps, condition, s)


def _reused_factors(
    base: _SylvesterFactors, f: np.ndarray, a: np.ndarray, cutoff: float
) -> _SylvesterFactors | None:
    """The factors of the Sylvester form of L in the eigenbases of
    ``base``, or None when :func:`_certified` does not hold for them: no
    eigendecomposition, only the transforms V^-1 P V and U^-1 Q U split
    into their diagonals and off-diagonal parts."""
    p = base.v_inv @ (f @ np.conj(f)) @ base.v
    q = base.u_inv @ (a @ np.conj(a)) @ base.u
    lam, mu = np.diagonal(p).copy(), np.diagonal(q).copy()
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(q, 0.0)
    gaps = lam - mu[:, None]
    off = math.sqrt(np.vdot(p, p).real) + math.sqrt(np.vdot(q, q).real)
    s = float(np.linalg.norm(f)) + float(np.linalg.norm(a))
    if not _certified(
        s, base.condition, cutoff, float(np.abs(gaps).min()), off
    ):
        return None
    return base._replace(gaps=gaps, s=s, off=(p, q))


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

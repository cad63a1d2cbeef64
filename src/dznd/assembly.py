"""The stacked real state, the real operator, and the gain.

The solvers advance a real state vector of length 2mn laid out as
``[vec(X_re); vec(X_im)]``.  Because ``vec`` acts part by part, this
coincides exactly with stacking real and imaginary parts of the complex
column vec(X); there is only one state layout, and this module alone
knows it: :func:`stack`/:func:`unstack` convert complex128 arrays, and
:func:`state_from_matrix`/:func:`matrix_from_state` convert split
matrices through them.

Both models solve, at every step, one operator
L(Z) = Z F - A conj(Z) for their update direction.  Over the reals it
is the 2mn x 2mn matrix W with W stack(Z) = stack(L(Z)); with
U = (F^T kron I_m) and V = (I_n kron A),

    W = [[U_re - V_re, -(U_im + V_im)],
         [U_im - V_im,   U_re + V_re ]]

and :func:`real_operator` writes its entries straight into place by
index scatter, without forming either Kronecker product.

:class:`OperatorFactors` solves L(D) = G in two parts: factor L for one
(F, A), then apply the factors to G.  A caller whose F and A stay
bitwise the same keeps the factors and pays only the application;
:func:`solve_operator` is the one-shot use.  From mn =
:data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns up the factors are those
of the Sylvester form of L: applying T(G) = G conj(F) + A conj(G) to
both sides gives K(D) = D (F conj F) - (A conj A) D = T(G) (Bevis, Hall
& Hartwig, SIAM J. Matrix Anal. Appl. 1988), which two
eigendecompositions solve in O(m^3 + n^3) instead of the O((mn)^3) of a
dense solve with W.  Below that size, or when the Sylvester answer
cannot be certified or checked, the factor is the certified inverse of
W (or its SVD pseudo-inverse).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .linalg import (
    RealMatrix,
    RealVector,
    SplitComplexMatrix,
    certified_inverse,
    singular_value_cutoff,
)

# The number of unknowns mn from which the structured solve is tried;
# below it the dense solve with W is faster (see solve_operator).
STRUCTURED_SOLVE_MIN_UNKNOWNS = 32

_EPS = float(np.finfo(np.float64).eps)


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
    """The state vector [vec(Z_re); vec(Z_im)] of a complex matrix."""
    z = z.reshape(-1, order="F")
    return np.concatenate([z.real, z.imag])


def unstack(state: RealVector, m: int, n: int) -> np.ndarray:
    """The complex128 m x n matrix whose state vector is ``state``."""
    state = np.asarray(state, dtype=np.float64)
    mn = m * n
    if state.shape != (2 * mn,):
        raise ShapeError(
            f"state of shape {state.shape} does not match 2mn = {2 * mn}"
        )
    z = np.empty(mn, dtype=np.complex128)
    z.real, z.imag = state[:mn], state[mn:]
    return z.reshape(m, n, order="F")


def state_from_matrix(x: SplitComplexMatrix) -> RealVector:
    """Stack a split matrix into the solver state layout
    [vec(X_re); vec(X_im)]."""
    return stack(x.to_complex())


def matrix_from_state(state: RealVector, m: int, n: int) -> SplitComplexMatrix:
    """Rebuild the m x n split matrix from a stacked state vector."""
    return SplitComplexMatrix.from_complex(unstack(state, m, n))


def real_operator(f: np.ndarray, a: np.ndarray) -> RealMatrix:
    """The 2mn x 2mn real matrix W of Z -> Z F - A conj(Z) (module
    docstring), for complex F n x n and A m x m.

    Row and column (p, t, s) index part p (0 real, 1 imaginary) of
    vec entry t*m + s.  The F terms, F[t', t] at s = s', are set first;
    the A terms, A[s, s'] at t = t', are then added or subtracted where
    they land, so every entry is the same single sum the Kronecker
    formula computes.
    """
    n, m = f.shape[0], a.shape[0]
    w = np.zeros((2, n, m, 2, n, m))
    s_idx, t_idx = np.arange(m), np.arange(n)
    # Advanced indices split by slices index the leading axis: ft[t, t']
    # lands at w[p, t, s, p', t', s] for every s.
    ft_re, ft_im = f.real.T, f.imag.T
    w[0, :, s_idx, 0, :, s_idx] = ft_re
    w[0, :, s_idx, 1, :, s_idx] = -ft_im
    w[1, :, s_idx, 0, :, s_idx] = ft_im
    w[1, :, s_idx, 1, :, s_idx] = ft_re
    # a[s, s'] lands at w[p, t, s, p', t, s'] for every t.
    a_re, a_im = a.real, a.imag
    w[0, t_idx, :, 0, t_idx, :] -= a_re
    w[0, t_idx, :, 1, t_idx, :] -= a_im
    w[1, t_idx, :, 0, t_idx, :] -= a_im
    w[1, t_idx, :, 1, t_idx, :] += a_re
    return w.reshape(2 * m * n, 2 * m * n)


class SolvePath(enum.Enum):
    """How :func:`solve_operator` obtained a direction."""

    STRUCTURED = "structured"  # the eigendecomposed Sylvester form
    INVERSE = "inverse"  # the certified inverse of W
    PINV = "pinv"  # the SVD pseudo-inverse of W


class OperatorFactors:
    """The factors of L(Z) = Z F - A conj(Z) for one (F, A) and pinv
    cutoff ``tolerance``; :meth:`solve` applies them to any G.

    Built once, they serve every G for which F and A stay the same.  With
    at least :data:`STRUCTURED_SOLVE_MIN_UNKNOWNS` unknowns (read when the
    factors are built) and finite F and A, the eigendecomposed Sylvester
    form is factored and certified at once (:func:`_sylvester_factors`).
    The certified inverse of W = ``real_operator(F, A)``, or its SVD
    pseudo-inverse, is formed on the first G that needs it and kept.
    """

    def __init__(
        self, f: np.ndarray, a: np.ndarray, tolerance: float | None = None
    ):
        self._f, self._a, self._tolerance = f, a, tolerance
        self._dense: tuple[RealMatrix, bool] | None = None
        self._sylvester: _SylvesterFactors | None = None
        mn = f.shape[0] * a.shape[0]
        if (
            mn >= STRUCTURED_SOLVE_MIN_UNKNOWNS
            and np.isfinite(f).all()
            and np.isfinite(a).all()
        ):
            cutoff = singular_value_cutoff(tolerance, 2 * mn)
            self._sylvester = _sylvester_factors(f, a, cutoff)

    def solve(self, g: np.ndarray) -> tuple[RealVector, SolvePath]:
        """``pinv(W, tolerance) @ stack(G)``, i.e. stack(D) with
        D F - A conj(D) = G, and the path that gave it.

        The Sylvester factors, when certified, are tried first for finite
        G.  Otherwise, or when their answer fails the backward-error
        check, the result is that of the cached
        :func:`~dznd.linalg.certified_inverse` of W, unchanged; forming it
        raises :class:`~dznd.errors.NumericError` for non-finite F or A.
        """
        if self._sylvester is not None and np.isfinite(g).all():
            d = self._sylvester.apply(self._f, self._a, g)
            if d is not None:
                return stack(d), SolvePath.STRUCTURED
        if self._dense is None:
            self._dense = certified_inverse(
                real_operator(self._f, self._a), self._tolerance
            )
        matrix, fell_back = self._dense
        path = SolvePath.PINV if fell_back else SolvePath.INVERSE
        return matrix @ stack(g), path


def solve_operator(
    f: np.ndarray, a: np.ndarray, g: np.ndarray, tolerance: float | None = None
) -> tuple[RealVector, SolvePath]:
    """``pinv(W, tolerance) @ stack(G)`` for W = ``real_operator(F, A)``,
    and the path that gave it: :class:`OperatorFactors` used once."""
    return OperatorFactors(f, a, tolerance).solve(g)


class _SylvesterFactors(NamedTuple):
    """The certified eigendecompositions of the Sylvester form
    D P - Q D = T(G), P = F conj F, Q = A conj A (module docstring):
    P = V diag(lam) V^-1, Q = U diag(mu) U^-1, ``gaps[i, j]`` =
    lam_j - mu_i, and s = ||F||_F + ||A||_F."""

    u: np.ndarray
    u_inv: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    gaps: np.ndarray
    s: float

    def apply(
        self, f: np.ndarray, a: np.ndarray, g: np.ndarray
    ) -> np.ndarray | None:
        """D = U [(U^-1 T(G) V) / gaps] V^-1 with D F - A conj(D) = G, or
        None when D fails the backward-error check
        ||D F - A conj(D) - G||_F <= eps * 2mn * (s ||D||_F + ||G||_F),
        which does not depend on the cutoff."""
        t = g @ np.conj(f) + a @ np.conj(g)
        d = self.u @ ((self.u_inv @ t @ self.v) / self.gaps) @ self.v_inv
        residual = float(np.linalg.norm(d @ f - a @ np.conj(d) - g))
        scale = self.s * float(np.linalg.norm(d)) + float(np.linalg.norm(g))
        if not residual <= _EPS * 2 * g.size * scale:
            return None
        return d


def _sylvester_factors(
    f: np.ndarray, a: np.ndarray, cutoff: float
) -> _SylvesterFactors | None:
    """The factors of the Sylvester form of L, or None when they cannot
    be certified.

    Since ||L|| <= s and ||L^-1|| <= s kF(U) kF(V) / min|lam_j - mu_i|,
    with kF(U) = ||U||_F ||U^-1||_F, the test
    s^2 kF(U) kF(V) / min|lam_j - mu_i| * cutoff < 1/2 bounds kappa_2(W)
    as :func:`~dznd.linalg.certified_inverse`'s certificate does: pinv
    would cut no singular value and equals the inverse.
    """
    try:
        lam, v = np.linalg.eig(f @ np.conj(f))
        mu, u = np.linalg.eig(a @ np.conj(a))
        v_inv, u_inv = np.linalg.inv(v), np.linalg.inv(u)
    except np.linalg.LinAlgError:
        return None
    gaps = lam - mu[:, None]
    s = float(np.linalg.norm(f)) + float(np.linalg.norm(a))
    # Python floats: an overflow reads inf and inf * 0 reads nan; neither
    # passes the test, and a zero gap fails it before any division.
    bound = s * s * cutoff
    for factor in (u, u_inv, v, v_inv):
        bound *= float(np.linalg.norm(factor))
    if not bound < 0.5 * float(np.abs(gaps).min()):
        return None
    return _SylvesterFactors(u, u_inv, v, v_inv, gaps, s)


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

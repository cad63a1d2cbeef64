"""Real 2mn-dimensional linear systems driving each solver model.

The solvers advance a real state vector of length 2mn laid out as
``[vec(X_re); vec(X_im)]``.  Because ``vec`` acts part by part, this
coincides exactly with stacking real and imaginary parts of the complex
column vec(X); there is only one state layout.

Both models share one real operator, the embedding of
L(Z) = Z F - A conj(Z).  With U = (F^T kron I_m) and V = (I_n kron A),

    W = [[U_re - V_re, -(U_im + V_im)],
         [U_im - V_im,   U_re + V_re ]]

and :func:`real_operator` writes its entries straight into place by
index scatter, without forming either Kronecker product.

Two assemblies are provided for a problem at a sample time tau:

* :func:`assemble_dznd1` linearizes the complex-field zeroing dynamics:
  the relation U vec(Xdot) - V vec(conj(Xdot)) = G becomes W z = b,
  with b the stacked parts of G = vec(Cdot + Adot conj(X) - X Fdot)
  minus gamma times the stacked equation error, where a complex gamma
  multiplies the error in the complex field before the split.

* :func:`assemble_dznd2` embeds the equation itself over the reals:
  W x = b, plus the same operator built from the derivatives
  (w_dot, b_dot).

The models differ only in how they form the right-hand drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .linalg import RealMatrix, RealVector, SplitComplexMatrix, conjugate, vec
from .problems import SylvesterConjugateProblem


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


@dataclass(frozen=True)
class AssembledSystem:
    """The real system defining one model's update direction at time tau.

    ``w`` is 2mn x 2mn and ``b`` has length 2mn.  The derivative blocks
    ``w_dot``/``b_dot`` are populated only by the dznd2 assembly.
    """

    w: RealMatrix
    b: RealVector
    tau: float
    w_dot: Optional[RealMatrix] = None
    b_dot: Optional[RealVector] = None


def state_from_matrix(x: SplitComplexMatrix) -> RealVector:
    """Stack a split matrix into the solver state layout
    [vec(X_re); vec(X_im)]."""
    return np.concatenate(
        [x.re.reshape(-1, order="F"), x.im.reshape(-1, order="F")]
    )


def matrix_from_state(state: RealVector, m: int, n: int) -> SplitComplexMatrix:
    """Rebuild the m x n split matrix from a stacked state vector."""
    state = np.asarray(state, dtype=np.float64)
    mn = m * n
    if state.shape != (2 * mn,):
        raise ShapeError(
            f"state of shape {state.shape} does not match 2mn = {2 * mn}"
        )
    return SplitComplexMatrix(
        state[:mn].reshape(m, n, order="F"),
        state[mn:].reshape(m, n, order="F"),
    )


def _checked_coefficients(problem: SylvesterConjugateProblem, tau: float, provider):
    f, a, c = provider(tau)
    m, n = problem.m, problem.n
    if f.shape != (n, n) or a.shape != (m, m) or c.shape != (m, n):
        raise ShapeError(
            f"provider returned shapes F{f.shape}, A{a.shape}, C{c.shape}; "
            f"expected F({n},{n}), A({m},{m}), C({m},{n})"
        )
    return f, a, c


def _stack_column(col: SplitComplexMatrix) -> RealVector:
    return np.concatenate([col.re.ravel(), col.im.ravel()])


def real_operator(f: SplitComplexMatrix, a: SplitComplexMatrix) -> RealMatrix:
    """The 2mn x 2mn real matrix W of Z -> Z F - A conj(Z) (module
    docstring), for F n x n and A m x m.

    Row and column (p, t, s) index part p (0 real, 1 imaginary) of
    vec entry t*m + s.  The F terms, F[t', t] at s = s', are set first;
    the A terms, A[s, s'] at t = t', are then added or subtracted where
    they land, so every entry is the same single sum the Kronecker
    formula computes.
    """
    n, m = f.rows, a.rows
    w = np.zeros((2, n, m, 2, n, m))
    s_idx, t_idx = np.arange(m), np.arange(n)
    # Advanced indices split by slices index the leading axis: ft[t, t']
    # lands at w[p, t, s, p', t', s] for every s.
    ft_re, ft_im = f.re.T, f.im.T
    w[0, :, s_idx, 0, :, s_idx] = ft_re
    w[0, :, s_idx, 1, :, s_idx] = -ft_im
    w[1, :, s_idx, 0, :, s_idx] = ft_im
    w[1, :, s_idx, 1, :, s_idx] = ft_re
    # a[s, s'] lands at w[p, t, s, p', t, s'] for every t.
    w[0, t_idx, :, 0, t_idx, :] -= a.re
    w[0, t_idx, :, 1, t_idx, :] -= a.im
    w[1, t_idx, :, 0, t_idx, :] -= a.im
    w[1, t_idx, :, 1, t_idx, :] += a.re
    return w.reshape(2 * m * n, 2 * m * n)


def assemble_dznd1(
    problem: SylvesterConjugateProblem,
    state: RealVector,
    gain: ComplexGain,
    tau: float,
) -> AssembledSystem:
    """Assemble (W, b) for the complex-field model at the pre-step state."""
    m, n = problem.m, problem.n
    f, a, c = _checked_coefficients(problem, tau, problem.coefficients)
    fd, ad, cd = _checked_coefficients(problem, tau, problem.derivatives)
    x = matrix_from_state(state, m, n)

    w = real_operator(f, a)
    err = vec(x @ f - a @ conjugate(x) - c)
    drift = vec(cd + ad @ conjugate(x) - x @ fd)
    # gamma multiplies the error in the complex field before the split.
    g_re = drift.re - (gain.re * err.re - gain.im * err.im)
    g_im = drift.im - (gain.re * err.im + gain.im * err.re)
    b = np.concatenate([g_re.ravel(), g_im.ravel()])
    return AssembledSystem(w=w, b=b, tau=tau)


def assemble_dznd2(
    problem: SylvesterConjugateProblem, tau: float
) -> AssembledSystem:
    """Assemble (W, b) and their time derivatives for the real-field model.

    Depends only on tau, never on the solver state.
    """
    m, n = problem.m, problem.n
    f, a, c = _checked_coefficients(problem, tau, problem.coefficients)
    fd, ad, cd = _checked_coefficients(problem, tau, problem.derivatives)
    return AssembledSystem(
        w=real_operator(f, a),
        b=_stack_column(vec(c)),
        tau=tau,
        w_dot=real_operator(fd, ad),
        b_dot=_stack_column(vec(cd)),
    )


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

"""Dense real and split-complex matrix kernel.

A complex matrix is stored as two real float64 matrices, its real part
and its imaginary part.  Every kernel below works on the parts with real
arithmetic only, so a matrix whose imaginary part is all-zero behaves
exactly like a real matrix under every operation.

Conventions, fixed repo-wide:

* real blocks are C-contiguous (row-major) float64 numpy arrays;
* ``vec`` stacks columns (column-major traversal);
* non-finite values propagate through the arithmetic kernels; they are
  never masked, so divergence stays observable to the caller.  The
  exceptions are :func:`pinv` and :func:`pseudo_inverses`, which need
  finite matrices to factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import NumericError, ShapeError

# Plain numpy arrays act as the real matrix/vector types.
RealMatrix = npt.NDArray[np.float64]
RealVector = npt.NDArray[np.float64]


def _as_real_block(value) -> RealMatrix:
    arr = np.array(value, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D real block, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SplitComplexMatrix:
    """Complex matrix held as (real part, imaginary part).

    Both parts are frozen read-only arrays of identical shape, so values
    are safe to share across threads.
    """

    re: RealMatrix
    im: RealMatrix

    def __post_init__(self):
        object.__setattr__(self, "re", _as_real_block(self.re))
        object.__setattr__(self, "im", _as_real_block(self.im))
        if self.re.shape != self.im.shape:
            raise ShapeError(
                f"real part {self.re.shape} and imaginary part "
                f"{self.im.shape} differ in shape"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    @property
    def rows(self) -> int:
        return self.re.shape[0]

    @property
    def cols(self) -> int:
        return self.re.shape[1]

    @classmethod
    def from_real(cls, re) -> "SplitComplexMatrix":
        re = np.asarray(re, dtype=np.float64)
        return cls(re, np.zeros_like(re))

    @classmethod
    def from_complex(cls, z) -> "SplitComplexMatrix":
        z = np.asarray(z, dtype=np.complex128)
        return cls(z.real, z.imag)

    def to_complex(self) -> npt.NDArray[np.complex128]:
        # Part by part: re + 1j * im would turn an infinite imaginary
        # part into a nan real part (0 * inf).
        z = np.empty(self.shape, dtype=np.complex128)
        z.real, z.imag = self.re, self.im
        return z

    def __add__(self, other: "SplitComplexMatrix") -> "SplitComplexMatrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return SplitComplexMatrix(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "SplitComplexMatrix") -> "SplitComplexMatrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return SplitComplexMatrix(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "SplitComplexMatrix":
        return SplitComplexMatrix(-self.re, -self.im)

    def __matmul__(self, other: "SplitComplexMatrix") -> "SplitComplexMatrix":
        """Product (a_re + i a_im)(b_re + i b_im) via four real products."""
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        return SplitComplexMatrix(
            self.re @ other.re - self.im @ other.im,
            self.re @ other.im + self.im @ other.re,
        )


def conjugate(m: SplitComplexMatrix) -> SplitComplexMatrix:
    """Entrywise complex conjugate: real part kept, imaginary part negated."""
    return SplitComplexMatrix(m.re, -m.im)


def conjugate_transpose(m: SplitComplexMatrix) -> SplitComplexMatrix:
    """Hermitian transpose: transpose with negated imaginary part."""
    return SplitComplexMatrix(m.re.T, -m.im.T)


def vec(m: SplitComplexMatrix) -> SplitComplexMatrix:
    """Column-stack a matrix into an (rows*cols) x 1 column.

    Entry (s, t) of the input lands at position t*rows + s, so
    ``vec(x).re == vec(x.re)`` holds part by part.
    """
    return SplitComplexMatrix(
        m.re.reshape(-1, 1, order="F"),
        m.im.reshape(-1, 1, order="F"),
    )


def kron(a: SplitComplexMatrix, b: SplitComplexMatrix) -> SplitComplexMatrix:
    """Kronecker product; Kronecker is bilinear so the parts combine like
    a scalar complex product."""
    return SplitComplexMatrix(
        np.kron(a.re, b.re) - np.kron(a.im, b.im),
        np.kron(a.re, b.im) + np.kron(a.im, b.re),
    )


def frobenius_norm(m: SplitComplexMatrix) -> float:
    """sqrt of the sum of squared real and imaginary entries.

    Non-finite entries yield a non-finite norm; nothing is masked.
    """
    return float(np.sqrt(np.sum(m.re * m.re) + np.sum(m.im * m.im)))


def singular_value_cutoff(tolerance: float | None, size: int) -> float:
    """The relative singular-value cutoff :func:`pinv` applies to a matrix
    whose larger dimension is ``size``: ``tolerance``, or by default
    ``eps * size``."""
    if tolerance is None:
        return float(np.finfo(np.float64).eps) * size
    if tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    return float(tolerance)


def _checked_pinv_input(
    w, tolerance: float | None, ndim: int = 2
) -> tuple[np.ndarray, float]:
    """``w`` as a finite float64 matrix, or stack of matrices when ``ndim``
    is 3, and the relative singular-value cutoff that :func:`pinv`
    applies to each matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != ndim:
        raise ShapeError(f"pinv expects a {ndim}-D array, got ndim={w.ndim}")
    rows, cols = w.shape[-2:]
    tolerance = singular_value_cutoff(tolerance, max(rows, cols))
    if not np.isfinite(w).all():
        raise NumericError(
            f"cannot factor a {rows}x{cols} matrix with "
            f"non-finite entries (nan={int(np.isnan(w).sum())}, "
            f"inf={int(np.isinf(w).sum())})"
        )
    return w, tolerance


def pinv(w: RealMatrix, tolerance: float | None = None) -> RealMatrix:
    """Moore-Penrose pseudo-inverse of a real matrix via SVD.

    Singular values at or below ``tolerance`` times the largest singular
    value are treated as zero.  The default tolerance is
    ``eps * max(rows, cols)``, the usual SVD cutoff.  A product that
    overflows cuts every singular value, without a warning.
    """
    w, tolerance = _checked_pinv_input(w, tolerance)
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD of {w.shape[0]}x{w.shape[1]} matrix failed: {exc}; "
            f"max|entry|={np.abs(w).max():.3e}"
        ) from exc
    # As Python floats: an overflow reads inf, where a numpy product warns.
    cutoff = tolerance * float(s[0]) if s.size else 0.0
    keep = s > cutoff
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    return (vt.T * s_inv) @ u.T


def pseudo_inverses(
    w: np.ndarray, tolerance: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``pinv(w_i, tolerance)`` of each member of a stack of finite
    N x N matrices, and for each whether the SVD pseudo-inverse had to be
    formed to get it.

    The stack is inverted in one call.  Since kappa_2 <= N * kappa_1, the
    certificate N * ||w_i||_1 * ||w_i^-1||_1 * cutoff < 1/2 proves that
    the smallest singular value exceeds the relative cutoff times the
    largest, so :func:`pinv` would cut none and equals the inverse; the
    half leaves room for the rounding in the computed inverse.  A member
    without it (a non-finite condition number or a failed test) takes
    :func:`pinv`.  When the stack's inversion raises for a singular
    member, each member is taken alone.  Non-finite entries raise
    :class:`NumericError`.
    """
    w, cutoff = _checked_pinv_input(w, tolerance, ndim=3)
    if w.shape[1] != w.shape[2]:
        raise ShapeError(f"expected square matrices, got {w.shape[1:]}")
    try:
        w_plus = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        if len(w) == 1:
            return pinv(w[0], tolerance)[None], np.ones(1, dtype=bool)
        members = [pseudo_inverses(member[None], tolerance) for member in w]
        return tuple(np.concatenate(parts) for parts in zip(*members))
    # An overflow reads inf and inf * 0 reads nan; neither passes the
    # test below, so neither needs a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.linalg.norm(w, 1, axis=(1, 2)) * np.linalg.norm(
            w_plus, 1, axis=(1, 2)
        )
        fell_back = ~(w.shape[-1] * kappa * cutoff < 0.5)
    for member in np.flatnonzero(fell_back):
        w_plus[member] = pinv(w[member], tolerance)
    return w_plus, fell_back


import warnings

import numpy as np
import pytest

from dznd import (
    NumericError,
    ShapeError,
    SplitComplexMatrix,
    conjugate,
    conjugate_transpose,
    frobenius_norm,
    kron,
    pinv,
    vec,
)
from dznd.linalg import pseudo_inverses
from helpers import random_split, scalar_matmul_oracle


class TestSplitComplexMatrix:
    def test_parts_must_match_in_shape(self):
        with pytest.raises(ShapeError):
            SplitComplexMatrix(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_parts_are_read_only(self):
        m = SplitComplexMatrix(np.ones((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m.re[0, 0] = 5.0

    def test_constructor_copies_input(self):
        src = np.ones((2, 2))
        m = SplitComplexMatrix(src, src)
        src[0, 0] = 7.0
        assert m.re[0, 0] == 1.0


class TestComplexMatmul:
    def test_identity_leaves_operand_unchanged(self):
        rng = np.random.default_rng(3)
        m = random_split(rng, 2, 3)
        out = SplitComplexMatrix.from_real(np.eye(2)) @ m
        np.testing.assert_array_equal(out.re, m.re)
        np.testing.assert_array_equal(out.im, m.im)

    def test_imaginary_unit_squares_to_minus_one(self):
        i2 = SplitComplexMatrix(np.zeros((2, 2)), np.eye(2))
        out = i2 @ i2
        np.testing.assert_array_equal(out.re, -np.eye(2))
        np.testing.assert_array_equal(out.im, np.zeros((2, 2)))

    def test_matches_scalar_oracle_3x3_by_3x2(self):
        rng = np.random.default_rng(11)
        a = random_split(rng, 3, 3)
        b = random_split(rng, 3, 2)
        expected = scalar_matmul_oracle(a, b)
        got = a @ b
        assert np.abs(got.re + 1j * got.im - expected).max() <= 1e-12

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("inner", [1, 2, 3, 4])
    @pytest.mark.parametrize("cols", [1, 2, 3, 4])
    def test_matches_scalar_oracle_all_shapes(self, rows, inner, cols):
        rng = np.random.default_rng(rows * 100 + inner * 10 + cols)
        a = random_split(rng, rows, inner)
        b = random_split(rng, inner, cols)
        expected = scalar_matmul_oracle(a, b)
        got = a @ b
        assert np.abs(got.re + 1j * got.im - expected).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        a = b = SplitComplexMatrix.from_real(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            a @ b

    def test_zero_imaginary_behaves_like_real_matmul(self):
        rng = np.random.default_rng(5)
        a_re = rng.normal(size=(3, 3))
        b_re = rng.normal(size=(3, 2))
        out = SplitComplexMatrix.from_real(a_re) @ SplitComplexMatrix.from_real(b_re)
        np.testing.assert_array_equal(out.re, a_re @ b_re)
        np.testing.assert_array_equal(out.im, np.zeros((3, 2)))


class TestConjugate:
    def test_real_matrix_is_fixed_point(self):
        m = SplitComplexMatrix.from_real(np.arange(4.0).reshape(2, 2))
        out = conjugate(m)
        np.testing.assert_array_equal(out.re, m.re)
        np.testing.assert_array_equal(out.im, np.zeros((2, 2)))

    def test_negates_imaginary_part(self):
        m = SplitComplexMatrix(np.zeros((2, 2)), np.eye(2))
        np.testing.assert_array_equal(conjugate(m).im, -np.eye(2))

    def test_involution(self):
        rng = np.random.default_rng(9)
        m = random_split(rng, 3, 2)
        twice = conjugate(conjugate(m))
        np.testing.assert_array_equal(twice.re, m.re)
        np.testing.assert_array_equal(twice.im, m.im)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_equality_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = random_split(rng, 3, 3)
        assert frobenius_norm(conjugate(m)) == frobenius_norm(m)


class TestVecUnvec:
    def test_vec_is_column_stacking(self):
        m = SplitComplexMatrix.from_real([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(m).re.ravel(), [1.0, 3.0, 2.0, 4.0])

    def test_vec_of_column_is_itself(self):
        m = SplitComplexMatrix.from_real([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(vec(m).re, m.re)

    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    @pytest.mark.parametrize("cols", [1, 2, 5, 6])
    def test_round_trip(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        m = random_split(rng, rows, cols)
        col = vec(m)
        assert col.shape == (rows * cols, 1)
        # Entry (s, t) lands at t*rows + s in both parts.
        np.testing.assert_array_equal(
            col.re.reshape(rows, cols, order="F"), m.re)
        np.testing.assert_array_equal(
            col.im.reshape(rows, cols, order="F"), m.im)


class TestKron:
    def test_identity_case(self):
        rng = np.random.default_rng(2)
        a = random_split(rng, 2, 3)
        out = kron(SplitComplexMatrix.from_real(np.eye(1)), a)
        np.testing.assert_array_equal(out.re, a.re)
        np.testing.assert_array_equal(out.im, a.im)

    @pytest.mark.parametrize("seed", range(20))
    def test_vec_kron_identity_complex(self, seed):
        rng = np.random.default_rng(seed)
        a = random_split(rng, 2, 2)
        x = random_split(rng, 2, 2)
        b = random_split(rng, 2, 2)
        lhs = vec(a @ x @ b)
        rhs = kron(conjugate(conjugate_transpose(b)), a) @ vec(x)
        assert np.abs(lhs.re - rhs.re).max() <= 1e-12
        assert np.abs(lhs.im - rhs.im).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_vec_kron_identity_real(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = SplitComplexMatrix.from_real(rng.normal(size=(3, 2)))
        x = SplitComplexMatrix.from_real(rng.normal(size=(2, 2)))
        b = SplitComplexMatrix.from_real(rng.normal(size=(2, 3)))
        lhs = vec(a @ x @ b)
        rhs = kron(SplitComplexMatrix.from_real(b.re.T), a) @ vec(x)
        assert np.abs(lhs.re - rhs.re).max() <= 1e-12
        np.testing.assert_array_equal(rhs.im, np.zeros_like(rhs.im))


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(SplitComplexMatrix.from_real(np.zeros((3, 2)))) == 0.0

    def test_three_four_five(self):
        m = SplitComplexMatrix([[3.0]], [[4.0]])
        assert frobenius_norm(m) == 5.0

    @pytest.mark.parametrize("seed", range(8))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a = random_split(rng, 3, 3)
        b = random_split(rng, 3, 3)
        na, nb, nd = frobenius_norm(a), frobenius_norm(b), frobenius_norm(a - b)
        assert na - nb <= nd + 1e-12
        assert nd <= na + nb + 1e-12

    def test_nan_propagates(self):
        m = SplitComplexMatrix([[np.nan]], [[0.0]])
        assert np.isnan(frobenius_norm(m))

    def test_inf_propagates(self):
        m = SplitComplexMatrix([[np.inf]], [[0.0]])
        assert np.isinf(frobenius_norm(m))


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        out = pinv(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-15)

    @staticmethod
    def penrose_deviation(w):
        wp = pinv(w)
        return max(
            np.abs(w @ wp @ w - w).max(),
            np.abs(wp @ w @ wp - wp).max(),
            np.abs(w @ wp - (w @ wp).T).max(),
            np.abs(wp @ w - (wp @ w).T).max(),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_conditions_full_rank_8x8(self, seed):
        rng = np.random.default_rng(seed)
        assert self.penrose_deviation(rng.normal(size=(8, 8))) <= 1e-10

    @pytest.mark.parametrize("size,rank", [(6, 3), (12, 5), (12, 12), (10, 1)])
    def test_penrose_conditions_up_to_12x12(self, size, rank):
        rng = np.random.default_rng(size * 31 + rank)
        w = rng.normal(size=(size, rank)) @ rng.normal(size=(rank, size))
        assert self.penrose_deviation(w) <= 1e-10

    def test_rectangular(self):
        rng = np.random.default_rng(77)
        w = rng.normal(size=(5, 3))
        assert self.penrose_deviation(w) <= 1e-10

    def test_tolerance_truncates_small_singular_values(self):
        w = np.diag([1.0, 1e-8])
        loose = pinv(w, tolerance=1e-6)
        np.testing.assert_allclose(loose, np.diag([1.0, 0.0]), atol=1e-12)
        tight = pinv(w, tolerance=1e-10)
        np.testing.assert_allclose(tight, np.diag([1.0, 1e8]), rtol=1e-10)

    @pytest.mark.parametrize("tolerance", [1e308, np.float64(1e308)])
    def test_overflowing_cutoff_cuts_every_singular_value(self, tolerance):
        # tolerance * 4 overflows to inf, which no singular value exceeds.
        w = np.diag([4.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            np.testing.assert_array_equal(pinv(w, tolerance), np.zeros((2, 2)))
            w_plus, fell_back = pseudo_inverses(w[None], tolerance)
        assert fell_back[0]
        np.testing.assert_array_equal(w_plus[0], np.zeros((2, 2)))

    def test_non_finite_input_raises_numeric_error(self):
        w = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NumericError, match="non-finite"):
            pinv(w)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), tolerance=-1.0)


class TestPseudoInverses:
    @pytest.mark.parametrize("size", [8, 12, 192])
    def test_matches_pinv_on_well_conditioned_matrices(self, size):
        rng = np.random.default_rng(size)
        w = rng.normal(size=(size, size)) + 2.0 * np.sqrt(size) * np.eye(size)
        b = rng.normal(size=size)
        w_plus, fell_back = pseudo_inverses(w[None])
        x, expected = w_plus[0] @ b, pinv(w) @ b
        assert not fell_back[0]
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_singular_matrix_falls_back_to_pinv(self):
        w = np.diag([2.0, 0.0])
        w_plus, fell_back = pseudo_inverses(w[None])
        assert fell_back[0]
        np.testing.assert_array_equal(w_plus[0], pinv(w))

    def test_tolerance_cut_falls_back_to_pinv(self):
        # pinv drops 1e-8 at tolerance 1e-6, so the inverse is not pinv.
        w, b = np.diag([1.0, 1e-8]), np.array([1.0, 1.0])
        w_plus, fell_back = pseudo_inverses(w[None], tolerance=1e-6)
        assert fell_back[0]
        np.testing.assert_array_equal(w_plus[0], pinv(w, tolerance=1e-6))
        # At 1e-10 nothing is cut and the inverse is certified.
        w_plus, fell_back = pseudo_inverses(w[None], tolerance=1e-10)
        assert not fell_back[0]
        np.testing.assert_allclose(w_plus[0] @ b, [1.0, 1e8], rtol=1e-12)

    def test_non_finite_input_raises_numeric_error(self):
        w = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(NumericError, match="non-finite"):
            pseudo_inverses(w[None])

    def test_mixed_stack_falls_back_member_by_member(self):
        # The stack inverts without raising, but at tolerance 1e-6 pinv
        # cuts 1e-8 from diag(1, 1e-8): only that member takes the SVD.
        rng = np.random.default_rng(3)
        w = np.stack([
            rng.normal(size=(2, 2)) + 4.0 * np.eye(2),
            np.diag([1.0, 1e-8]),
            rng.normal(size=(2, 2)) + 4.0 * np.eye(2),
        ])
        inverses = np.linalg.inv(w)  # no member is singular
        w_plus, fell_back = pseudo_inverses(w, 1e-6)
        np.testing.assert_array_equal(fell_back, [False, True, False])
        np.testing.assert_array_equal(w_plus[1], pinv(w[1], 1e-6))
        np.testing.assert_array_equal(w_plus[[0, 2]], inverses[[0, 2]])
        for member in (0, 2):
            np.testing.assert_allclose(
                w_plus[member], pinv(w[member], 1e-6), rtol=1e-12)

    def test_non_finite_member_raises_numeric_error(self):
        w = np.stack([np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericError, match="non-finite"):
                pseudo_inverses(w)

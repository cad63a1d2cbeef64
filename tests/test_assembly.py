import numpy as np
import pytest

from dznd import (
    ComplexGain,
    ShapeError,
    SplitComplexMatrix,
    assemble_dznd1,
    assemble_dznd2,
    characteristic_roots,
    conjugate,
    euler_forward_characteristic,
    example1,
    example2,
    is_zero_stable,
    matrix_from_state,
    state_from_matrix,
    vec,
    zero_stability_roots,
)
from dznd.assembly import real_operator
from dznd.problems import SylvesterConjugateProblem
from helpers import make_trig_problem, random_split


class TestComplexGain:
    @pytest.mark.parametrize(
        "text,re,im",
        [("10", 10.0, 0.0), ("10+20i", 10.0, 20.0), ("10-20i", 10.0, -20.0),
         ("2.5", 2.5, 0.0), ("1e1+2e0i", 10.0, 2.0)],
    )
    def test_parse(self, text, re, im):
        g = ComplexGain.parse(text)
        assert (g.re, g.im) == (re, im)

    def test_parse_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            ComplexGain.parse("two")

    def test_real_part_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ComplexGain(0.0, 5.0)
        with pytest.raises(ValueError):
            ComplexGain(-1.0)

    def test_is_real(self):
        assert ComplexGain(10.0).is_real
        assert not ComplexGain(10.0, 20.0).is_real

    @pytest.mark.parametrize("re,im", [
        (np.inf, 0.0), (10.0, np.inf), (10.0, -np.inf), (10.0, np.nan),
    ])
    def test_non_finite_parts_rejected(self, re, im):
        with pytest.raises(ValueError, match="finite"):
            ComplexGain(re, im)

    @pytest.mark.parametrize("text", ["1e400", "10+1e400i", "inf", "nan"])
    def test_parse_rejects_non_finite(self, text):
        with pytest.raises(ValueError):
            ComplexGain.parse(text)

    def test_str_round_trips(self):
        for g in (ComplexGain(10.0), ComplexGain(10.0, 20.0), ComplexGain(3.0, -4.0)):
            again = ComplexGain.parse(str(g))
            assert (again.re, again.im) == (g.re, g.im)


class TestStateLayout:
    def test_layout_coincides_with_stacked_vec_parts(self):
        rng = np.random.default_rng(0)
        x = random_split(rng, 3, 2)
        stacked = state_from_matrix(x)
        z = vec(x)
        np.testing.assert_array_equal(stacked[:6], z.re.ravel())
        np.testing.assert_array_equal(stacked[6:], z.im.ravel())

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = random_split(rng, 3, 2)
        back = matrix_from_state(state_from_matrix(x), 3, 2)
        np.testing.assert_array_equal(back.re, x.re)
        np.testing.assert_array_equal(back.im, x.im)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            matrix_from_state(np.zeros(10), 3, 2)


def _complex_gamma_times(gain, e):
    return complex(gain.re, gain.im) * e


class TestAssembleDznd1:
    def test_dimensions_on_example1(self):
        p = example1()
        state = state_from_matrix(p.theoretical_solution(0.0))
        system = assemble_dznd1(p, state, ComplexGain(10.0), 0.0)
        assert system.w.shape == (12, 12)
        assert system.b.shape == (12,)
        assert system.w_dot is None and system.b_dot is None

    def test_rhs_vanishes_at_fixed_point_of_constant_problem(self):
        p = example1()
        state = state_from_matrix(p.theoretical_solution(0.0))
        system = assemble_dznd1(p, state, ComplexGain(10.0), 0.0)
        assert np.abs(system.b).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [ComplexGain(10.0), ComplexGain(10.0, 20.0)])
    @pytest.mark.parametrize("factory,seed", [
        (example2, 0),
        (lambda: make_trig_problem(2, 3, 7), 1),
        (lambda: make_trig_problem(3, 3, 8), 2),
        (lambda: make_trig_problem(1, 2, 9), 3),
    ])
    def test_matches_direct_complex_dynamics(self, gamma, factory, seed):
        # For any candidate derivative V: W*stack(V) - b must equal the
        # stacked parts of  V F - A conj(V) - (Cdot + Adot conj(X) - X Fdot)
        #                   + gamma (X F - A conj(X) - C)
        # evaluated with plain complex arithmetic.
        problem = factory()
        tau = 0.5
        rng = np.random.default_rng(seed)
        x = random_split(rng, problem.m, problem.n, scale=2.0)
        xdot = random_split(rng, problem.m, problem.n, scale=2.0)
        system = assemble_dznd1(problem, state_from_matrix(x), gamma, tau)
        lhs = system.w @ state_from_matrix(xdot) - system.b

        f, a, c = (m.to_complex() for m in problem.coefficients(tau))
        fd, ad, cd = (m.to_complex() for m in problem.derivatives(tau))
        xc, vc = x.to_complex(), xdot.to_complex()
        direct = (
            vc @ f
            - a @ np.conj(vc)
            - (cd + ad @ np.conj(xc) - xc @ fd)
            + _complex_gamma_times(gamma, xc @ f - a @ np.conj(xc) - c)
        ).flatten(order="F")
        stacked = np.concatenate([direct.real, direct.imag])
        assert np.abs(lhs - stacked).max() <= 1e-10

    def test_real_gain_matches_scalar_reference_exactly(self):
        problem = example2()
        rng = np.random.default_rng(4)
        x = random_split(rng, 2, 2)
        tau = 1.25
        system = assemble_dznd1(problem, state_from_matrix(x), ComplexGain(10.0), tau)

        f, a, c = problem.coefficients(tau)
        fd, ad, cd = problem.derivatives(tau)
        err = vec(x @ f - a @ conjugate(x) - c)
        drift = vec(cd + ad @ conjugate(x) - x @ fd)
        reference = np.concatenate(
            [(drift.re - 10.0 * err.re).ravel(), (drift.im - 10.0 * err.im).ravel()]
        )
        np.testing.assert_array_equal(system.b, reference)

    def test_provider_shape_mismatch(self):
        p = example2()
        broken = SylvesterConjugateProblem(
            m=3, n=3, coefficients=p.coefficients, derivatives=p.derivatives
        )
        with pytest.raises(ShapeError, match="expected"):
            assemble_dznd1(broken, np.zeros(18), ComplexGain(10.0), 0.0)


class TestAssembleDznd2:
    @pytest.mark.parametrize("tau", [0.0, 3.0, 10.0])
    def test_exact_solution_solves_the_real_system(self, tau):
        p = example2()
        system = assemble_dznd2(p, tau)
        x = state_from_matrix(p.theoretical_solution(tau))
        assert np.abs(system.w @ x - system.b).max() <= 1e-10

    def test_constant_problem_has_zero_derivative_blocks(self):
        system = assemble_dznd2(example1(), 2.0)
        np.testing.assert_array_equal(system.w_dot, np.zeros((12, 12)))
        np.testing.assert_array_equal(system.b_dot, np.zeros(12))

    def test_derivative_blocks_match_finite_differences(self):
        p = example2()
        tau, h = 1.0, 1e-6
        system = assemble_dznd2(p, tau)
        lo = assemble_dznd2(p, tau - h)
        hi = assemble_dznd2(p, tau + h)
        assert np.abs((hi.w - lo.w) / (2 * h) - system.w_dot).max() <= 1e-5
        assert np.abs((hi.b - lo.b) / (2 * h) - system.b_dot).max() <= 1e-5

    @pytest.mark.parametrize("factory,seed", [
        (example2, 0),
        (lambda: make_trig_problem(2, 3, 17), 1),
        (lambda: make_trig_problem(3, 3, 18), 2),
        (lambda: make_trig_problem(3, 1, 19), 3),
    ])
    def test_residual_matches_direct_complex_arithmetic(self, factory, seed):
        problem = factory()
        tau = 0.75
        rng = np.random.default_rng(seed)
        x = random_split(rng, problem.m, problem.n, scale=3.0)
        system = assemble_dznd2(problem, tau)
        lhs = system.w @ state_from_matrix(x) - system.b

        f, a, c = (m.to_complex() for m in problem.coefficients(tau))
        direct = (x.to_complex() @ f - a @ np.conj(x.to_complex()) - c).flatten(
            order="F"
        )
        stacked = np.concatenate([direct.real, direct.imag])
        assert np.abs(lhs - stacked).max() <= 1e-10

    def test_depends_only_on_tau(self):
        p = example2()
        first = assemble_dznd2(p, 1.5)
        second = assemble_dznd2(p, 1.5)
        np.testing.assert_array_equal(first.w, second.w)
        np.testing.assert_array_equal(first.b, second.b)
        np.testing.assert_array_equal(first.w_dot, second.w_dot)

    def test_same_w_as_dznd1_assembly(self):
        # Both embeddings realize the same real operator.
        p = example2()
        state = np.zeros(8)
        w1 = assemble_dznd1(p, state, ComplexGain(10.0), 2.0).w
        w2 = assemble_dznd2(p, 2.0).w
        np.testing.assert_allclose(w1, w2, atol=1e-14)


def _kron_operator(f, a):
    """The real operator W written with Kronecker products."""
    eye_m, eye_n = np.eye(a.rows), np.eye(f.rows)
    k11 = np.kron(f.re.T, eye_m) - np.kron(eye_n, a.re)
    k12 = -(np.kron(f.im.T, eye_m) + np.kron(eye_n, a.im))
    k21 = np.kron(f.im.T, eye_m) - np.kron(eye_n, a.im)
    k22 = np.kron(f.re.T, eye_m) + np.kron(eye_n, a.re)
    return np.block([[k11, k12], [k21, k22]])


class TestRealOperator:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2), (4, 4)])
    def test_equals_kronecker_formula(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        f, a = random_split(rng, n, n), random_split(rng, m, m)
        np.testing.assert_array_equal(real_operator(f, a), _kron_operator(f, a))


class TestZeroStability:
    def test_scheme_roots_are_single_unit_root(self):
        roots = zero_stability_roots()
        assert roots.shape == (1,)
        assert abs(roots[0] - 1.0) <= 1e-12
        assert is_zero_stable(roots)

    def test_euler_forward_coefficients(self):
        np.testing.assert_array_equal(euler_forward_characteristic(), [-1.0, 1.0])

    def test_double_unit_root_is_rejected(self):
        roots = characteristic_roots([1.0, -2.0, 1.0])  # (delta-1)^2
        assert not is_zero_stable(roots)

    def test_root_inside_circle_is_accepted(self):
        roots = characteristic_roots([-0.5, 1.0])  # delta - 0.5
        assert is_zero_stable(roots)

    def test_root_outside_circle_is_rejected(self):
        assert not is_zero_stable([1.5])

    def test_distinct_unit_roots_are_accepted(self):
        # e.g. leapfrog's delta^2 - 1 with simple roots +1 and -1
        roots = characteristic_roots([-1.0, 0.0, 1.0])
        assert is_zero_stable(roots)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            characteristic_roots([1.0])

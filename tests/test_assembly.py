import math
import warnings

import numpy as np
import pytest

from dznd import (
    ComplexGain,
    Model,
    NumericError,
    Outcome,
    ShapeError,
    SolverConfig,
    SplitComplexMatrix,
    characteristic_roots,
    euler_forward_characteristic,
    example1,
    example2,
    is_zero_stable,
    random_initial_state,
    run,
    state_from_matrix,
    vec,
    zero_stability_roots,
)
from dznd.assembly import (
    OperatorFactors,
    SolvePath,
    real_operator,
    stack,
    unstack,
)
from dznd.linalg import pseudo_inverses
from dznd.problems import InitialState, SylvesterConjugateProblem
from helpers import (
    make_shifted_trig_problem,
    make_trig_problem,
    one_step,
    random_split,
)


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

    def test_parse_returns_a_gain_or_raises_value_error_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(st.text())
        def check(text):
            try:
                gain = ComplexGain.parse(text)
            except ValueError:
                return
            assert math.isfinite(gain.re) and gain.re > 0
            assert math.isfinite(gain.im)

        check()

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
        back = SplitComplexMatrix.from_complex(
            unstack(state_from_matrix(x), 3, 2))
        np.testing.assert_array_equal(back.re, x.re)
        np.testing.assert_array_equal(back.im, x.im)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            unstack(np.zeros(10), 3, 2)

    def test_complex_pair_matches_split_pair(self):
        rng = np.random.default_rng(2)
        x = random_split(rng, 3, 2)
        np.testing.assert_array_equal(stack(x.to_complex()), state_from_matrix(x))
        np.testing.assert_array_equal(
            unstack(state_from_matrix(x), 3, 2), x.to_complex()
        )

    def test_non_finite_parts_stay_in_place(self):
        x = SplitComplexMatrix([[np.inf, 1.0]], [[2.0, -np.inf]])
        state = state_from_matrix(x)
        np.testing.assert_array_equal(state, [np.inf, 1.0, 2.0, -np.inf])
        back = SplitComplexMatrix.from_complex(unstack(state, 1, 2))
        np.testing.assert_array_equal(back.re, x.re)
        np.testing.assert_array_equal(back.im, x.im)


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
        np.testing.assert_array_equal(
            real_operator(f.to_complex(), a.to_complex()), _kron_operator(f, a)
        )

    def test_stack_equals_its_members(self):
        rng = np.random.default_rng(3)
        fs = np.stack([random_split(rng, 3, 3).to_complex() for _ in range(4)])
        as_ = np.stack([random_split(rng, 2, 2).to_complex() for _ in range(4)])
        stacked = real_operator(fs, as_)
        assert stacked.shape == (4, 12, 12)
        for w, f, a in zip(stacked, fs, as_, strict=True):
            np.testing.assert_array_equal(w, real_operator(f, a))

    @pytest.mark.parametrize("tau", [0.0, 3.0, 10.0])
    def test_exact_solution_solves_the_real_system(self, tau):
        p = example2()
        f, a, c = (m.to_complex() for m in p.coefficients(tau))
        x_star = p.theoretical_solution(tau).to_complex()
        assert np.abs(real_operator(f, a) @ stack(x_star) - stack(c)).max() <= 1e-10


def _shifted_coefficients(m, n, seed=4):
    f, a, _ = make_shifted_trig_problem(m, n, seed).coefficients(0.5)
    g = random_split(np.random.default_rng(seed), m, n).to_complex()
    return f.to_complex(), a.to_complex(), g


def _jordan_block_case():
    # A conj A = A^2 is one defective Jordan block; W stays well conditioned.
    f, _, g = _shifted_coefficients(6, 6)
    return f, 0.5 * np.eye(6) + np.eye(6, k=1), g


class TestSolveOperator:
    """The structured solve against the dense solve with W, and the cases
    in which it must leave the answer to the dense path."""

    @pytest.mark.parametrize("m,n", [(6, 6), (12, 8), (16, 16)])
    def test_structured_solve_matches_dense_solve(self, m, n):
        f, a, g = _shifted_coefficients(m, n)
        w = _kron_operator(SplitComplexMatrix.from_complex(f),
                           SplitComplexMatrix.from_complex(a))
        expected = np.linalg.solve(w, stack(g))
        got, path = OperatorFactors(f[None], a[None]).solve(0, g)
        assert path is SolvePath.STRUCTURED
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("case,tolerance,path", [
        # F conj F = A conj A = I: every gap is 0, and W is singular.
        (lambda: (np.eye(6, dtype=complex), np.eye(6, dtype=complex),
                  _shifted_coefficients(6, 6)[2]), None, SolvePath.PINV),
        (_jordan_block_case, None, SolvePath.INVERSE),
        # A cutoff this large fails both certificates: pinv cuts.
        (lambda: _shifted_coefficients(6, 6), 0.1, SolvePath.PINV),
    ], ids=["colliding-spectra", "jordan-block", "large-cutoff"])
    def test_uncertified_cases_take_the_dense_path(self, case, tolerance, path):
        f, a, g = case()
        w_plus, _ = pseudo_inverses(real_operator(f, a)[None], tolerance)
        expected = w_plus[0] @ stack(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = OperatorFactors(f[None], a[None], tolerance).solve(0, g)
        assert got[1] is path
        np.testing.assert_array_equal(got[0], expected)

    @pytest.mark.parametrize("m,n", [(6, 6), (12, 8), (16, 16)])
    def test_next_member_solves_in_the_base_eigenbases(self, m, n):
        # Member 0 is factored and becomes the base; member 1, one step of
        # 0.01 on, is solved in its eigenbases without a factorization.
        problem = make_shifted_trig_problem(m, n, 4)
        fs, as_ = (np.stack(z) for z in zip(*(
            [c.to_complex() for c in problem.coefficients(tau)[:2]]
            for tau in (0.5, 0.51))))
        g = random_split(np.random.default_rng(4), m, n).to_complex()
        factors = OperatorFactors(fs, as_)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for member in (0, 1):
                got, path = factors.solve(member, g)
                want, want_path = OperatorFactors(
                    fs[member][None], as_[member][None]).solve(0, g)
                assert path is want_path is SolvePath.STRUCTURED
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(
                    want)
        assert factors.factorizations == 1

    @pytest.mark.parametrize("case,path", [
        (lambda: (np.eye(6, dtype=complex), np.eye(6, dtype=complex)),
         SolvePath.PINV),
        (lambda: _jordan_block_case()[:2], SolvePath.INVERSE),
    ], ids=["colliding-spectra", "jordan-block"])
    def test_uncertified_member_after_a_good_base(self, case, path):
        # The base's eigenbases do not serve member 1, nor do its own: it
        # takes the dense path exactly as a one-shot solve does.
        good_f, good_a, g = _shifted_coefficients(6, 6)
        f, a = case()
        factors = OperatorFactors(np.stack([good_f, f]), np.stack([good_a, a]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert factors.solve(0, g)[1] is SolvePath.STRUCTURED
            got, got_path = factors.solve(1, g)
        w_plus, _ = pseudo_inverses(real_operator(f, a)[None])
        assert got_path is path
        np.testing.assert_array_equal(got, w_plus[0] @ stack(g))
        assert factors.factorizations == 2

    def test_non_finite_f_raises_numeric_error(self):
        f, a, g = _shifted_coefficients(6, 6)
        f[2, 3] = np.nan
        with pytest.raises(NumericError):
            OperatorFactors(f[None], a[None]).solve(0, g)

    @pytest.mark.parametrize("m,n,structured", [
        (6, 6, SolvePath.STRUCTURED), (2, 3, SolvePath.INVERSE),
    ])
    def test_kept_factors_solve_as_one_shot_solves(self, m, n, structured):
        # A non-finite G skips the structured solve on kept factors too.
        f, a, g = _shifted_coefficients(m, n)
        bad = g.copy()
        bad[0, 1] = np.inf
        other = np.random.default_rng(1).normal(size=(m, n)) + 0j
        factors = OperatorFactors(f[None], a[None])
        paths = []
        for rhs in (g, other, bad, g):
            got, path = factors.solve(0, rhs)
            want, want_path = OperatorFactors(f[None], a[None]).solve(0, rhs)
            np.testing.assert_array_equal(got, want)
            assert path is want_path
            paths.append(path)
        assert paths == [structured, structured, SolvePath.INVERSE, structured]

    @pytest.mark.parametrize("singular", [False, True])
    def test_stack_members_solve_as_one_shot_solves(self, singular):
        # A singular member makes the stack's inversion raise; every member
        # then takes its own certified inverse.  A non-finite member raises
        # only when it is solved.
        rng = np.random.default_rng(5)
        fs = [random_split(rng, 3, 3).to_complex() for _ in range(4)]
        as_ = [random_split(rng, 2, 2).to_complex() for _ in range(4)]
        fs[2] = fs[2].copy()
        fs[2][1, 1] = np.inf
        if singular:
            fs[1], as_[1] = np.zeros((3, 3), complex), np.zeros((2, 2), complex)
        g = random_split(rng, 2, 3).to_complex()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            factors = OperatorFactors(np.stack(fs), np.stack(as_))
        for member in (3, 0, 1):
            got, path = factors.solve(member, g)
            want, want_path = OperatorFactors(
                fs[member][None], as_[member][None]).solve(0, g)
            np.testing.assert_array_equal(got, want)
            assert path is want_path
            assert path is (SolvePath.PINV if singular and member == 1
                            else SolvePath.INVERSE)
        with pytest.raises(NumericError):
            factors.solve(2, g)


class TestFiniteOperators:
    """OperatorFactors.finite against the finiteness of W itself, on the
    whole-stack shortcut and on the member-by-member sums."""

    @pytest.mark.parametrize("f_diagonal,a_diagonals,expected", [
        (3.0, [1.0, -1.0], [True, True]),
        (1e308, [5e307, -5e307], [True, True]),
        (1e308, [1.0, -1e308, 1e308], [True, False, False]),
        (1e308j, [-1e308j, 1.0], [False, True]),
    ], ids=["small", "large-finite", "real-overflow", "imaginary-overflow"])
    def test_matches_the_real_operator(self, f_diagonal, a_diagonals,
                                       expected):
        f = np.broadcast_to(f_diagonal * np.eye(6) + 0.5, (
            len(a_diagonals), 6, 6)).astype(complex)
        a = np.stack([d * np.eye(6) + 0.5j for d in a_diagonals])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            finite = OperatorFactors(f, a).finite
        with np.errstate(over="ignore"):
            w = real_operator(f, a)
        np.testing.assert_array_equal(finite, np.isfinite(w).all(axis=(1, 2)))
        np.testing.assert_array_equal(finite, expected)


_STEP_CASES = [
    (example2, 0),
    (lambda: make_trig_problem(2, 3, 7), 1),
    (lambda: make_trig_problem(3, 3, 8), 2),
    (lambda: make_trig_problem(1, 2, 9), 3),
]


class TestStepOracle:
    """One step of each model, taken by run(), against
    x + epsilon * solve(W, g) with W from the Kronecker formula and g
    from the model's own defining formula."""

    tau, epsilon = 0.5, 0.01

    def _step(self, problem, model, gamma, state):
        config = SolverConfig(model=model, gamma=gamma, epsilon=self.epsilon)
        return one_step(problem, state, config, self.tau).states[1]

    @pytest.mark.parametrize("gamma", [ComplexGain(10.0), ComplexGain(10.0, 20.0)])
    @pytest.mark.parametrize("factory,seed", _STEP_CASES)
    def test_dznd1_complex_field_drive(self, gamma, factory, seed):
        # g stacks Cdot + Adot conj(X) - X Fdot - gamma (X F - A conj(X) - C),
        # with gamma multiplying the error in the complex field.
        problem = factory()
        rng = np.random.default_rng(seed)
        x = random_split(rng, problem.m, problem.n, scale=2.0)
        f, a, c = problem.coefficients(self.tau)
        fd, ad, cd = (m.to_complex() for m in problem.derivatives(self.tau))
        xc = x.to_complex()
        g = (
            cd + ad @ np.conj(xc) - xc @ fd
            - complex(gamma.re, gamma.im)
            * (xc @ f.to_complex() - a.to_complex() @ np.conj(xc) - c.to_complex())
        ).flatten(order="F")
        direction = np.linalg.solve(
            _kron_operator(f, a), np.concatenate([g.real, g.imag])
        )
        expected = state_from_matrix(x) + self.epsilon * direction
        got = self._step(problem, Model.DZND1_2I, gamma, state_from_matrix(x))
        assert np.abs(got - expected).max() <= 1e-10

    @pytest.mark.parametrize("factory,seed", _STEP_CASES)
    def test_dznd2_real_field_drive(self, factory, seed):
        # g = b_dot - W_dot x - gamma (W x - b), the equation embedded over
        # the reals (W x = b) and differentiated in time.
        problem = factory()
        gamma = ComplexGain(10.0)
        rng = np.random.default_rng(seed)
        x = random_split(rng, problem.m, problem.n, scale=2.0)
        f, a, c = problem.coefficients(self.tau)
        fd, ad, cd = problem.derivatives(self.tau)
        w, w_dot = _kron_operator(f, a), _kron_operator(fd, ad)
        b, b_dot = state_from_matrix(c), state_from_matrix(cd)
        state = state_from_matrix(x)
        g = b_dot - w_dot @ state - gamma.re * (w @ state - b)
        expected = state + self.epsilon * np.linalg.solve(w, g)
        got = self._step(problem, Model.DZND2_2I, gamma, state)
        assert np.abs(got - expected).max() <= 1e-10


def _vec_state(z):
    """[vec(Z_re); vec(Z_im)], written out without the package."""
    v = z.flatten(order="F")
    return np.concatenate([v.real, v.imag])


class TestRunOracle:
    """run() against a plain loop x <- x + epsilon * solve(W, g), with W
    from the Kronecker formula and g from the drive's defining formula,
    over three full blocks of records and part of a fourth."""

    @pytest.mark.parametrize("factory,gamma", [
        (example2, ComplexGain(10.0)),
        (example2, ComplexGain(10.0, 20.0)),
        (example1, ComplexGain(10.0)),
    ], ids=["example2-10", "example2-10+20i", "example1-10"])
    def test_every_record_matches_a_plain_solve_loop(self, factory, gamma):
        problem = factory()
        m, n = problem.m, problem.n
        config = SolverConfig(model=Model.DZND1_2I, gamma=gamma,
                              epsilon=0.01, duration=2.0)
        initial = random_initial_state(problem, 11)
        trajectory = run(problem, config, initial)
        assert trajectory.outcome is Outcome.COMPLETED
        assert len(trajectory) == config.step_count + 1 == 201

        g_c = complex(gamma.re, gamma.im)
        state = _vec_state(initial.x0.to_complex())
        for k, got in enumerate(trajectory.states):
            assert np.linalg.norm(got - state) <= 1e-12 * np.linalg.norm(state)
            tau = k * config.epsilon
            x = (state[:m * n] + 1j * state[m * n:]).reshape(m, n, order="F")
            f, a, c = problem.coefficients(tau)
            fd, ad, cd = (z.to_complex() for z in problem.derivatives(tau))
            e = x @ f.to_complex() - a.to_complex() @ np.conj(x) - c.to_complex()
            g = cd + ad @ np.conj(x) - x @ fd - g_c * e
            state = state + config.epsilon * np.linalg.solve(
                _kron_operator(f, a), _vec_state(g))


def test_provider_shape_mismatch_raises_through_run():
    p = example2()
    broken = SylvesterConjugateProblem(
        m=3, n=3, coefficients=p.coefficients, derivatives=p.derivatives
    )
    initial = InitialState(x0=random_split(np.random.default_rng(0), 3, 3), seed=0)
    config = SolverConfig(model=Model.DZND1_2I, gamma=ComplexGain(10.0), epsilon=0.1)
    with pytest.raises(ShapeError, match="expected"):
        run(broken, config, initial)


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

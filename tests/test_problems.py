import dataclasses

import numpy as np
import pytest

from dznd import (
    BlockProvider,
    CapabilityError,
    ComplexGain,
    Model,
    ShapeError,
    SplitComplexMatrix,
    equation_residual,
    example1,
    example2,
    frobenius_norm,
    get_problem,
    random_initial_state,
    run,
    solution_error,
)
from dznd.solvers import SolverConfig
from dznd.problems import PROBLEMS, SylvesterConjugateProblem


class TestExample1:
    def test_dimensions(self):
        p = example1()
        assert (p.m, p.n) == (3, 2)

    def test_coefficient_values(self):
        f, a, c = example1().coefficients(0.0)
        np.testing.assert_array_equal(f.re[1], [1.0, -1.0])
        np.testing.assert_array_equal(f.im, [[2, 1], [0, 1]])
        np.testing.assert_array_equal(a.re[0], [1.0, -2.0, -1.0])
        np.testing.assert_array_equal(c.im[2], [-1.0, -2.0])

    @pytest.mark.parametrize("tau", [0.0, 7.3, 42.0])
    def test_derivatives_are_zero(self, tau):
        for d in example1().derivatives(tau):
            assert frobenius_norm(d) == 0.0

    @pytest.mark.parametrize("tau", [0.0, 7.3])
    def test_exact_solution_residual(self, tau):
        p = example1()
        assert equation_residual(p, p.theoretical_solution(tau), tau) <= 1e-12

    def test_zero_candidate_residual_is_norm_of_c(self):
        p = example1()
        zero = SplitComplexMatrix(np.zeros((3, 2)), np.zeros((3, 2)))
        _, _, c = p.coefficients(0.0)
        assert equation_residual(p, zero, 0.0) == pytest.approx(
            frobenius_norm(c), rel=1e-14
        )


class TestExample2:
    def test_solution_at_zero(self):
        x = example2().theoretical_solution(0.0)
        np.testing.assert_allclose(x.re, [[0, 1], [-1, 0]], atol=1e-15)
        np.testing.assert_allclose(x.im, [[0, 1], [-1, 0]], atol=1e-15)

    def test_c_entry_at_zero(self):
        _, _, c = example2().coefficients(0.0)
        assert c.re[1, 0] == pytest.approx(-4.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [float(t) for t in range(11)])
    def test_exact_solution_residual(self, tau):
        p = example2()
        assert equation_residual(p, p.theoretical_solution(tau), tau) <= 1e-10

    @pytest.mark.parametrize("tau", [0.5, 2.0, 9.0])
    def test_analytic_derivatives_match_finite_differences(self, tau):
        p = example2()
        h = 1e-6
        lo = p.coefficients(tau - h)
        hi = p.coefficients(tau + h)
        for numerical_lo, numerical_hi, analytic in zip(lo, hi, p.derivatives(tau)):
            fd_re = (numerical_hi.re - numerical_lo.re) / (2 * h)
            fd_im = (numerical_hi.im - numerical_lo.im) / (2 * h)
            assert np.abs(fd_re - analytic.re).max() <= 1e-5
            assert np.abs(fd_im - analytic.im).max() <= 1e-5


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_exact_solutions_on_dense_grid(name):
    problem = get_problem(name)
    for tau in np.linspace(0.0, 10.0, 101):
        x = problem.theoretical_solution(tau)
        assert equation_residual(problem, x, tau) <= 1e-10


class TestSolutionError:
    def test_zero_at_exact_solution(self):
        p = example2()
        assert solution_error(p, p.theoretical_solution(1.0), 1.0) == 0.0

    def test_single_entry_perturbation(self):
        p = example1()
        x = p.theoretical_solution(0.0)
        bumped = SplitComplexMatrix(
            x.re + np.array([[1e-3, 0], [0, 0], [0, 0]]), x.im
        )
        assert solution_error(p, bumped, 0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_missing_solution_raises_capability_error(self):
        p = example1()
        anonymous = SylvesterConjugateProblem(
            m=p.m, n=p.n, coefficients=p.coefficients, derivatives=p.derivatives
        )
        with pytest.raises(CapabilityError):
            solution_error(anonymous, p.theoretical_solution(0.0), 0.0)

    def test_shape_mismatch(self):
        p = example1()
        with pytest.raises(ShapeError):
            equation_residual(
                p, SplitComplexMatrix(np.zeros((2, 2)), np.zeros((2, 2))), 0.0
            )


class TestProblemSizes:
    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (0, 0), (-1, 2)])
    def test_sizes_below_one_are_rejected(self, m, n):
        p = example2()
        with pytest.raises(ShapeError, match="integer >= 1"):
            SylvesterConjugateProblem(m=m, n=n, coefficients=p.coefficients,
                                      derivatives=p.derivatives)

    def test_numpy_integers_pass_and_floats_are_rejected(self):
        p = example2()
        sized = SylvesterConjugateProblem(
            m=np.int64(2), n=np.intp(2), coefficients=p.coefficients,
            derivatives=p.derivatives)
        assert run(sized, SolverConfig(model=Model.DZND1_2I,
                                       gamma=ComplexGain(10.0), epsilon=0.1,
                                       duration=0.1),
                   random_initial_state(p, 42)).finite.all()
        with pytest.raises(ShapeError, match="integer >= 1"):
            SylvesterConjugateProblem(m=2.0, n=2, coefficients=p.coefficients,
                                      derivatives=p.derivatives)


class TestRandomInitialState:
    def test_deterministic_per_seed(self):
        p = example2()
        a = random_initial_state(p, 42)
        b = random_initial_state(p, 42)
        np.testing.assert_array_equal(a.x0.re, b.x0.re)
        np.testing.assert_array_equal(a.x0.im, b.x0.im)
        assert a.seed == 42

    def test_distinct_seeds_differ(self):
        p = example2()
        a = random_initial_state(p, 1)
        b = random_initial_state(p, 2)
        assert not np.array_equal(a.x0.re, b.x0.re)

    def test_entries_within_bounds(self):
        # 10^4 sampled entries across a large problem and two seeds
        big = SylvesterConjugateProblem(
            m=50, n=50,
            coefficients=example2().coefficients,
            derivatives=example2().derivatives,
        )
        for seed in (0, 1):
            state = random_initial_state(big, seed)
            for part in (state.x0.re, state.x0.im):
                assert part.min() >= -5.0
                assert part.max() <= 5.0


class TestRegistry:
    def test_known_names(self):
        assert set(PROBLEMS) == {"example1", "example2"}
        assert get_problem("example1").label == "example1"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="example1"):
            get_problem("nope")


_PROVIDERS = ["coefficients", "derivatives", "theoretical_solution"]


def _assert_block_form_is_per_tau_stack(provider, taus):
    """``provider.over(taus)`` equals, to the last bit, the stacks of the
    provider's values at each tau, as complex128."""
    stacks = provider.over(np.array(taus, dtype=np.float64))
    stacks = stacks if isinstance(stacks, tuple) else (stacks,)
    values = [provider(tau) for tau in taus]
    values = [v if isinstance(v, tuple) else (v,) for v in values]
    assert len(stacks) == len(values[0])
    for i, z in enumerate(stacks):
        want = np.stack([v[i].to_complex() for v in values])
        assert z.dtype == np.complex128
        assert z.shape == want.shape
        # Bytes: also the sign of every zero and the bits of every nan.
        assert z.tobytes() == want.tobytes()


class TestBlockProviders:
    """The registered problems write each formula once, over an array of
    tau; a call at one tau evaluates it on a one-element array."""

    @pytest.mark.parametrize("provider", _PROVIDERS)
    @pytest.mark.parametrize("factory", [example1, example2])
    def test_block_form_equals_per_tau_values_over_a_run(self, factory, provider):
        # The 201 records of a 1 s run at epsilon = 0.005, at the times
        # run() gives them.
        taus = [j * 0.005 for j in range(201)]
        _assert_block_form_is_per_tau_stack(getattr(factory(), provider), taus)

    @pytest.mark.parametrize("provider", _PROVIDERS)
    @pytest.mark.parametrize("factory", [example1, example2])
    def test_block_form_equals_per_tau_values_property(self, factory, provider):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        block = getattr(factory(), provider)

        @hypothesis.settings(max_examples=50, deadline=None)
        @hypothesis.given(st.lists(
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
            min_size=1, max_size=80,
        ))
        def check(taus):
            _assert_block_form_is_per_tau_stack(block, taus)

        check()

    @pytest.mark.parametrize("broken", [
        lambda z: z[:, :, :1], lambda z: z[:-1], lambda z: z[0],
        # A tuple is spliced in: F and A alone, or an empty tuple for X*.
        lambda z: (),
    ], ids=["matrix-shape", "record-count", "no-record-axis", "matrix-count"])
    @pytest.mark.parametrize("provider", _PROVIDERS)
    def test_wrong_shape_stack_raises_through_run(self, provider, broken):
        p = example2()
        over = getattr(p, provider).over

        def wrong(taus):
            stacks = over(taus)
            if isinstance(stacks, tuple):
                z = broken(stacks[2])
                return stacks[:2] + (z if isinstance(z, tuple) else (z,))
            return broken(stacks)

        problem = dataclasses.replace(p, **{provider: BlockProvider(wrong)})
        config = SolverConfig(model=Model.DZND1_2I, gamma=ComplexGain(10.0),
                              epsilon=0.1, duration=1.0)
        # A wrong X* keeps the message of a per-tau provider's wrong X*.
        message = ("expected" if provider != "theoretical_solution"
                   else "expected|theoretical solution shape")
        with pytest.raises(ShapeError, match=message):
            run(problem, config, random_initial_state(p, 42))

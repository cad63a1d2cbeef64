import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import dznd
from dznd import (
    ComplexGain,
    ConfigError,
    Model,
    Outcome,
    ShapeError,
    SolverConfig,
    SplitComplexMatrix,
    SylvesterConjugateProblem,
    example1,
    example2,
    random_initial_state,
    run,
    run_batch,
    scalar_error_modulus,
    state_from_matrix,
    tail_max_equation_residual,
    tail_max_solution_error,
)
from dznd.assembly import (
    REUSE_WINDOW,
    frobenius_norms,
    real_operator,
    unstack,
)
from dznd.problems import BlockProvider, InitialState, _held
from dznd.solvers import (
    BLOCK_BYTES,
    BLOCK_RECORDS,
    MAX_STEP_COUNT,
    block_records,
)
from helpers import (
    euler_step_oracle,
    make_shifted_trig_problem,
    make_trig_problem,
    one_step,
    random_split,
    residual_oracle,
    solution_error_oracle,
)

GAMMA10 = ComplexGain(10.0)


def _config(model=Model.DZND1_2I, gamma=GAMMA10, epsilon=0.1, **kw):
    return SolverConfig(model=model, gamma=gamma, epsilon=epsilon, **kw)


def _matrix(state, problem):
    """The split matrix whose stacked state is ``state``."""
    return SplitComplexMatrix.from_complex(unstack(state, problem.m, problem.n))


def _finite(trajectory):
    """Whether each record's state and equation residual are finite."""
    return (np.isfinite(trajectory.states).all(axis=1)
            & np.isfinite(trajectory.equation_residuals))


class TestScalarErrorModulus:
    def test_deadbeat_combination(self):
        assert scalar_error_modulus(GAMMA10, 0.1) == 0.0

    def test_complex_gain_large_step_diverges(self):
        assert scalar_error_modulus(ComplexGain(10.0, 20.0), 0.1) == 2.0

    def test_complex_gain_small_step_contracts(self):
        value = scalar_error_modulus(ComplexGain(10.0, 20.0), 0.001)
        assert value == pytest.approx(math.sqrt(0.99**2 + 0.02**2), abs=1e-15)
        assert value == pytest.approx(0.9902, abs=5e-5)
        assert value < 1.0


class TestSolverConfig:
    def test_valid_config_passes(self):
        _config(epsilon=0.001).validate()

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1.5, -0.1])
    def test_epsilon_must_lie_in_open_unit_interval(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            _config(epsilon=epsilon).validate()

    def test_duration_must_divide_into_steps(self):
        with pytest.raises(ConfigError, match="integral step count"):
            _config(epsilon=0.3, duration=10.0).validate()

    def test_near_integral_ratio_is_accepted(self):
        cfg = _config(epsilon=0.001, duration=10.0)
        cfg.validate()
        assert cfg.step_count == 10000

    def test_dznd2_rejects_complex_gain(self):
        with pytest.raises(ConfigError, match="real gain"):
            _config(model=Model.DZND2_2I, gamma=ComplexGain(10.0, 20.0)).validate()

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigError, match="threshold"):
            _config(divergence_threshold=0.0).validate()

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError, match="duration"):
            _config(duration=-1.0).validate()

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_duration_must_be_finite(self, duration):
        with pytest.raises(ConfigError, match="duration"):
            _config(duration=duration).validate()

    @pytest.mark.parametrize("tolerance", [-1.0, math.inf, math.nan])
    def test_pinv_tolerance_must_be_nonnegative_and_finite(self, tolerance):
        # nan or inf would make pinv cut every singular value, so the
        # state would never move.
        with pytest.raises(ConfigError, match="pinv tolerance"):
            _config(pinv_tolerance=tolerance).validate()

    def test_overflowing_step_count_is_rejected(self):
        with pytest.raises(ConfigError, match="step count"):
            _config(epsilon=1e-10, duration=1e300).validate()
        # An integral 10^10 steps would not fit in memory; the cap passes.
        with pytest.raises(ConfigError, match="step count limit"):
            _config(epsilon=1e-9, duration=10.0).validate()
        capped = _config(epsilon=1e-6, duration=10.0)
        capped.validate()
        assert capped.step_count == MAX_STEP_COUNT

    def test_overflowing_numpy_scalar_ratio_is_rejected(self):
        # A quotient of numpy scalars would overflow with a RuntimeWarning,
        # which this suite turns into an error.
        config = _config(epsilon=np.float64(1e-300), duration=np.float64(1e300))
        with pytest.raises(ConfigError, match="integral step count"):
            config.validate()

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_validate_raises_or_bounds_the_step_count_property(self, model):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # Any floats, nan and inf included; the gain is valid, and real
        # often enough for dznd2-2i to pass.
        gains = st.builds(
            ComplexGain,
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.one_of(st.just(0.0), st.floats(allow_nan=False,
                                              allow_infinity=False)),
        )

        # Python floats or numpy scalars, as library callers may pass.
        floats = st.one_of(st.floats(), st.floats().map(np.float64))

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(gains, floats, floats, floats,
                          st.one_of(st.none(), floats))
        def check(gain, epsilon, duration, threshold, tolerance):
            config = SolverConfig(
                model=model, gamma=gain, epsilon=epsilon, duration=duration,
                pinv_tolerance=tolerance, divergence_threshold=threshold)
            try:
                config.validate()
            except ConfigError:
                return
            assert 1 <= config.step_count <= MAX_STEP_COUNT

        check()

    def test_model_lookup(self):
        assert Model.from_name("dznd1-2i") is Model.DZND1_2I
        assert Model.from_name("dznd2-2i") is Model.DZND2_2I
        with pytest.raises(KeyError):
            Model.from_name("dznd3")


class TestSteps:
    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_fixed_point_is_preserved_over_100_steps(self, model):
        problem = example1()
        initial = InitialState(problem.theoretical_solution(0.0), 0)
        trajectory = run(problem, _config(model=model), initial)
        assert len(trajectory) == 101
        start = state_from_matrix(initial.x0)
        assert np.abs(trajectory.states - start).max() <= 1e-12
        assert trajectory.solution_errors[0] == 0.0

    def test_dznd1_deadbeat_contraction_on_constant_problem(self):
        # with epsilon*gamma = 1 one step collapses the whole residual
        problem = example1()
        state = state_from_matrix(random_initial_state(problem, 3).x0)
        before = residual_oracle(problem, _matrix(state, problem), 0.0)
        state = one_step(problem, state, _config(), 0.0).states[1]
        after = residual_oracle(problem, _matrix(state, problem), 0.1)
        assert after <= 1e-8 * before

    def test_dznd1_residual_decreases_monotonically(self):
        problem = example2()
        trajectory = run(problem, _config(epsilon=0.001, duration=0.1),
                         random_initial_state(problem, 5))
        residuals = [
            residual_oracle(problem, _matrix(state, problem), tau)
            for state, tau in zip(trajectory.states[:100], trajectory.taus)
        ]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_dznd2_one_step_drift_from_exact_solution(self):
        problem = example2()
        eps, tau = 0.001, 0.5
        state = state_from_matrix(problem.theoretical_solution(tau))
        config = _config(model=Model.DZND2_2I, epsilon=eps)
        nxt = one_step(problem, state, config, tau).states[1]
        exact_next = state_from_matrix(problem.theoretical_solution(tau + eps))
        assert np.linalg.norm(nxt - exact_next) <= 1e-5

    def test_dznd2_contracts_constant_problem_from_random_start(self):
        problem = example1()
        trajectory = run(problem, _config(model=Model.DZND2_2I),
                         random_initial_state(problem, 11))
        assert len(trajectory) == 101
        final = residual_oracle(
            problem, _matrix(trajectory.states[-1], problem), 10.0)
        assert final <= 1e-10


class TestNonFiniteData:
    """A nan or inf in the problem's data ends a run DIVERGED, with no
    exception and no warning, on the dense path (2x2) and the structured
    path (6x6): in A at record 0, in a derivative at record 1, the first
    record the derivatives reach."""

    @staticmethod
    def _broken(size, provider, index, value):
        """The shifted trig problem whose ``provider`` returns matrix
        ``index`` filled with ``value`` at every tau."""
        p = make_shifted_trig_problem(size, size, 3)
        original = getattr(p, provider)
        bad = SplitComplexMatrix.from_real(np.full((size, size), value))

        def broken(tau):
            values = list(original(tau))
            values[index] = bad
            return tuple(values)

        return dataclasses.replace(p, **{provider: broken})

    @pytest.mark.parametrize("provider,index,value,record", [
        ("coefficients", 1, math.inf, 0),
        ("derivatives", 1, math.inf, 1),
        ("derivatives", 0, math.nan, 1),
    ], ids=["inf-A", "inf-Adot", "nan-Fdot"])
    @pytest.mark.parametrize("start", ["random", "zero"])
    @pytest.mark.parametrize("size", [2, 6])
    def test_run_ends_diverged(self, size, start, provider, index, value,
                               record):
        problem = self._broken(size, provider, index, value)
        initial = random_initial_state(problem, 42)
        if start == "zero":
            initial = InitialState(
                SplitComplexMatrix.from_real(np.zeros((size, size))), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = run(problem, _config(duration=1.0), initial)
        assert trajectory.outcome is Outcome.DIVERGED
        assert trajectory.diverged_at == record
        assert len(trajectory) == record + 1
        assert not _finite(trajectory)[-1]
        assert _finite(trajectory)[:-1].all()

    @pytest.mark.parametrize("index,value", [(1, math.inf), (0, math.nan)],
                             ids=["inf-Adot", "nan-Fdot"])
    def test_structured_non_finite_drive_solves_nothing(self, monkeypatch,
                                                        index, value):
        # F and A are finite, so the operator is; the drive of step 0 is
        # not, so that step goes to a nan state without a solve and no
        # W^+ is formed.
        problem = self._broken(6, "derivatives", index, value)

        def refuse(*args):
            raise AssertionError("pseudo_inverses was called")

        monkeypatch.setattr(dznd.assembly, "pseudo_inverses", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = run(problem, _config(duration=1.0),
                             random_initial_state(problem, 42))
        assert trajectory.outcome is Outcome.DIVERGED
        assert trajectory.diverged_at == 1
        assert np.isnan(trajectory.states[-1]).all()
        assert trajectory.operator_factorizations == 0
        assert trajectory.structured_solve_steps == 0
        assert trajectory.pinv_fallback_steps == 0


class TestRun:
    def test_constant_problem_converges_to_floor(self):
        problem = example1()
        config = _config(epsilon=0.001)
        trajectory = run(problem, config, random_initial_state(problem, 42))
        assert trajectory.outcome is Outcome.COMPLETED
        assert trajectory.equation_residuals[-1] <= 1e-8

    def test_record_bookkeeping(self):
        problem = example2()
        config = _config(epsilon=0.1)
        trajectory = run(problem, config, random_initial_state(problem, 42))
        assert len(trajectory) == config.step_count + 1
        np.testing.assert_array_equal(
            trajectory.steps, np.arange(config.step_count + 1)
        )
        np.testing.assert_allclose(
            trajectory.taus, trajectory.steps * 0.1, rtol=0, atol=1e-12
        )
        assert _finite(trajectory).all()
        assert trajectory.diverged_at is None

    def test_divergence_halts_early_and_flags_step(self):
        problem = example2()
        config = _config(gamma=ComplexGain(10.0, 20.0), epsilon=0.1)
        trajectory = run(problem, config, random_initial_state(problem, 42))
        assert trajectory.outcome is Outcome.DIVERGED
        assert trajectory.diverged_at == trajectory.steps[-1]
        assert trajectory.diverged_at < config.step_count
        last = trajectory.equation_residuals[-1]
        assert (not np.isfinite(last)) or last > config.divergence_threshold
        # every record before the trip point is finite
        assert _finite(trajectory)[:-1].all()

    def test_divergence_predictor_matches_outcomes(self):
        problem = example2()
        for gamma in (GAMMA10, ComplexGain(10.0, 20.0), ComplexGain(10.0, -20.0)):
            for epsilon in (0.1, 0.001):
                config = _config(gamma=gamma, epsilon=epsilon)
                trajectory = run(problem, config, random_initial_state(problem, 42))
                predicted_divergence = scalar_error_modulus(gamma, epsilon) > 1.0
                assert (trajectory.outcome is Outcome.DIVERGED) == predicted_divergence

    def test_deterministic_trajectories(self):
        problem = example2()
        config = _config(epsilon=0.01, model=Model.DZND2_2I)
        first = run(problem, config, random_initial_state(problem, 42))
        second = run(problem, config, random_initial_state(problem, 42))
        np.testing.assert_array_equal(first.states, second.states)
        np.testing.assert_array_equal(
            first.equation_residuals, second.equation_residuals
        )

    def test_invalid_config_raises_before_stepping(self):
        problem = example2()
        config = _config(epsilon=0.3)
        with pytest.raises(ConfigError):
            run(problem, config, random_initial_state(problem, 42))

    def test_initial_shape_mismatch(self):
        p1, p2 = example1(), example2()
        with pytest.raises(Exception, match="shape"):
            run(p1, _config(), random_initial_state(p2, 42))

    def test_problem_without_solution_logs_nan_errors(self):
        problem = make_trig_problem(2, 2, 23)
        config = _config(epsilon=0.1)
        trajectory = run(problem, config, random_initial_state(problem, 1))
        assert trajectory.outcome is Outcome.COMPLETED
        assert np.isnan(trajectory.solution_errors).all()
        assert np.isfinite(trajectory.equation_residuals).all()

    def test_equation_and_solution_error_agree_on_tail(self):
        # both residuals measure the same convergence; their ratio stays
        # bounded once the transient has died out
        problem = example2()
        trajectory = run(problem, _config(epsilon=0.01),
                         random_initial_state(problem, 42))
        mask = trajectory.taus >= 5.0
        ratio = trajectory.equation_residuals[mask] / trajectory.solution_errors[mask]
        assert ratio.min() >= 0.02
        assert ratio.max() <= 50.0

    def test_models_agree_at_real_gain(self):
        problem = example2()
        initial = random_initial_state(problem, 42)
        tails = {}
        for model in Model:
            config = _config(model=model, epsilon=0.01)
            trajectory = run(problem, config, initial)
            tails[model] = tail_max_solution_error(trajectory, 5.0)
        ratio = tails[Model.DZND1_2I] / tails[Model.DZND2_2I]
        assert 0.1 <= ratio <= 10.0


class TestRecordLoop:
    """One coefficient evaluation per record, one derivative evaluation
    per step, and records equal to the public residual functions."""

    @pytest.mark.parametrize("model", list(Model))
    def test_providers_are_called_once_per_record_or_step(self, model):
        p = example2()
        calls = {"coefficients": 0, "derivatives": 0, "theoretical_solution": 0}

        def counting(name):
            def provider(tau):
                calls[name] += 1
                return getattr(p, name)(tau)
            return provider

        counted = dataclasses.replace(p, **{name: counting(name) for name in calls})
        trajectory = run(counted, _config(model=model, epsilon=0.1),
                         random_initial_state(p, 42))
        records = len(trajectory)
        assert records == 101
        assert calls == {"coefficients": records, "derivatives": records - 1,
                         "theoretical_solution": records}

    def test_diverged_run_evaluates_at_most_one_block_ahead(self):
        # example2 at gain 10+50i passes a threshold of 1e6 at record 345,
        # inside the block of records 256 to 500.
        p = example2()
        taus = {"coefficients": [], "derivatives": [],
                "theoretical_solution": []}

        def recording(name):
            def provider(tau):
                taus[name].append(tau)
                return getattr(p, name)(tau)
            return provider

        recorded = dataclasses.replace(
            p, **{name: recording(name) for name in taus})
        config = _config(gamma=ComplexGain(10.0, 50.0), epsilon=0.01,
                         duration=5.0, divergence_threshold=1e6)
        trajectory = run(recorded, config, random_initial_state(p, 42))
        assert trajectory.outcome is Outcome.DIVERGED
        assert BLOCK_RECORDS < trajectory.diverged_at
        assert 0 < trajectory.diverged_at % BLOCK_RECORDS < BLOCK_RECORDS - 1
        last = trajectory.taus[-1]
        for name, called in taus.items():
            assert len(called) == len(set(called)), name
            assert max(called) <= config.duration
            assert sum(tau > last for tau in called) <= BLOCK_RECORDS - 1

    @pytest.mark.parametrize("model", list(Model))
    def test_records_match_public_residuals(self, model):
        p = example2()
        trajectory = run(p, _config(model=model, epsilon=0.01),
                         random_initial_state(p, 42))
        for state, tau, eq, sol in zip(trajectory.states, trajectory.taus,
                                       trajectory.equation_residuals,
                                       trajectory.solution_errors):
            x = _matrix(state, p)
            assert eq == pytest.approx(residual_oracle(p, x, tau), rel=1e-12)
            assert sol == pytest.approx(solution_error_oracle(p, x, tau),
                                        rel=1e-12)

    def test_wrong_solution_shape_is_rejected(self):
        # Without the check, numpy broadcasting would accept a 1 x n solution.
        p = example2()
        broken = dataclasses.replace(
            p, theoretical_solution=lambda tau: SplitComplexMatrix.from_real(
                np.zeros((1, 2))
            ),
        )
        with pytest.raises(ShapeError, match="theoretical solution shape"):
            run(broken, _config(), random_initial_state(p, 42))


def _zero_problem(size):
    zero = SplitComplexMatrix.from_real(np.zeros((size, size)))
    return SylvesterConjugateProblem(
        m=size, n=size,
        coefficients=lambda tau: (zero, zero, zero),
        derivatives=lambda tau: (zero, zero, zero),
    )


class TestSolvePath:
    @pytest.mark.parametrize("factory", [example1, example2])
    @pytest.mark.parametrize("model", list(Model))
    def test_examples_never_fall_back_to_pinv(self, factory, model):
        problem = factory()
        trajectory = run(problem, _config(model=model),
                         random_initial_state(problem, 42))
        assert len(trajectory) == 101
        assert trajectory.pinv_fallback_steps == 0
        assert trajectory.structured_solve_steps == 0
        # example1's coefficients are constant; example2's move every step.
        assert trajectory.operator_factorizations == (
            1 if factory is example1 else 100
        )

    @pytest.mark.parametrize("model", list(Model))
    def test_zero_operator_falls_back_every_step(self, model):
        # F = A = C = 0 makes W = 0: pinv gives the zero direction.  At 6x6
        # the structured solve is tried first and every gap is 0.
        for size in (2, 6):
            problem = _zero_problem(size)
            config = _config(model=model, duration=1.0)
            trajectory = run(problem, config, random_initial_state(problem, 3))
            assert trajectory.outcome is Outcome.COMPLETED
            assert trajectory.pinv_fallback_steps == config.step_count == 10
            assert trajectory.structured_solve_steps == 0
            assert trajectory.operator_factorizations == 1
            np.testing.assert_array_equal(
                trajectory.states, np.broadcast_to(trajectory.states[0],
                                                   trajectory.states.shape)
            )

    @pytest.mark.parametrize("m,n", [(16, 16), (12, 8), (6, 6), (4, 8),
                                     (8, 4)])
    @pytest.mark.parametrize("model", list(Model))
    def test_shifted_trig_steps_structured_as_dense(self, monkeypatch, model, m, n):
        problem = make_shifted_trig_problem(m, n, 5)
        config = _config(model=model, epsilon=0.01, duration=0.05)
        initial = random_initial_state(problem, 6)
        structured = run(problem, config, initial)
        assert structured.structured_solve_steps == config.step_count == 5
        assert structured.pinv_fallback_steps == 0
        monkeypatch.setattr(dznd.assembly, "STRUCTURED_SOLVE_MIN_UNKNOWNS", math.inf)
        dense = run(problem, config, initial)
        assert dense.structured_solve_steps == 0
        for got, want in zip(structured.states, dense.states, strict=True):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("m,n", [(5, 6), (6, 5), (4, 7)])
    @pytest.mark.parametrize("model", list(Model))
    def test_shifted_trig_steps_dense_as_structured(self, monkeypatch, model, m, n):
        # The other direction across the crossover: below mn = 32 a run
        # forced onto the structured path takes the dense path's states.
        problem = make_shifted_trig_problem(m, n, 5)
        config = _config(model=model, epsilon=0.01, duration=0.05)
        initial = random_initial_state(problem, 6)
        dense = run(problem, config, initial)
        assert dense.structured_solve_steps == dense.pinv_fallback_steps == 0
        monkeypatch.setattr(dznd.assembly, "STRUCTURED_SOLVE_MIN_UNKNOWNS", 0)
        structured = run(problem, config, initial)
        assert structured.structured_solve_steps == config.step_count == 5
        assert structured.pinv_fallback_steps == 0
        for got, want in zip(structured.states, dense.states, strict=True):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _frozen_shifted_trig_problem(m, n, seed):
    """The shifted trig problem with its coefficients held at tau = 0.5."""
    problem = make_shifted_trig_problem(m, n, seed)
    coefficients = problem.coefficients(0.5)
    zeros = tuple(SplitComplexMatrix.from_real(np.zeros(c.shape))
                  for c in coefficients)
    return dataclasses.replace(problem, coefficients=lambda tau: coefficients,
                               derivatives=lambda tau: zeros)


def _held_shifted_trig_problem(m, n, seed):
    """The frozen shifted trig problem with block providers that return
    read-only broadcast stacks (a stride-0 leading axis), built as
    example1's are."""
    problem = _frozen_shifted_trig_problem(m, n, seed)
    values = [z.to_complex() for z in problem.coefficients(0.0)]
    zeros = [np.zeros_like(z) for z in values]
    return dataclasses.replace(
        problem,
        coefficients=BlockProvider(lambda taus: _held(taus, *values)),
        derivatives=BlockProvider(lambda taus: _held(taus, *zeros)),
    )


class TestFactorReuse:
    """run() keeps L's factors while F and A are bitwise unchanged, and
    steps exactly as one-step runs do; example2 refactors every step."""

    @pytest.mark.parametrize("factory,path", [
        (example1, "inverse"),
        (lambda: _zero_problem(2), "pinv"),
        (lambda: _frozen_shifted_trig_problem(6, 6, 5), "structured"),
        (lambda: _held_shifted_trig_problem(6, 6, 5), "structured"),
        (example2, "inverse"),
    ], ids=["example1", "zero-operator", "constant-shifted-trig-6x6",
            "held-shifted-trig-6x6", "example2"])
    def test_cached_factors_step_as_one_shot_solves(self, factory, path):
        problem = factory()
        config = _config(epsilon=0.01, duration=0.2)
        initial = random_initial_state(problem, 4)
        trajectory = run(problem, config, initial)
        assert trajectory.operator_factorizations == (
            config.step_count if factory is example2 else 1)
        assert trajectory.structured_solve_steps == (
            config.step_count if path == "structured" else 0)
        assert trajectory.pinv_fallback_steps == (
            config.step_count if path == "pinv" else 0)

        state = state_from_matrix(initial.x0)
        states, residuals = [], []
        for k in range(config.step_count + 1):
            tau = k * config.epsilon
            x = unstack(state, problem.m, problem.n)
            f, a, c = (z.to_complex() for z in problem.coefficients(tau))
            states.append(state)
            residuals.append(np.linalg.norm(x @ f - a @ np.conj(x) - c))
            if k < config.step_count:
                state = one_step(problem, state, config, tau).states[1]
        np.testing.assert_array_equal(trajectory.states, states)
        np.testing.assert_array_equal(trajectory.equation_residuals, residuals)

    def test_changed_sign_of_zero_refactors(self):
        # F = +0 and F = -0 compare equal but differ in their bytes.
        p = example1()
        f, a, c = p.coefficients(0.0)
        flipped = SplitComplexMatrix(f.re, np.where(f.im == 0.0, -0.0, f.im))
        problem = dataclasses.replace(
            p, coefficients=lambda tau: (
                flipped if round(tau / 0.1) % 2 else f, a, c),
        )
        trajectory = run(problem, _config(duration=1.0),
                         random_initial_state(p, 42))
        assert trajectory.operator_factorizations == 10

    def test_constant_operator_forms_one_w_plus_across_block_edges(
            self, monkeypatch):
        # Below the crossover the solver keeps the last operator's W^+, so
        # the blocks after the first, which repeat it, form none.
        formed = []
        pseudo_inverses = dznd.assembly.pseudo_inverses

        def counting(w, tolerance=None):
            formed.append(len(w))
            return pseudo_inverses(w, tolerance)

        monkeypatch.setattr(dznd.assembly, "pseudo_inverses", counting)
        problem = example1()
        config = _config(epsilon=0.01, duration=0.01 * (2 * BLOCK_RECORDS + 1))
        trajectory = run(problem, config, random_initial_state(problem, 8))
        assert trajectory.outcome is Outcome.COMPLETED
        assert config.step_count > 2 * block_records(problem.m, problem.n)
        assert formed == [1]
        assert trajectory.operator_factorizations == 1


def _one_shot_run(problem, config, initial):
    """run() rebuilt from one-step runs: the records, outcome and counts
    that run() must reproduce exactly, block by block."""
    state = state_from_matrix(initial.x0)
    states, residuals, errors = [], [], []
    counts = {"operator_factorizations": 0, "pinv_fallback_steps": 0,
              "structured_solve_steps": 0}
    key, outcome, diverged_at = None, Outcome.COMPLETED, None
    for k in range(config.step_count + 1):
        tau = k * config.epsilon
        x = unstack(state, problem.m, problem.n)
        f, a, c = (z.to_complex() for z in problem.coefficients(tau))
        eq = float(np.linalg.norm(x @ f - a @ np.conj(x) - c))
        states.append(state)
        residuals.append(eq)
        errors.append(
            float(np.linalg.norm(
                x - problem.theoretical_solution(tau).to_complex()))
            if problem.theoretical_solution else math.nan)
        if (not (np.isfinite(state).all() and np.isfinite(eq))
                or eq > config.divergence_threshold):
            outcome, diverged_at = Outcome.DIVERGED, k
            break
        if k == config.step_count:
            break
        if (f.tobytes(), a.tobytes()) != key:
            key = (f.tobytes(), a.tobytes())
            counts["operator_factorizations"] += 1
        step = one_step(problem, state, config, tau)
        counts["pinv_fallback_steps"] += step.pinv_fallback_steps
        counts["structured_solve_steps"] += step.structured_solve_steps
        state = step.states[1]
    return states, residuals, errors, outcome, diverged_at, counts


def _assert_runs_as_one_shot_steps(problem, config, initial):
    trajectory = run(problem, config, initial)
    states, residuals, errors, outcome, diverged_at, counts = (
        _one_shot_run(problem, config, initial))
    np.testing.assert_array_equal(trajectory.states, states)
    np.testing.assert_array_equal(trajectory.equation_residuals, residuals)
    np.testing.assert_array_equal(trajectory.solution_errors, errors)
    assert (trajectory.outcome, trajectory.diverged_at) == (outcome, diverged_at)
    assert {name: getattr(trajectory, name) for name in counts} == counts
    return trajectory


class TestSylvesterReuse:
    """From the crossover up a moving run solves each step in the
    eigenbases of the run's last factored operator while the reuse
    certificate holds, so it factors less often than it steps, and its
    records agree with a loop of one-step runs, each factoring afresh.  A
    run counts only the factorizations it makes."""

    @pytest.mark.parametrize("epsilon", [0.01, 0.001])
    @pytest.mark.parametrize("m,n", [(6, 6), (12, 8), (16, 16)])
    @pytest.mark.parametrize("model", list(Model))
    def test_records_agree_with_fresh_factor_steps(self, model, m, n, epsilon):
        problem = make_shifted_trig_problem(m, n, 5)
        config = _config(model=model, epsilon=epsilon, duration=50 * epsilon)
        initial = random_initial_state(problem, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = run(problem, config, initial)
            states, _, _, outcome, diverged_at, counts = _one_shot_run(
                problem, config, initial)
        assert (trajectory.outcome, trajectory.diverged_at) == (
            outcome, diverged_at) == (Outcome.COMPLETED, None)
        assert trajectory.pinv_fallback_steps == counts[
            "pinv_fallback_steps"] == 0
        assert trajectory.structured_solve_steps == config.step_count == 50
        assert 1 <= trajectory.operator_factorizations < 50
        for got, want in zip(trajectory.states, states, strict=True):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("model", list(Model))
    def test_five_steps_factor_once(self, model):
        problem = make_shifted_trig_problem(16, 16, 5)
        config = _config(model=model, epsilon=0.01, duration=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = run(problem, config, random_initial_state(problem, 6))
        assert trajectory.structured_solve_steps == 5
        assert trajectory.operator_factorizations == 1

    def test_coefficient_jump_refactors(self):
        # From record 3 on, F and A are another problem's: in the first
        # base's eigenbases their Sylvester form is far from diagonal
        # (delta >= 1/2), so step 3 factors afresh and steps 4 and 5
        # reuse that.
        problem = make_shifted_trig_problem(16, 16, 5)
        other = make_shifted_trig_problem(16, 16, 9)
        jump = dataclasses.replace(problem, coefficients=lambda tau: (
            problem if round(tau / 0.001) < 3 else other).coefficients(tau))
        config = _config(epsilon=0.001, duration=0.006)
        initial = random_initial_state(problem, 6)
        # The block's base is the operator of step 0.  With a zero cutoff
        # only delta can fail the reuse certificate.
        def terms(p, tau):
            # P = F conj F, Q = A conj A and s = ||F||_F + ||A||_F.
            f, a = (z.to_complex() for z in p.coefficients(tau)[:2])
            return (f @ np.conj(f), a @ np.conj(a),
                    np.linalg.norm(f) + np.linalg.norm(a))

        base = dznd.assembly._sylvester_factors(*terms(problem, 0.0), 0.0)
        p, q, s = terms(other, 0.003)
        assert base is not None
        assert not dznd.assembly._reuses(
            base, p[None], q[None], np.array([s]), 0.0).certified[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = run(jump, config, initial)
            states, _, _, _, _, _ = _one_shot_run(jump, config, initial)
        assert trajectory.structured_solve_steps == 6
        assert trajectory.operator_factorizations == 2
        for got, want in zip(trajectory.states, states, strict=True):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m,n", [(6, 6), (12, 8)])
    def test_block_edges_do_not_move_the_factorizations(self, monkeypatch,
                                                       m, n):
        # The base carries across block edges, so a run factors where its
        # operators move too far from it, not where its blocks start.
        problem = make_shifted_trig_problem(m, n, 5)
        config = _config(epsilon=0.01, duration=1.2)
        initial = random_initial_state(problem, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            whole = run(problem, config, initial)
            monkeypatch.setattr(dznd.solvers, "BLOCK_RECORDS", 7)
            assert block_records(m, n) == 7
            cut = run(problem, config, initial)
        counts = ("structured_solve_steps", "pinv_fallback_steps",
                  "operator_factorizations")
        assert [getattr(cut, name) for name in counts] == [
            getattr(whole, name) for name in counts]
        assert whole.structured_solve_steps == config.step_count == 120
        assert cut.outcome is whole.outcome is Outcome.COMPLETED
        for got, want in zip(cut.states, whole.states, strict=True):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("size", [1, 6])
    def test_unfactored_operator_counts_no_factorization(self, size):
        # From zero the run takes one step with an operator whose W
        # overflows, which is never factored, on either path.
        problem = TestOverflowingOperator._problem(size)
        initial = InitialState(
            SplitComplexMatrix.from_real(np.zeros((size, size))), 0)
        trajectory = run(problem, _config(), initial)
        assert trajectory.diverged_at == 1
        assert trajectory.operator_factorizations == 0


def _segmented(p, records_per_segment):
    """``p`` with F, A, C and their derivatives held constant over
    segments of records at epsilon = 0.01, so that its operator changes
    only at segment edges."""

    def frozen(provider):
        return lambda tau: provider(
            0.01 * records_per_segment * (round(tau / 0.01)
                                          // records_per_segment))

    return dataclasses.replace(p, coefficients=frozen(p.coefficients),
                               derivatives=frozen(p.derivatives))


def _patched(problem, provider, at_record, replacement):
    """``problem`` whose ``provider`` returns ``replacement`` at one record
    (epsilon = 0.01)."""
    original = getattr(problem, provider)
    return dataclasses.replace(problem, **{provider: lambda tau: (
        replacement if round(tau / 0.01) == at_record else original(tau))})


class TestBlocks:
    """run() does its tau-only work one block of BLOCK_RECORDS records at
    a time; every run equals a loop of one-step runs to the last bit, with
    the same counts, at and around block edges."""

    # Lengths at the block edges, and at the edges of the 64-record
    # blocks runs took before, which now fall inside one block.  From the
    # crossover up (6x6), a constant operator carries its factors across
    # both block edges and factors once; with segment edges on the block
    # edges, each segment factors once.
    @pytest.mark.parametrize("factory,records", [
        pytest.param(factory, records, id=f"{name}-{records}")
        for name, factory in {
            "constant": example1,
            "moving": example2,
            "segments-of-10": lambda: _segmented(example2(), 10),
            "segments-at-block-edges": lambda: _segmented(
                example2(), BLOCK_RECORDS // 4),
        }.items()
        for records in [
            2, 63, 64, 65, 129, BLOCK_RECORDS - 1, BLOCK_RECORDS,
            BLOCK_RECORDS + 1, 2 * BLOCK_RECORDS + 1,
        ]
    ] + [
        pytest.param(lambda: _frozen_shifted_trig_problem(6, 6, 5),
                     2 * BLOCK_RECORDS + 1,
                     id=f"constant-shifted-trig-6x6-{2 * BLOCK_RECORDS + 1}"),
        pytest.param(lambda: _segmented(make_shifted_trig_problem(6, 6, 5),
                                        BLOCK_RECORDS),
                     2 * BLOCK_RECORDS + 1,
                     id="segments-at-block-edges-shifted-trig-6x6-"
                        f"{2 * BLOCK_RECORDS + 1}"),
    ])
    def test_run_lengths_around_block_edges(self, factory, records):
        problem = factory()
        config = _config(epsilon=0.01, duration=0.01 * (records - 1))
        trajectory = _assert_runs_as_one_shot_steps(
            problem, config, random_initial_state(problem, 8))
        assert len(trajectory) == records
        assert trajectory.outcome is Outcome.COMPLETED

    def test_run_of_one_record(self):
        problem = example2()
        config = _config(epsilon=0.01, duration=1.0, divergence_threshold=1e-3)
        trajectory = _assert_runs_as_one_shot_steps(
            problem, config, random_initial_state(problem, 8))
        assert len(trajectory) == 1
        assert trajectory.diverged_at == 0

    def test_divergence_inside_a_block(self):
        problem = _segmented(example2(), 10)
        config = _config(gamma=ComplexGain(10.0, 50.0), epsilon=0.01,
                         duration=5.0, divergence_threshold=1e6)
        trajectory = _assert_runs_as_one_shot_steps(
            problem, config, random_initial_state(problem, 42))
        assert trajectory.outcome is Outcome.DIVERGED
        assert BLOCK_RECORDS < trajectory.diverged_at
        assert 0 < trajectory.diverged_at % BLOCK_RECORDS < BLOCK_RECORDS - 1

    def test_overflow_past_the_stop(self):
        # The residual passes the threshold at record 2, and the block
        # integrates the rest of its steps on past it until the discarded
        # states overflow to inf and nan; that must warn nothing.
        problem = example2()
        config = _config(gamma=ComplexGain(1e8), epsilon=0.5, duration=40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = _assert_runs_as_one_shot_steps(
                problem, config, random_initial_state(problem, 42))
        assert trajectory.outcome is Outcome.DIVERGED
        assert trajectory.diverged_at == 2
        assert len(trajectory) == 3

    @pytest.mark.parametrize("model", list(Model))
    def test_singular_operator_inside_a_block(self, model):
        # F = A = 0 at record 70 makes that W singular, so the inversion
        # of its block's stack raises; only that step takes the SVD.
        zero = SplitComplexMatrix.from_real(np.zeros((2, 2)))
        p = example2()
        problem = _patched(p, "coefficients", 70,
                           (zero, zero, p.coefficients(0.7)[2]))
        trajectory = _assert_runs_as_one_shot_steps(
            problem, _config(model=model, epsilon=0.01, duration=1.5),
            random_initial_state(p, 42))
        assert trajectory.outcome is Outcome.COMPLETED
        assert trajectory.pinv_fallback_steps == 1

    @pytest.mark.parametrize("provider,broken,message", [
        pytest.param(provider, lambda f, a, c: (
            f, a, SplitComplexMatrix.from_real(np.zeros((1, 2)))),
            "provider returned shapes", id=provider)
        for provider in ("coefficients", "derivatives")
    ] + [
        # A provider returning the wrong number of matrices.
        pytest.param(provider, lambda f, a, c: (f, a), "expected",
                     id=f"{provider}-two-matrices")
        for provider in ("coefficients", "derivatives")
    ] + [
        pytest.param("theoretical_solution", lambda x: (x, x), "expected",
                     id="theoretical_solution-tuple"),
        pytest.param("theoretical_solution", lambda x: (
            SplitComplexMatrix.from_real(np.zeros((1, 2)))),
            "provider returned shapes", id="theoretical_solution"),
    ])
    def test_wrong_shape_inside_a_block_is_rejected(
            self, provider, broken, message):
        p = example2()
        values = getattr(p, provider)(0.7)
        problem = _patched(p, provider, 70, broken(
            *(values if isinstance(values, tuple) else (values,))))
        with pytest.raises(ShapeError, match=message):
            run(problem, _config(epsilon=0.01, duration=1.5),
                random_initial_state(p, 42))

    def test_non_finite_coefficients_ahead_of_the_stop(self):
        # F turns nan at tau = 0.05 and inf at 0.1.  The run stops at the
        # nan record, factors once, and neither raises NumericError nor
        # warns for the records evaluated ahead of the stop.
        one = SplitComplexMatrix.from_real(np.ones((1, 1)))
        zero = SplitComplexMatrix.from_real(np.zeros((1, 1)))

        def coefficients(tau):
            k = round(tau / 0.01)
            f = 2.0 if k < 5 else (math.nan if k < 10 else math.inf)
            return SplitComplexMatrix.from_real([[f]]), one, one

        problem = SylvesterConjugateProblem(
            m=1, n=1, coefficients=coefficients,
            derivatives=lambda tau: (zero, zero, zero))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = _assert_runs_as_one_shot_steps(
                problem, _config(epsilon=0.01, duration=1.0),
                random_initial_state(problem, 1))
        assert trajectory.outcome is Outcome.DIVERGED
        assert trajectory.diverged_at == 5
        assert len(trajectory) == 6
        assert trajectory.operator_factorizations == 1

    @pytest.mark.parametrize("factory,formed", [
        (lambda: _frozen_shifted_trig_problem(4, 6, 5), [1, 1]),
        (example1, [1, 1]),
        # Segment s holds steps 10 s to 10 s + 9; a block holds R steps.
        (lambda: _segmented(example2(), 10), [
            (BLOCK_RECORDS - 1) // 10 + 1,
            (2 * BLOCK_RECORDS - 1) // 10 - BLOCK_RECORDS // 10 + 1,
        ]),
        (example2, [BLOCK_RECORDS, BLOCK_RECORDS]),
    ], ids=["constant-shifted-trig-4x6", "constant", "segments-of-10",
            "moving"])
    def test_p_is_formed_once_per_distinct_step(self, monkeypatch, factory,
                                                formed):
        # Below the crossover, consecutive steps with bitwise the same
        # F, A, C and derivatives share P and q.  The 4x6
        # problem has 24 unknowns, so it takes the dense path with one P
        # for every block.  Each run takes two full blocks of steps.
        sizes = []

        def counting(f, a):
            sizes.append(len(f))
            return real_operator(f, a)

        problem = factory()
        records = block_records(problem.m, problem.n)
        config = _config(epsilon=0.01, duration=0.01 * 2 * records)
        monkeypatch.setattr(dznd.solvers, "real_operator", counting)
        trajectory = _assert_runs_as_one_shot_steps(
            problem, config, random_initial_state(problem, 8))
        assert trajectory.outcome is Outcome.COMPLETED
        # Each one-step run of the reference forms P for its one step.
        assert sizes[:2] == formed
        assert sizes[2:] == [1] * config.step_count

    @staticmethod
    def _decaying_c_problem():
        """example1 with C = exp(-10 tau) C_1, so that Cdot = -10 C: at
        gain 10 the shifted Cdot + gamma C is 0 at every step while C
        moves, and F and A are constant."""
        p = example1()
        f, a, c = p.coefficients(0.0)
        fd, ad, _ = p.derivatives(0.0)

        def coefficients(tau):
            return f, a, SplitComplexMatrix.from_complex(
                math.exp(-10.0 * tau) * c.to_complex())

        def derivatives(tau):
            return fd, ad, SplitComplexMatrix.from_complex(
                -10.0 * coefficients(tau)[2].to_complex())

        return SylvesterConjugateProblem(
            m=p.m, n=p.n, coefficients=coefficients, derivatives=derivatives)

    @pytest.mark.parametrize("gamma", [GAMMA10, ComplexGain(10.0, 20.0)],
                             ids=["10", "10+20i"])
    def test_repeated_shifted_coefficients_of_moving_values(
            self, monkeypatch, gamma):
        # Steps group by their provider values, not by the shifted
        # coefficients: at gain 10 those repeat bitwise while C moves,
        # and each step still forms its own S, as at any other gain.
        sizes = []

        def counting(f, a):
            sizes.append(len(f))
            return real_operator(f, a)

        problem = self._decaying_c_problem()
        config = _config(gamma=gamma, epsilon=0.01, duration=1.0)
        monkeypatch.setattr(dznd.solvers, "real_operator", counting)
        trajectory = _assert_runs_as_one_shot_steps(
            problem, config, random_initial_state(problem, 8))
        assert trajectory.outcome is Outcome.COMPLETED
        assert trajectory.operator_factorizations == 1
        assert sizes[0] == config.step_count

    def test_repeated_shifted_coefficients_in_a_batch(self):
        problem = self._decaying_c_problem()
        initial = random_initial_state(problem, 8)
        configs = [_config(gamma=ComplexGain(gain), epsilon=0.01,
                           duration=1.0) for gain in (10.0, 5.0)]
        batch = run_batch(problem, configs, initial)
        for got, config in zip(batch, configs, strict=True):
            _assert_same_trajectory(got, run(problem, config, initial))


def _colliding_spectra_problem(size):
    """F = A = (2 + sin tau) I: F conj F = A conj A, so every gap of the
    Sylvester form is 0, and W, which maps every real Z to 0, is singular.
    Every step of a run takes the SVD pseudo-inverse of a new operator."""
    rng = np.random.default_rng(7)
    c0, c1 = (rng.normal(size=(size, size)) for _ in range(2))
    eye = np.eye(size)

    def coefficients(tau):
        f = SplitComplexMatrix.from_real((2.0 + math.sin(tau)) * eye)
        return f, f, SplitComplexMatrix.from_real(c0 + math.sin(tau) * c1)

    def derivatives(tau):
        d = SplitComplexMatrix.from_real(math.cos(tau) * eye)
        return d, d, SplitComplexMatrix.from_real(math.cos(tau) * c1)

    return SylvesterConjugateProblem(m=size, n=size, coefficients=coefficients,
                                     derivatives=derivatives)


def test_structured_run_keeps_one_operators_factors():
    # The W^+ of each step's operator (128 KB at 8x8) is dropped when the
    # next step starts another operator: a run's peak memory hardly grows
    # with its steps, all inside one block.
    problem = _colliding_spectra_problem(8)
    peaks = []
    for steps in (20, 200):
        config = _config(epsilon=0.01, duration=0.01 * steps)
        tracemalloc.start()
        try:
            trajectory = run(problem, config, random_initial_state(problem, 3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trajectory.outcome is Outcome.COMPLETED
        assert trajectory.pinv_fallback_steps == steps
        assert trajectory.operator_factorizations == steps
    assert steps < block_records(problem.m, problem.n)
    assert peaks[1] - peaks[0] < 8 * 2**20


@pytest.mark.parametrize("factory,model,gamma", [
    (example1, Model.DZND1_2I, GAMMA10),
    (example2, Model.DZND2_2I, GAMMA10),
    (example2, Model.DZND1_2I, ComplexGain(10.0, 20.0)),
])
def test_long_dense_run_follows_the_step_oracle(factory, model, gamma):
    # 2,000 steps span 8 blocks of the lifted dense step.  The oracle
    # steps x <- x + epsilon pinv(W_k) stack(G_k(X)) from the Kronecker
    # form of W, one step at a time; every record agrees within 1e-12
    # relative (measured: at most 3.5e-15).  The three cases take about
    # 1.4 s, some 5% of the suite.
    problem = factory()
    config = _config(model=model, gamma=gamma, epsilon=0.005, duration=10.0)
    initial = random_initial_state(problem, 7)
    trajectory = run(problem, config, initial)
    assert trajectory.outcome is Outcome.COMPLETED
    assert len(trajectory) > 7 * BLOCK_RECORDS
    want = euler_step_oracle(problem, complex(gamma.re, gamma.im),
                             config.epsilon, initial.x0.to_complex(),
                             config.step_count)
    deviation = np.linalg.norm(trajectory.states - want, axis=1)
    assert (deviation <= 1e-12 * np.linalg.norm(want, axis=1)).all()


class TestOverflowingOperator:
    """F and A finite whose W overflows, F[t, t] - A[t, t] = 2e308 on the
    diagonal: a run ends DIVERGED at its first non-finite record, with
    no exception and no warning, on the dense path (1x1) and the
    structured path (6x6)."""

    @staticmethod
    def _problem(size):
        eye = np.eye(size)
        zero = SplitComplexMatrix.from_real(np.zeros((size, size)))
        coefficients = (SplitComplexMatrix.from_real(1e308 * eye),
                        SplitComplexMatrix.from_real(-1e308 * eye),
                        SplitComplexMatrix.from_real(np.ones((size, size))))
        return SylvesterConjugateProblem(
            m=size, n=size, coefficients=lambda tau: coefficients,
            derivatives=lambda tau: (zero, zero, zero))

    @pytest.mark.parametrize("size", [1, 6])
    @pytest.mark.parametrize("start", ["random", "zero"])
    def test_run_ends_diverged(self, size, start):
        # From a random state ||E|| overflows at record 0; from zero,
        # E = -C is finite and the first step makes the state nan.
        problem = self._problem(size)
        initial = random_initial_state(problem, 42)
        if start == "zero":
            initial = InitialState(
                SplitComplexMatrix.from_real(np.zeros((size, size))), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trajectory = run(problem, _config(), initial)
        assert trajectory.outcome is Outcome.DIVERGED
        assert trajectory.diverged_at == (0 if start == "random" else 1)
        assert not _finite(trajectory)[-1]
        assert _finite(trajectory)[:-1].all()
        assert trajectory.pinv_fallback_steps == 0
        assert trajectory.structured_solve_steps == 0


class TestNorms:
    """The batched ||Z||_F of each matrix of a stack equals a per-matrix
    np.linalg.norm bitwise."""

    @staticmethod
    def _assert_bitwise(z):
        with np.errstate(over="ignore"):
            want = np.array([np.linalg.norm(w) for w in z])
        # Where the per-matrix norm overflows it warns; frobenius_norms
        # does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = frobenius_norms(z)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_equals_per_matrix_norms(self, scale):
        rng = np.random.default_rng(7)
        for entries in range(1, 32):
            rows = max(r for r in range(1, 6) if entries % r == 0)
            shape = (64, rows, entries // rows)
            self._assert_bitwise(scale * (rng.normal(size=shape)
                                          + 1j * rng.normal(size=shape)))

    def test_zero_inf_and_nan_entries(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(6, 3, 2)) + 1j * rng.normal(size=(6, 3, 2))
        z[0] = 0.0
        z[1, 0, 1] = complex(np.inf, 0.0)
        z[2, 2, 0] = complex(0.0, -np.inf)
        z[3, 1, 1] = complex(np.nan, 1.0)
        z[4, 0, 0] = complex(np.inf, np.nan)
        z[5] = 1e200  # squares overflow
        self._assert_bitwise(z)


_TRAJECTORY_ARRAYS = ("steps", "taus", "states", "equation_residuals",
                      "solution_errors")
_TRAJECTORY_SCALARS = ("outcome", "diverged_at", "pinv_fallback_steps",
                       "structured_solve_steps", "operator_factorizations")


def _assert_same_trajectory(got, want):
    """Every field of two trajectories equal, arrays to the last bit."""
    for name in _TRAJECTORY_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    for name in _TRAJECTORY_SCALARS:
        assert getattr(got, name) == getattr(want, name), name


class TestRunBatch:
    """run_batch integrates the runs of configs that share epsilon,
    duration and the pinv tolerance in lockstep; each member equals its
    own run() to the last bit, with the same counts."""

    def test_members_equal_their_own_runs_property(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # Real and complex gains; at epsilon 0.1 and 0.05 the complex ones
        # and the large real one diverge, growing the residual by 1.1 to
        # 3.5 per step, so thresholds of up to 10^6 times the first
        # residual stop the members at different records.
        gains = st.sampled_from([
            ComplexGain(10.0), ComplexGain(3.0), ComplexGain(45.0),
            ComplexGain(10.0, 20.0), ComplexGain(5.0, -30.0),
        ])
        members = st.lists(
            st.tuples(gains, st.floats(min_value=-0.5, max_value=6.0)),
            min_size=1, max_size=3,
        )
        # m and n from 1 to 6; half the draws are 6x6 (mn = 36), which
        # takes the structured solve.
        shapes = st.one_of(st.just((6, 6)),
                           st.tuples(st.integers(1, 6), st.integers(1, 6)))

        # Blocks of 2 to 7 records put the stops in different blocks.
        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            shapes, st.integers(0, 2**16), st.sampled_from([0.1, 0.05]),
            st.integers(1, 20), members, st.integers(2, 7),
        )
        def check(shape, seed, epsilon, steps, drawn, block):
            monkeypatch.setattr(dznd.solvers, "BLOCK_RECORDS", block)
            problem = make_shifted_trig_problem(*shape, seed)
            initial = random_initial_state(problem, seed)
            first = residual_oracle(problem, initial.x0, 0.0)
            configs = [
                _config(model=Model.DZND2_2I if gain.is_real and seed % 2
                        else Model.DZND1_2I, gamma=gain, epsilon=epsilon,
                        duration=epsilon * steps,
                        divergence_threshold=first * 10.0**exponent)
                for gain, exponent in drawn
            ]
            batch = run_batch(problem, configs, initial)
            assert len(batch) == len(configs)
            for got, config in zip(batch, configs, strict=True):
                _assert_same_trajectory(got, run(problem, config, initial))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check()

    def test_members_stop_in_different_blocks(self, monkeypatch):
        # At gain 10+20i and epsilon 0.1 the residual doubles each step;
        # with blocks of 4 records the three thresholds stop the members
        # in the first, second and fourth block, and the real gain
        # completes.
        monkeypatch.setattr(dznd.solvers, "BLOCK_RECORDS", 4)
        problem = example2()
        initial = random_initial_state(problem, 3)
        configs = [
            _config(gamma=ComplexGain(10.0, 20.0), duration=2.0,
                    divergence_threshold=threshold)
            for threshold in (1e2, 1e3, 1e5)
        ] + [_config(duration=2.0)]
        batch = run_batch(problem, configs, initial)
        for got, config in zip(batch, configs, strict=True):
            _assert_same_trajectory(got, run(problem, config, initial))
        stops = [t.diverged_at for t in batch]
        assert stops[-1] is None
        assert len({stop // 4 for stop in stops[:-1]}) == 3

    @pytest.mark.parametrize("m,n,seed", [(1, 1, 0), (3, 1, 0), (1, 3, 2)])
    def test_one_step_with_one_entry_coefficients(self, m, n, seed):
        # One step of a problem with n = 1 (or m = 1): a member's F (or
        # A) is one complex entry, and numpy rounds a product of one
        # entry differently from one of several.  A member's shifted
        # coefficients must not depend on how many members there are.
        problem = make_shifted_trig_problem(m, n, seed)
        initial = random_initial_state(problem, seed)
        configs = [_config(gamma=gain, duration=0.1)
                   for gain in (GAMMA10, ComplexGain(10.0, 20.0))]
        batch = run_batch(problem, configs, initial)
        for got, config in zip(batch, configs, strict=True):
            _assert_same_trajectory(got, run(problem, config, initial))

    def test_run_is_a_batch_of_one(self):
        problem = example1()
        config = _config(gamma=ComplexGain(10.0, 20.0), epsilon=0.01)
        initial = random_initial_state(problem, 4)
        [trajectory] = run_batch(problem, [config], initial)
        _assert_same_trajectory(trajectory, run(problem, config, initial))

    def test_members_share_the_providers(self):
        p = example2()
        calls = {"coefficients": 0, "derivatives": 0,
                 "theoretical_solution": 0}

        def counting(name):
            def provider(tau):
                calls[name] += 1
                return getattr(p, name)(tau)
            return provider

        counted = dataclasses.replace(
            p, **{name: counting(name) for name in calls})
        configs = [_config(gamma=gain, duration=1.0) for gain in (
            GAMMA10, ComplexGain(5.0), ComplexGain(10.0, 20.0))]
        run_batch(counted, configs, random_initial_state(p, 42))
        assert calls == {"coefficients": 11, "derivatives": 10,
                         "theoretical_solution": 11}

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("m,n", [(2, 3), (6, 6)])
    def test_operators_are_found_once_per_block(self, monkeypatch, m, n,
                                                members):
        # Below and from the structured crossover up, a block's bits are
        # laid out and its operators tested for finiteness once, however
        # many members share it: 21 steps in blocks of 7 records take
        # three blocks with steps, and the last record a block of none.
        monkeypatch.setattr(dznd.solvers, "BLOCK_RECORDS", 7)
        calls = {"_bit_rows": 0, "_finite_operators": 0}

        def counting(name):
            original = getattr(dznd.assembly, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(dznd.assembly, name, counting(name))
        problem = make_shifted_trig_problem(m, n, 2)
        configs = [_config(gamma=gain, epsilon=0.01, duration=0.21)
                   for gain in (GAMMA10, ComplexGain(5.0),
                                ComplexGain(10.0, 20.0))[:members]]
        batch = run_batch(problem, configs, random_initial_state(problem, 2))
        assert all(t.outcome is Outcome.COMPLETED for t in batch)
        assert calls == {"_bit_rows": 3, "_finite_operators": 3}

    @pytest.mark.parametrize("other", [
        _config(epsilon=0.05),
        _config(duration=5.0),
        _config(pinv_tolerance=1e-10),
        _config(model=Model.DZND2_2I, gamma=ComplexGain(10.0, 20.0)),
        _config(epsilon=0.3),
    ], ids=["epsilon", "duration", "tolerance", "invalid-model-gain",
            "invalid-step-count"])
    def test_config_errors_come_before_any_provider_call(self, other):
        def refusing(tau):
            raise AssertionError("provider called")

        p = example2()
        problem = dataclasses.replace(
            p, coefficients=refusing, derivatives=refusing,
            theoretical_solution=refusing)
        initial = random_initial_state(p, 1)
        for configs in ([_config(), other], [other, _config()]):
            with pytest.raises(ConfigError):
                run_batch(problem, configs, initial)

    def test_empty_batch_is_a_config_error(self):
        p = example2()
        with pytest.raises(ConfigError, match="at least one member"):
            run_batch(p, [], random_initial_state(p, 1))


class TestRaisingBlock:
    """An exception raised in a block of a batch ends the members still
    running there; those that stopped before keep their trajectories,
    and run_batch raises the exception as it was raised."""

    def test_a_failing_provider_ends_the_running_members(self, monkeypatch):
        # With blocks of 4 records at epsilon 0.1, gain 10+20i passes the
        # threshold 1e2 in the first block; the second block's
        # derivatives raise at tau 0.5, where gain 10 is still running.
        monkeypatch.setattr(dznd.solvers, "BLOCK_RECORDS", 4)
        p = example2()

        def failing(tau):
            if tau >= 0.5:
                raise ValueError(f"no derivative at {tau}")
            return p.derivatives(tau)

        problem = dataclasses.replace(p, derivatives=failing)
        initial = random_initial_state(p, 3)
        configs = [_config(gamma=ComplexGain(10.0, 20.0), duration=2.0,
                           divergence_threshold=1e2),
                   _config(duration=2.0)]
        (stopped, running), error = dznd.solvers._run_batch(
            problem, configs, initial)
        assert running is None
        assert stopped.diverged_at < 4
        _assert_same_trajectory(stopped, run(problem, configs[0], initial))
        assert (type(error), str(error)) == (ValueError,
                                             "no derivative at 0.5")
        for batch in (configs, configs[1:]):
            with pytest.raises(ValueError, match="^no derivative at 0.5$"):
                run_batch(problem, batch, initial)

    def test_a_structured_member_that_stopped_first_keeps_its_records(
            self, monkeypatch):
        # From the crossover up the members step one after another: the
        # first stops in the block where the second's steps raise.
        advance = dznd.solvers._Block.advance_structured

        def raising(self, states, solver, gamma, *args):
            if gamma == 10.0:
                raise RuntimeError("solve failed")
            return advance(self, states, solver, gamma, *args)

        problem = make_shifted_trig_problem(6, 6, 2)
        initial = random_initial_state(problem, 2)
        first = residual_oracle(problem, initial.x0, 0.0)
        configs = [_config(gamma=ComplexGain(10.0, 20.0), duration=2.0,
                           divergence_threshold=first * 10.0),
                   _config(duration=2.0)]
        want = run(problem, configs[0], initial)
        monkeypatch.setattr(dznd.solvers._Block, "advance_structured",
                            raising)
        (stopped, running), error = dznd.solvers._run_batch(
            problem, configs, initial)
        assert running is None and isinstance(error, RuntimeError)
        assert stopped.outcome is Outcome.DIVERGED
        _assert_same_trajectory(stopped, want)
        with pytest.raises(RuntimeError, match="solve failed"):
            run_batch(problem, configs[::-1], initial)


def _with_solution(problem, seed):
    """``problem`` with an X*(tau) = X0 + sin(tau) X1 that need not solve
    it: the runs then record solution errors."""
    rng = np.random.default_rng(seed)
    x0, x1 = (random_split(rng, problem.m, problem.n).to_complex()
              for _ in range(2))
    return dataclasses.replace(problem, theoretical_solution=BlockProvider(
        lambda taus: x0 + np.sin(taus)[:, None, None] * x1))


def _mapped(problem, conjugate, scale):
    """``problem`` with F, A, C, their derivatives and X* conjugated (when
    ``conjugate``), and C, Cdot and X* times ``scale``, part by part."""
    def entry(z, scaled):
        z = np.conj(z) if conjugate else z
        if not scaled:
            return z
        return (np.ascontiguousarray(z).view(np.float64) * scale).view(
            np.complex128)

    def mapped(provider):
        return BlockProvider(lambda taus: tuple(
            entry(z, i == 2) for i, z in enumerate(provider.over(taus))))

    solution = problem.theoretical_solution
    return dataclasses.replace(
        problem, coefficients=mapped(problem.coefficients),
        derivatives=mapped(problem.derivatives),
        theoretical_solution=BlockProvider(
            lambda taus: entry(solution.over(taus), True)),
    )


class TestMetamorphicRelations:
    """Relations that follow from X F - A conj(X) = C and the drive alone,
    so they need no formula for X* and no second solver, and check both
    solve paths at sizes no oracle reaches.

    * Conjugation: conjugate F, A, C, their derivatives, X*, the start
      and the gain; every state comes out conjugated, and the residuals
      and solution errors are unchanged.
    * Scaling: scale C, Cdot, X*, the start and the divergence threshold
      by 2 or 1/2; the states, residuals and solution errors scale.

    Both hold to the last bit, for every member of a batch, as each
    rounding is symmetric under a sign flip and exact under a power of
    two."""

    @pytest.mark.parametrize("conjugate,scales", [
        (True, [1.0]), (False, [2.0, 0.5]),
    ], ids=["conjugation", "scaling"])
    def test_relation_property(self, conjugate, scales):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # Real and complex gains; at epsilon 0.1 the complex ones and
        # gain 45 diverge, so thresholds of up to 10^6 times the first
        # residual stop the members at different records.
        gains = st.sampled_from([
            GAMMA10, ComplexGain(45.0), ComplexGain(10.0, 20.0),
            ComplexGain(5.0, -30.0),
        ])
        members = st.lists(
            st.tuples(gains, st.floats(min_value=-0.5, max_value=6.0)),
            min_size=1, max_size=3,
        )

        # m and n from 1 to 8: the draws cross the structured crossover.
        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(
            st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**16),
            st.sampled_from([0.1, 0.01]), st.integers(1, 6), members,
            st.sampled_from(scales),
        )
        def check(m, n, seed, epsilon, steps, drawn, scale):
            problem = _with_solution(make_shifted_trig_problem(m, n, seed),
                                     seed)
            initial = random_initial_state(problem, seed)
            first = residual_oracle(problem, initial.x0, 0.0)
            configs = [
                _config(model=Model.DZND2_2I if gain.is_real and seed % 2
                        else Model.DZND1_2I, gamma=gain, epsilon=epsilon,
                        duration=epsilon * steps,
                        divergence_threshold=first * 10.0**exponent)
                for gain, exponent in drawn
            ]

            def flip(imaginary):
                return -imaginary if conjugate else imaginary

            x0 = initial.x0
            mapped = run_batch(
                _mapped(problem, conjugate, scale),
                [dataclasses.replace(
                    config,
                    gamma=ComplexGain(config.gamma.re, flip(config.gamma.im)),
                    divergence_threshold=config.divergence_threshold * scale)
                 for config in configs],
                InitialState(SplitComplexMatrix(
                    x0.re * scale, flip(x0.im) * scale), seed),
            )
            for got, want in zip(mapped, run_batch(problem, configs, initial),
                                 strict=True):
                states = want.states.copy()
                states[:, m * n:] = flip(states[:, m * n:])
                _assert_same_trajectory(got, dataclasses.replace(
                    want, states=states * scale,
                    equation_residuals=want.equation_residuals * scale,
                    solution_errors=want.solution_errors * scale))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check()


def test_block_records_cap_the_block_stacks():
    # The registered problems (3x2, 2x2) and the benchmark's 12x8 take
    # full blocks.  Below the crossover a block holds W^+, [R | -c], the
    # lifted step matrix and the lifted state, (2mn)^2 + 2 (2mn + 1)^2
    # floats per record besides the provider stacks; from it up it holds
    # P and Q, 16 (n^2 + m^2) bytes a record, and sets aside a window of
    # REUSE_WINDOW Sylvester forms, 16 (n^2 + m^2 + mn) bytes each.
    for m, n in [(3, 2), (2, 2), (12, 8), (6, 6)]:
        assert block_records(m, n) == BLOCK_RECORDS
    assert block_records(31, 1) == BLOCK_BYTES // (
        16 * (2 + 2 * 31**2 + 3 * 31) + 8 * (62**2 + 2 * 63**2)) == 66
    for size, records in [(16, 224), (64, 11)]:
        window = REUSE_WINDOW * 16 * 3 * size**2
        assert block_records(size, size) == (BLOCK_BYTES - window) // (
            16 * 9 * size**2) == records
    assert block_records(2048, 2048) == 1


def test_running_both_models_does_not_import_scipy():
    # scipy's import cost would show in the benchmark's set-up time and
    # peak memory.  The shifted 6x6 trig run takes the structured solve.
    code = (
        "import sys, dznd\n"
        "from helpers import make_shifted_trig_problem\n"
        "for p in (dznd.example2(), make_shifted_trig_problem(6, 6, 0)):\n"
        "    for model in dznd.Model:\n"
        "        c = dznd.SolverConfig(model=model, gamma=dznd.ComplexGain(10.0),\n"
        "                              epsilon=0.1, duration=0.1)\n"
        "        t = dznd.run(p, c, dznd.random_initial_state(p, 0))\n"
        "        assert len(t) == 2\n"
        "        assert t.structured_solve_steps == (p.m * p.n >= 32)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(dznd.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestTailHelpers:
    def test_tail_max_values(self):
        problem = example2()
        trajectory = run(problem, _config(epsilon=0.1),
                         random_initial_state(problem, 42))
        full = trajectory.equation_residuals.max()
        assert tail_max_equation_residual(trajectory, 0.0) == full
        tail = tail_max_equation_residual(trajectory, 5.0)
        assert tail <= full
        assert tail_max_solution_error(trajectory, 5.0) > 0.0

    def test_empty_window_returns_nan(self):
        problem = example2()
        trajectory = run(problem, _config(epsilon=0.1),
                         random_initial_state(problem, 42))
        assert math.isnan(tail_max_equation_residual(trajectory, 99.0))


def test_initial_state_projection_is_shared_between_models():
    # one random draw feeds both models through the same state layout
    problem = example2()
    initial = random_initial_state(problem, 7)
    assert isinstance(initial, InitialState)
    state = state_from_matrix(initial.x0)
    run1 = run(problem, _config(model=Model.DZND1_2I), initial)
    run2 = run(problem, _config(model=Model.DZND2_2I), initial)
    np.testing.assert_array_equal(run1.states[0], state)
    np.testing.assert_array_equal(run2.states[0], state)

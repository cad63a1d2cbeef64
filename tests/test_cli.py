import csv
import dataclasses
import math
import warnings

import pytest

import dznd.cli
import dznd.reporting
import dznd.solvers
from dznd import (
    ComplexGain,
    Model,
    SolverConfig,
    example2,
    random_initial_state,
    run,
)
from dznd.cli import _MODEL_NAMES as MODEL_NAMES, main
from dznd.reporting import run_sweep
from dznd.verify import GroupResult
from helpers import make_shifted_trig_problem


def _run_args(out, problem="example2", model="dznd1-2i", gamma="10",
              epsilon="0.1", extra=()):
    return [
        "run", "--problem", problem, "--model", model, "--gamma", gamma,
        "--epsilon", epsilon, "--out", str(out), *extra,
    ]


class TestRunCommand:
    def test_completed_run_writes_outputs(self, tmp_path, capsys):
        code = main(_run_args(tmp_path))
        assert code == 0
        assert "COMPLETED" in capsys.readouterr().out

        csv_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 101  # header + k+1 records
        header = csv_lines[0].split(",")
        assert header[:4] == ["step", "tau", "equation_residual", "solution_error"]
        assert "x_re_1_1" in header and "x_im_2_2" in header
        assert csv_lines[1].startswith("0,0.0,")

        summary = (tmp_path / "summary.txt").read_text()
        for needle in ("outcome: COMPLETED", "k: 100", "epsilon: 0.1",
                       "gamma: 10.0", "seed: 42", "pinv_fallback_steps: 0",
                       "structured_solve_steps: 0",
                       "operator_factorizations: 100",
                       "scalar_error_modulus"):
            assert needle in summary

        svg = (tmp_path / "residual.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_rerun_is_byte_identical(self, tmp_path):
        args = _run_args(tmp_path)
        main(args)
        first = (tmp_path / "trajectory.csv").read_bytes()
        main(args)
        second = (tmp_path / "trajectory.csv").read_bytes()
        assert first == second

    def test_diverged_run_exits_nonzero_and_is_flagged(self, tmp_path):
        code = main(_run_args(tmp_path, gamma="10+20i"))
        assert code == 3
        summary = (tmp_path / "summary.txt").read_text()
        assert "outcome: DIVERGED" in summary
        assert "diverged_at_step" in summary
        assert "predicts divergence" in summary

    def test_non_integral_step_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(tmp_path, epsilon="0.3"))
        assert exc.value.code == 2

    def test_unknown_problem_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(tmp_path, problem="example9"))
        assert exc.value.code == 2

    def test_unknown_model_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(tmp_path, model="dznd9"))
        assert exc.value.code == 2

    def test_bad_gamma_text_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(tmp_path, gamma="ten"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma,expected_code", [
        ("5", 0), ("10-20i", 3), ("10+20i", 3),
    ])
    def test_gamma_text_forms(self, tmp_path, gamma, expected_code):
        assert main(_run_args(tmp_path, gamma=gamma)) == expected_code

    def test_dznd2_complex_gamma_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(_run_args(tmp_path, model="dznd2-2i", gamma="10+20i"))
        assert exc.value.code == 2


class TestSweepCommand:
    def test_grid_outputs_and_fit(self, tmp_path, capsys):
        code = main([
            "sweep", "--problem", "example2", "--gamma", "10",
            "--epsilon", "0.1", "--epsilon", "0.05", "--epsilon", "0.01",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("epsilon,gamma,model,outcome")
        assert len(lines) == 1 + 6  # both models x 3 step sizes
        # rows sorted by (model, gamma, epsilon)
        assert [l.split(",")[2] for l in lines[1:]] == (
            ["dznd1-2i"] * 3 + ["dznd2-2i"] * 3
        )
        report = (tmp_path / "order_report.txt").read_text()
        assert "slope(equation)" in report
        assert "n/a" not in report.splitlines()[4]
        assert "order fit" in capsys.readouterr().out

    def test_single_point_grid_has_no_fit(self, tmp_path):
        code = main([
            "sweep", "--problem", "example2", "--model", "dznd1-2i",
            "--epsilon", "0.1", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2
        assert "n/a" in (tmp_path / "order_report.txt").read_text()

    def test_divergent_rows_do_not_abort(self, tmp_path):
        code = main([
            "sweep", "--problem", "example2", "--model", "dznd1-2i",
            "--gamma", "10+20i", "--gamma", "10-20i",
            "--epsilon", "0.1", "--out", str(tmp_path),
        ])
        assert code == 0
        body = (tmp_path / "sweep.csv").read_text()
        assert body.count("DIVERGED") == 2

    def test_bad_epsilon_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilon", "0.3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_real_gain_rows_are_shared_between_models(self, tmp_path):
        code = main([
            "sweep", "--problem", "example2", "--model", "dznd1-2i",
            "--model", "dznd2-2i", "--gamma", "10", "--epsilon", "0.1",
            "--epsilon", "0.05", "--epsilon", "0.01", "--out", str(tmp_path),
        ])
        assert code == 0
        with (tmp_path / "sweep.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        by_model = {model: [{k: v for k, v in row.items() if k != "model"}
                            for row in rows if row["model"] == model]
                    for model in ("dznd1-2i", "dznd2-2i")}
        assert len(by_model["dznd1-2i"]) == 3
        assert by_model["dznd2-2i"] == by_model["dznd1-2i"]

    def test_each_real_gain_point_is_integrated_once(self):
        p = example2()
        calls = []
        counted = dataclasses.replace(
            p, derivatives=lambda tau: calls.append(tau) or p.derivatives(tau)
        )
        report = run_sweep(counted, "example2", list(Model),
                           [ComplexGain(10.0)], [0.1, 0.05], duration=1.0)
        assert len(report.rows) == 4
        # One derivative evaluation per step: 10 steps at 0.1 and 20 at
        # 0.05, integrated once for both models.
        assert len(calls) == 10 + 20

    def test_each_epsilon_is_integrated_as_one_batch(self):
        p = example2()
        calls = []
        counted = dataclasses.replace(
            p, derivatives=lambda tau: calls.append(tau) or p.derivatives(tau)
        )
        report = run_sweep(counted, "example2", list(Model),
                           [ComplexGain(10.0), ComplexGain(10.0, 20.0)],
                           [0.1, 0.05], duration=1.0)
        assert len(report.rows) == 8
        # Both gains at one epsilon share one derivative evaluation per
        # step: 10 steps at 0.1 and 20 at 0.05.
        assert len(calls) == 10 + 20

    def test_a_failing_batch_fails_only_its_epsilon(self):
        p = example2()

        def failing(tau):
            # Of the two step sizes, only 0.05 reaches odd multiples of it.
            if round(tau / 0.05) % 2:
                raise ValueError("no derivative")
            return p.derivatives(tau)

        gains = [ComplexGain(10.0), ComplexGain(10.0, 20.0)]
        report = run_sweep(dataclasses.replace(p, derivatives=failing),
                           "example2", [Model.DZND1_2I], gains, [0.1, 0.05],
                           duration=1.0)
        outcomes = {(row.gamma, row.epsilon): (row.outcome, row.steps)
                    for row in report.rows}
        assert outcomes == {
            **{(gain, 0.1): ("COMPLETED", 11) for gain in gains},
            **{(gain, 0.05): ("ERROR(ValueError)", 0) for gain in gains},
        }

    def test_a_run_that_stops_before_a_failure_keeps_its_outcome(self):
        # At epsilon 0.001 gain 2500 diverges at record 59, in the first
        # block; gain 10 goes on into the blocks whose derivatives raise.
        p = example2()

        def failing(tau):
            if tau >= 0.5:
                raise ValueError("no derivative")
            return p.derivatives(tau)

        report = run_sweep(dataclasses.replace(p, derivatives=failing),
                           "example2", [Model.DZND1_2I],
                           [ComplexGain(10.0), ComplexGain(2500.0)], [0.001],
                           duration=1.0)
        assert [(row.gamma, row.outcome, row.steps) for row in report.rows] == [
            (ComplexGain(10.0), "ERROR(ValueError)", 0),
            (ComplexGain(2500.0), "DIVERGED", 60),
        ]

    def test_a_row_does_not_depend_on_the_grid(self):
        # On shifted trig 4x4 at epsilon 0.01, gain 10+60i passes the
        # threshold at record 38, and the derivatives raise from tau 1.5,
        # in the same block of a run of that gain alone: the run raises.
        # Every batch member takes a run's blocks, so the row reads so
        # whatever gains share its epsilon.
        p = make_shifted_trig_problem(4, 4, 3)

        def failing(tau):
            if tau >= 1.5:
                raise ValueError("no derivative")
            return p.derivatives(tau)

        problem = dataclasses.replace(p, derivatives=failing)
        gain = ComplexGain(10.0, 60.0)
        config = SolverConfig(model=Model.DZND1_2I, gamma=gain, epsilon=0.01,
                              duration=2.0, divergence_threshold=1e3)
        with pytest.raises(ValueError, match="no derivative"):
            run(problem, config, random_initial_state(problem, 42))
        gains = [gain, ComplexGain(10.0), ComplexGain(5.0), ComplexGain(20.0)]
        for count in range(1, len(gains) + 1):
            report = run_sweep(problem, "trig", [Model.DZND1_2I],
                               gains[:count], [0.01], duration=2.0, seed=42,
                               divergence_threshold=1e3)
            row, = (row for row in report.rows if row.gamma == gain)
            assert (row.outcome, row.steps) == ("ERROR(ValueError)", 0)

    def test_initial_state_is_drawn_once_per_sweep(self, monkeypatch):
        draws = []

        def drawing(problem, seed):
            draws.append(seed)
            return random_initial_state(problem, seed)

        monkeypatch.setattr(dznd.reporting, "random_initial_state", drawing)
        report = run_sweep(example2(), "example2", [Model.DZND1_2I],
                           [ComplexGain(10.0), ComplexGain(10.0, 20.0)],
                           [0.1, 0.05], duration=1.0, seed=5)
        assert len(report.rows) == 4
        assert draws == [5]

    def test_failed_draw_fails_every_row(self, monkeypatch):
        def failing(problem, seed):
            raise ValueError("no state")

        monkeypatch.setattr(dznd.reporting, "random_initial_state", failing)
        report = run_sweep(example2(), "example2", list(Model),
                           [ComplexGain(10.0)], [0.1, 0.05], duration=1.0)
        assert [row.outcome for row in report.rows] == ["ERROR(ValueError)"] * 4
        assert [row.steps for row in report.rows] == [0] * 4

    def test_a_warning_only_a_batch_raises_reaches_its_rows(self,
                                                            monkeypatch):
        # A RuntimeWarning made an error that only a lockstep batch of
        # more than one member raises ends the batch's members: their
        # rows read ERROR(RuntimeWarning), not the outcome of a run of
        # one that would not warn.
        advance_dense = dznd.solvers._Block.advance_dense

        def warning(self, *args):
            # The gains are the last argument but the step size.
            if len(args[-2]) > 1:
                warnings.warn("batch of several members", RuntimeWarning)
            return advance_dense(self, *args)

        monkeypatch.setattr(dznd.solvers._Block, "advance_dense", warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_sweep(example2(), "example2", [Model.DZND1_2I],
                               [ComplexGain(10.0), ComplexGain(10.0, 20.0)],
                               [0.1], duration=1.0)
        assert [(row.outcome, row.steps) for row in report.rows] == [
            ("ERROR(RuntimeWarning)", 0)] * 2

    def test_an_invalid_config_is_a_row_without_a_run(self, monkeypatch):
        # dznd2-2i at a complex gain cannot run: its row is reported
        # without a batch of its own, beside the batch of the others.
        batches = []
        run_batch = dznd.reporting._run_batch

        def counting(problem, configs, initial):
            batches.append(len(configs))
            return run_batch(problem, configs, initial)

        monkeypatch.setattr(dznd.reporting, "_run_batch", counting)
        report = run_sweep(example2(), "example2", list(Model),
                           [ComplexGain(10.0), ComplexGain(10.0, 20.0)],
                           [0.1], duration=1.0)
        outcomes = {(row.model, row.gamma): row.outcome
                    for row in report.rows}
        assert outcomes[Model.DZND2_2I, ComplexGain(10.0, 20.0)] == (
            "ERROR(ConfigError)")
        assert list(outcomes.values()).count("COMPLETED") == 3
        assert batches == [2]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag,value", [
    ("--duration", "inf"), ("--gamma", "1e400"), ("--pinv-tolerance", "nan"),
    ("--seed", "-1"), ("--duration", "1e9"),
])
def test_non_finite_input_is_usage_error(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--epsilon", "0.1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_any_arguments_end_in_an_exit_code_property(tmp_path, command):
    # Any argument text ends in an exit code: 0 or 3 for run (completed
    # or diverged), 0 for sweep (whose failures are rows), or the usage
    # error SystemExit(2); nothing else escapes.  The runtime is bounded
    # by drawing a step count k of at most 50 and passing duration
    # k * epsilon.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def mostly(valid, odd):
        """Four draws in five from ``valid``, so that most examples run."""
        return st.integers(0, 4).flatmap(lambda i: odd if i == 4 else valid)

    def floats(*valid, odd=()):
        return mostly(st.sampled_from(valid), st.one_of(
            st.sampled_from(["x", "", "1e400", "nan", "inf", "-inf", *odd]),
            st.floats().map(repr)))

    gammas = mostly(
        st.one_of(
            st.sampled_from(["10", "0.5", "10+20i", "3-4i", "45", "1e300",
                             "1e300+1e300i", "1e-300"]),
            st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e6).map(
                lambda z: f"{abs(z.real)!r}{z.imag:+}i")),
        st.one_of(
            st.sampled_from(["ten", "", "1+", "i", "nan", "inf", "1e400",
                             "1e400i", "nan+1i", "-2", "0"]),
            st.complex_numbers(allow_nan=True, allow_infinity=True).map(
                lambda z: f"{z.real!r}{z.imag:+}i")),
    )
    epsilons = mostly(
        st.one_of(st.sampled_from([0.1, 0.05, 0.01, 1e-6]),
                  st.floats(min_value=1e-6, max_value=0.99)),
        st.sampled_from([0.0, -0.1, 1.0, 2.0, 1e-300, math.nan, math.inf]),
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        mostly(st.sampled_from(["example2", "example1"]),
               st.just("example9")),
        mostly(st.sampled_from(MODEL_NAMES), st.sampled_from(["dznd9", ""])),
        st.lists(gammas, min_size=1, max_size=2),
        epsilons,
        st.integers(1, 50),
        floats("1e12", "1e3", "1e-300", odd=("0", "-1")),
        st.one_of(st.none(), floats("1e-10", "0", "0.5", odd=("-1",))),
        mostly(st.integers(0, 2**70).map(str),
               st.sampled_from(["-1", "", "x", "1.5", "1e3"])),
    )
    def check(problem, model, gamma_texts, epsilon, k, threshold,
              tolerance, seed):
        args = [command, f"--problem={problem}", f"--model={model}",
                f"--epsilon={epsilon!r}", f"--duration={k * epsilon!r}",
                f"--divergence-threshold={threshold}", f"--seed={seed}",
                f"--out={tmp_path}"]
        args += [f"--gamma={gamma}"
                 for gamma in gamma_texts[:1 if command == "run" else 2]]
        if tolerance is not None:
            args.append(f"--pinv-tolerance={tolerance}")
        try:
            code = main(args)
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert code in ((0, 3) if command == "run" else (0,))

    check()


class TestVerifyCommand:
    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_fresh_checkout_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for group in ("kron-vec identity", "Penrose", "theoretical-solution",
                      "zero-stability", "modulus"):
            assert group in out
        assert "roots [1.0]" in out
        assert "modulus=2.000000" in out

    def test_failing_group_exits_1(self, monkeypatch, capsys):
        failing = GroupResult("kron-vec identity", False, ["max deviation 1"])
        monkeypatch.setattr(dznd.cli, "run_verification",
                            lambda seed: [failing])
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL kron-vec identity" in out
        assert "max deviation 1" in out

"""Release acceptance gate.

One test per criterion; each prints a verdict line with measured values
(run with ``pytest -s tests/test_acceptance.py`` to see them) and then
asserts.

Criteria 3 and 4 check the step-size law of the Euler-forward schemes.
Both models drive the equation error E = X F - A conj(X) - C along
dE/dt = -gamma E (dznd2-2i writes the same drive over the reals), so one
Euler-forward step of size tau gives

    E_{k+1} = (1 - tau*gamma) E_k + O(tau^2),

and the steady-state residual is |E| ~ O(tau^2) / (tau*gamma) = O(tau/gamma).
At a fixed gain it is first order in the step size; with h = tau*gamma
held fixed it is second order.  Criterion 4 asserts both regimes;
criterion 3 bounds the gain-10 tails by the first-order law.
"""

import time

import numpy as np
import pytest

from dznd import (
    ComplexGain,
    Model,
    Outcome,
    SolverConfig,
    get_problem,
    random_initial_state,
    run,
    tail_max_equation_residual,
)
from dznd.cli import main as cli_main
from dznd.verify import (
    check_kron_vec_identity,
    check_penrose_conditions,
    check_scalar_modulus_table,
    check_theoretical_solutions,
    check_zero_stability,
)

GAMMA10 = ComplexGain(10.0)


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


@pytest.fixture(scope="module")
def gain10_grid():
    """All gamma=10 runs shared by criteria 3 and 4."""
    started = time.perf_counter()
    runs = {}
    for name, epsilons in (("example1", (0.001,)),
                           ("example2", (0.1, 0.01, 0.001))):
        problem = get_problem(name)
        initial = random_initial_state(problem, 42)
        for model in Model:
            for epsilon in epsilons:
                config = SolverConfig(model=model, gamma=GAMMA10, epsilon=epsilon)
                runs[(name, model, epsilon)] = run(problem, config, initial)
    return runs, time.perf_counter() - started


FIXED_H_GRID = ((0.1, 1.0), (0.01, 10.0), (0.001, 100.0))


@pytest.fixture(scope="module")
def fixed_h_grid():
    """The example2 runs at h = epsilon*gamma = 0.1 not already in gain10_grid.

    Timed on their own so that criterion 3's gate keeps measuring only the
    gamma=10 grid.
    """
    started = time.perf_counter()
    runs = {}
    problem = get_problem("example2")
    initial = random_initial_state(problem, 42)
    for model in Model:
        for epsilon, gamma in FIXED_H_GRID:
            if gamma == 10.0:
                continue
            config = SolverConfig(model=model, gamma=ComplexGain(gamma),
                                  epsilon=epsilon)
            runs[(model, epsilon)] = run(problem, config, initial)
    return runs, time.perf_counter() - started


def test_criterion_1_theoretical_solution_residuals():
    started = time.perf_counter()
    result = check_theoretical_solutions()
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 1.0
    detail = "; ".join(result.details) + f"; {elapsed:.2f}s (<1s)"
    assert _verdict(1, ok, detail), detail


def test_criterion_2_kron_vec_identity():
    started = time.perf_counter()
    result = check_kron_vec_identity(seed=2024)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 5.0
    detail = "; ".join(result.details) + f"; {elapsed:.2f}s (<5s)"
    assert _verdict(2, ok, detail), detail


def test_criterion_3_convergence_at_gain_10(gain10_grid):
    runs, build_seconds = gain10_grid
    started = time.perf_counter()
    # The steady-state tail is first order in the step size at a fixed gain
    # (tail ~ const * epsilon / gamma), so the example2 bound at
    # epsilon=0.001 is the epsilon=0.1 bound scaled by the first-order law:
    # 1e-1 * (0.001 / 0.1) = 1e-3.  It was 1e-4, the quadratic scaling of
    # 1e-1 with 10x slack, which the one-step scheme does not promise at a
    # fixed gain.
    cases = []
    for model in Model:
        cases.append(("example2", model, 0.001, 1e-3))
        cases.append(("example2", model, 0.1, 1e-1))
        cases.append(("example1", model, 0.001, 1e-8))
    measurements = []
    ok = True
    for name, model, epsilon, bound in cases:
        trajectory = runs[(name, model, epsilon)]
        tail = tail_max_equation_residual(trajectory, 5.0)
        completed = trajectory.outcome is Outcome.COMPLETED
        passed = completed and tail <= bound
        ok = ok and passed
        measurements.append(
            f"{name}/{model.value}@eps={epsilon:g}: tail={tail:.3e} "
            f"(bound {bound:g}){'' if passed else ' <-FAIL'}"
        )
    elapsed = build_seconds + (time.perf_counter() - started)
    ok = ok and elapsed < 30.0
    detail = "; ".join(measurements) + f"; {elapsed:.1f}s (<30s)"
    assert _verdict(3, ok, detail), detail


def test_criterion_4_order_of_steady_state_residual(gain10_grid, fixed_h_grid):
    # Log-log slope of the example2 tail against epsilon in both regimes of
    # tail ~ epsilon / gamma: first order at the fixed gain 10, second order
    # at the fixed h = epsilon*gamma = 0.1 (gamma = 1, 10, 100).
    runs, build_seconds = gain10_grid
    h_runs, h_build_seconds = fixed_h_grid
    started = time.perf_counter()
    epsilons = tuple(eps for eps, _ in FIXED_H_GRID)

    def slope(trajectories):
        tails = [tail_max_equation_residual(t, 5.0) for t in trajectories]
        return float(np.polyfit(np.log(epsilons), np.log(tails), 1)[0])

    fixed_gain = {}
    fixed_h = {}
    for model in Model:
        fixed_gain[model] = slope(
            [runs[("example2", model, eps)] for eps in epsilons]
        )
        fixed_h[model] = slope([
            runs[("example2", model, eps)] if gamma == 10.0
            else h_runs[(model, eps)]
            for eps, gamma in FIXED_H_GRID
        ])
    elapsed = build_seconds + h_build_seconds + (time.perf_counter() - started)
    ok = (
        all(0.7 <= s <= 1.3 for s in fixed_gain.values())
        and all(1.7 <= s <= 2.3 for s in fixed_h.values())
        and elapsed < 120.0
    )
    detail = (
        f"log-log slope at gamma=10: dznd1-2i={fixed_gain[Model.DZND1_2I]:.3f}, "
        f"dznd2-2i={fixed_gain[Model.DZND2_2I]:.3f} (window [0.7, 1.3]); "
        f"at h=0.1: dznd1-2i={fixed_h[Model.DZND1_2I]:.3f}, "
        f"dznd2-2i={fixed_h[Model.DZND2_2I]:.3f} (window [1.7, 2.3]); "
        f"{elapsed:.1f}s (<2min)"
    )
    assert _verdict(4, ok, detail), detail


def test_criterion_5_complex_gain_dichotomy(gain10_grid):
    runs, _ = gain10_grid
    started = time.perf_counter()
    gains = (ComplexGain(10.0, 20.0), ComplexGain(10.0, -20.0))
    table = check_scalar_modulus_table()
    measurements = list(table.details)
    ok = table.passed

    for name in ("example1", "example2"):
        problem = get_problem(name)
        initial = random_initial_state(problem, 42)
        baseline = tail_max_equation_residual(
            runs[(name, Model.DZND1_2I, 0.001)], 5.0
        )
        for gain in gains:
            coarse = run(
                problem,
                SolverConfig(model=Model.DZND1_2I, gamma=gain, epsilon=0.1),
                initial,
            )
            diverged = coarse.outcome is Outcome.DIVERGED
            fine = run(
                problem,
                SolverConfig(model=Model.DZND1_2I, gamma=gain, epsilon=0.001),
                initial,
            )
            completed = fine.outcome is Outcome.COMPLETED
            tail = tail_max_equation_residual(fine, 5.0)
            ratio = tail / baseline
            in_band = 0.1 <= ratio <= 10.0
            ok = ok and diverged and completed and in_band
            measurements.append(
                f"{name}/gamma={gain}: eps=0.1 {coarse.outcome.value}, "
                f"eps=0.001 {fine.outcome.value} tail/baseline={ratio:.2f}"
            )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    detail = "; ".join(measurements) + f"; {elapsed:.1f}s (<1min)"
    assert _verdict(5, ok, detail), detail


def test_criterion_6_zero_stability():
    result = check_zero_stability()
    detail = "; ".join(result.details)
    assert _verdict(6, result.passed, detail), detail


def test_criterion_7_run_determinism(tmp_path):
    args = [
        "run", "--problem", "example2", "--model", "dznd1-2i", "--gamma", "10",
        "--epsilon", "0.1", "--seed", "42", "--out", str(tmp_path),
    ]
    assert cli_main(args) == 0
    first = (tmp_path / "trajectory.csv").read_bytes()
    assert cli_main(args) == 0
    second = (tmp_path / "trajectory.csv").read_bytes()
    ok = first == second and len(first) > 0
    detail = f"two identical invocations, {len(first)} bytes, byte-equal={ok}"
    assert _verdict(7, ok, detail), detail


def test_criterion_8_penrose_conditions():
    result = check_penrose_conditions(seed=8)
    detail = "; ".join(result.details)
    assert _verdict(8, result.passed, detail), detail

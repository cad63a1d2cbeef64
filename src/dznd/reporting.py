"""File outputs for single runs and step-size/gain sweeps.

All numeric CSV fields use shortest round-trip decimal formatting
(``repr`` of the float), so files parse back to bit-identical values and
repeated runs with the same inputs produce byte-identical trajectory
files.  Sweep rows additionally record wall time, which naturally varies
between invocations.

A sweep integrates the points of one epsilon together, in one
:func:`~dznd.solvers.run_batch` call that shares their provider values
and, below the structured crossover, their W^+.  At a real gain both
models take the same step, so a real-gain (gamma, epsilon) point is one
member of its batch and is reported in the row of every requested model.
A config that cannot run (dznd2-2i at a complex gain) is not run: its
row reads ``ERROR(ConfigError)``.  An exception raised in a block of the
batch (by a provider that fails at some tau, a solve, or a warning made
an error) ends the members still running there, whose rows read
``ERROR(...)``; a member that stopped before it keeps its ``DIVERGED``
row.  ``wall_time_seconds`` is the wall time of the batch behind a row,
so the rows of one batch report the same time, and 0.0 for a config that
was not run.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import ComplexGain
from .errors import ConfigError
from .problems import (
    InitialState,
    SylvesterConjugateProblem,
    random_initial_state,
)
from .solvers import (
    Model,
    Outcome,
    SolverConfig,
    Trajectory,
    _run_batch,
    scalar_error_modulus,
    tail_max_equation_residual,
    tail_max_solution_error,
)
from .svgplot import log_line_chart

_MODEL_COLORS = {Model.DZND1_2I: "#cc2222", Model.DZND2_2I: "#22aa44"}


def _fmt(value: float) -> str:
    return repr(float(value))


def state_column_names(m: int, n: int) -> list[str]:
    """CSV column names for the stacked state, in state-vector order
    (column-major within each part, real block first), 1-based indices."""
    names = []
    for part in ("re", "im"):
        for t in range(1, n + 1):
            for s in range(1, m + 1):
                names.append(f"x_{part}_{s}_{t}")
    return names


def write_trajectory_csv(path: Path, trajectory: Trajectory, m: int, n: int) -> None:
    """Write one row per record; each float is ``repr`` of the Python
    float, formatted column by column from ``tolist``."""
    header = ["step", "tau", "equation_residual", "solution_error"]
    header += state_column_names(m, n)
    columns = [map(str, trajectory.steps.tolist())]
    columns += [
        map(repr, values.tolist())
        for values in (
            trajectory.taus,
            trajectory.equation_residuals,
            trajectory.solution_errors,
            *trajectory.states.T,
        )
    ]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n")


def write_run_summary(
    path: Path,
    problem_name: str,
    config: SolverConfig,
    seed: int,
    trajectory: Trajectory,
) -> None:
    """Write the human-readable run summary; ``seed`` is the seed of the
    initial state the run started from."""
    modulus = scalar_error_modulus(config.gamma, config.epsilon)
    prediction = "divergence" if modulus > 1.0 else "convergence"
    lines = [
        f"problem: {problem_name}",
        f"model: {config.model.value}",
        f"outcome: {trajectory.outcome.value}",
        f"k: {config.step_count}",
        f"records: {len(trajectory)}",
        f"pinv_fallback_steps: {trajectory.pinv_fallback_steps}",
        f"structured_solve_steps: {trajectory.structured_solve_steps}",
        f"operator_factorizations: {trajectory.operator_factorizations}",
        f"epsilon: {_fmt(config.epsilon)}",
        f"gamma: {config.gamma}",
        f"seed: {seed}",
        f"duration: {_fmt(config.duration)}",
        f"divergence_threshold: {_fmt(config.divergence_threshold)}",
        f"final_equation_residual: {_fmt(trajectory.equation_residuals[-1])}",
        f"final_solution_error: {_fmt(trajectory.solution_errors[-1])}",
        f"scalar_error_modulus: {_fmt(modulus)} (predicts {prediction}); "
        f"observed outcome: {trajectory.outcome.value}",
    ]
    if trajectory.diverged_at is not None:
        lines.append(f"diverged_at_step: {trajectory.diverged_at}")
    path.write_text("\n".join(lines) + "\n")


def write_residual_svg(
    path: Path,
    problem_name: str,
    config: SolverConfig,
    trajectory: Trajectory,
) -> None:
    series = [
        (
            "equation residual",
            trajectory.equation_residuals.tolist(),
            "#3366cc",
        )
    ]
    if not np.all(np.isnan(trajectory.solution_errors)):
        series.append(
            (
                "solution error",
                trajectory.solution_errors.tolist(),
                _MODEL_COLORS[config.model],
            )
        )
    svg = log_line_chart(
        title=(
            f"{problem_name} / {config.model.value} / gamma={config.gamma} "
            f"/ epsilon={config.epsilon:g}"
        ),
        x=trajectory.taus.tolist(),
        series=series,
        y_label="log10 residual",
    )
    path.write_text(svg)


# ---------------------------------------------------------------------------
# Sweeps over (model, gamma, epsilon) grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    gamma: ComplexGain
    model: Model
    outcome: str
    tail_max_equation_residual: float
    tail_max_solution_error: float
    steps: int
    wall_time_seconds: float


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope of log(tail residual) against log(epsilon)."""

    model: Model
    gamma: ComplexGain
    points: int
    equation_slope: Optional[float]
    solution_slope: Optional[float]


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    fits: tuple[OrderFit, ...]
    tail_from: float


def run_sweep(
    problem: SylvesterConjugateProblem,
    models: Sequence[Model],
    gammas: Sequence[ComplexGain],
    epsilons: Sequence[float],
    duration: float = 10.0,
    seed: int = 42,
    divergence_threshold: float = 1e12,
    pinv_tolerance: Optional[float] = None,
) -> SweepReport:
    """Run every grid point; failures become rows, never aborts.

    The points of one epsilon run as one batch, and a real-gain point
    once for every model (module docstring).  Tail statistics cover the
    second half of the horizon and are reported only for completed runs.
    """
    tail_from = duration / 2.0
    # A point named twice, as 10 and 10.0 say, is run and reported once.
    models, gammas, epsilons = map(dict.fromkeys, (models, gammas, epsilons))
    # Every point starts from the same state, drawn once; a draw that
    # raises is retried, and fails, in each batch.
    initial = functools.cache(lambda: random_initial_state(problem, seed))
    results: dict[tuple, tuple] = {}
    for epsilon in epsilons:
        points: dict[tuple, SolverConfig] = {}
        for model in models:
            for gamma in gammas:
                points.setdefault(_point(model, gamma, epsilon), SolverConfig(
                    model=model,
                    gamma=gamma,
                    epsilon=epsilon,
                    duration=duration,
                    pinv_tolerance=pinv_tolerance,
                    divergence_threshold=divergence_threshold,
                ))
        # A config that cannot run would fail the whole batch: it is
        # reported without running.
        for key, config in points.items():
            try:
                config.validate()
            except ConfigError:
                results[key] = ("ERROR(ConfigError)", math.nan, math.nan,
                                0, 0.0)
        valid = [key for key in points if key not in results]
        if valid:
            results.update(zip(valid, _sweep_batch(
                problem, [points[key] for key in valid], initial, tail_from
            )))
    rows = [
        SweepRow(epsilon, gamma, model,
                 *results[_point(model, gamma, epsilon)])
        for model in models for gamma in gammas for epsilon in epsilons
    ]
    rows.sort(key=lambda r: (r.model.value, r.gamma.re, r.gamma.im, r.epsilon))
    return SweepReport(
        rows=tuple(rows), fits=tuple(_fit_orders(rows)), tail_from=tail_from
    )


def _point(model: Model, gamma: ComplexGain, epsilon: float) -> tuple:
    """The key of a sweep point: at a real gain the two models take the
    same steps, so one run serves both."""
    return (gamma, epsilon) if gamma.is_real else (model, gamma, epsilon)


def _sweep_batch(
    problem: SylvesterConjugateProblem,
    configs: list[SolverConfig],
    initial: Callable[[], InitialState],
    tail_from: float,
) -> list[tuple[str, float, float, int, float]]:
    """For each of ``configs``, the outcome, both tail maxima, the record
    count and the wall time of one batch of sweep runs from the state
    ``initial()``, in :class:`SweepRow` field order.  An exception ends
    the members still running where it is raised, each with an ``ERROR``
    outcome; a member that stopped before keeps its own."""
    started = time.perf_counter()
    try:
        trajectories, error = _run_batch(problem, configs, initial())
    except Exception as exc:  # noqa: BLE001 - row-per-failure contract
        trajectories, error = [None] * len(configs), exc
    wall = time.perf_counter() - started
    failed = (f"ERROR({type(error).__name__})", math.nan, math.nan, 0)
    return [(*(failed if trajectory is None
               else _summary(trajectory, tail_from)), wall)
            for trajectory in trajectories]


def _summary(trajectory: Trajectory, tail_from: float):
    """The outcome, both tail maxima (nan unless completed) and the
    record count of one sweep run."""
    if trajectory.outcome is Outcome.COMPLETED:
        tail_eq = tail_max_equation_residual(trajectory, tail_from)
        tail_sol = tail_max_solution_error(trajectory, tail_from)
    else:
        tail_eq = tail_sol = math.nan
    return trajectory.outcome.value, tail_eq, tail_sol, len(trajectory)


def _loglog_slope(epsilons: list[float], tails: list[float]) -> Optional[float]:
    pairs = [
        (e, t)
        for e, t in zip(epsilons, tails)
        if math.isfinite(t) and t > 0.0
    ]
    if len({e for e, _ in pairs}) < 3:
        return None
    xs = np.log([e for e, _ in pairs])
    ys = np.log([t for _, t in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


def _fit_orders(rows: Sequence[SweepRow]) -> list[OrderFit]:
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.model, row.gamma), []).append(row)
    fits = []
    for (model, gamma), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0].value, kv[0][1].re, kv[0][1].im)
    ):
        completed = [r for r in members if r.outcome == Outcome.COMPLETED.value]
        eps = [r.epsilon for r in completed]
        fits.append(
            OrderFit(
                model=model,
                gamma=gamma,
                points=len(completed),
                equation_slope=_loglog_slope(
                    eps, [r.tail_max_equation_residual for r in completed]
                ),
                solution_slope=_loglog_slope(
                    eps, [r.tail_max_solution_error for r in completed]
                ),
            )
        )
    return fits


def write_sweep_csv(path: Path, report: SweepReport) -> None:
    header = (
        "epsilon,gamma,model,outcome,tail_max_equation_residual,"
        "tail_max_solution_error,steps,wall_time_seconds"
    )
    lines = [header]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.epsilon),
                    str(r.gamma),
                    r.model.value,
                    r.outcome,
                    _fmt(r.tail_max_equation_residual),
                    _fmt(r.tail_max_solution_error),
                    str(r.steps),
                    _fmt(r.wall_time_seconds),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def write_order_report(path: Path, report: SweepReport) -> None:
    lines = [
        "least-squares slope of log(tail-max residual) vs log(epsilon)",
        f"tail window: tau >= {report.tail_from:g}",
        "",
        "model      gamma          points  slope(equation)  slope(solution)",
    ]
    for fit in report.fits:
        eq = "n/a" if fit.equation_slope is None else f"{fit.equation_slope:.4f}"
        sol = "n/a" if fit.solution_slope is None else f"{fit.solution_slope:.4f}"
        lines.append(
            f"{fit.model.value:<10} {str(fit.gamma):<14} {fit.points:<7} "
            f"{eq:<16} {sol}"
        )
    lines.append("")
    lines.append("rows (completed runs only contribute to fits):")
    for r in report.rows:
        lines.append(
            f"  model={r.model.value} gamma={r.gamma} epsilon={r.epsilon:g} "
            f"outcome={r.outcome} tail_eq={r.tail_max_equation_residual:.6e} "
            f"tail_sol={r.tail_max_solution_error:.6e}"
        )
    path.write_text("\n".join(lines) + "\n")

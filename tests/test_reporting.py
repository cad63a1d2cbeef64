"""The CSV and SVG writers against scalar oracles written here: one
``repr`` per float, and the px/py/``math.log10`` formulas point by
point."""

import math
import re

import numpy as np

from dznd import ComplexGain, Model, Outcome, SolverConfig
from dznd import svgplot
from dznd.cli import main
from dznd.reporting import write_residual_svg, write_trajectory_csv
from dznd.solvers import Trajectory

# Values whose shortest round-trip text is not the obvious one.
_ODD = [0.0, -0.0, 0.1, 1e-300, 5e-324, 1.7976931348623157e308, math.inf,
        -math.inf, math.nan, 1 / 3, 2.5e-7, 123456789.125]


def _trajectory(equation_residuals, solution_errors, states):
    records = len(equation_residuals)
    return Trajectory(
        steps=np.arange(records, dtype=np.int64),
        taus=np.arange(records) * 0.01,
        states=np.asarray(states, dtype=np.float64),
        equation_residuals=np.asarray(equation_residuals, dtype=np.float64),
        solution_errors=np.asarray(solution_errors, dtype=np.float64),
        outcome=Outcome.COMPLETED,
    )


def test_trajectory_csv_is_one_repr_per_float(tmp_path):
    rng = np.random.default_rng(3)
    records = len(_ODD)
    states = rng.normal(size=(records, 12)) * 10.0 ** rng.integers(
        -20, 20, size=(records, 12))
    states[:, 0] = _ODD
    trajectory = _trajectory(_ODD[::-1], _ODD, states)
    write_trajectory_csv(tmp_path / "t.csv", trajectory, 3, 2)
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[-1] == ""
    assert lines[0].split(",")[:5] == [
        "step", "tau", "equation_residual", "solution_error", "x_re_1_1"]
    for i, line in enumerate(lines[1:-1]):
        want = [str(int(trajectory.steps[i]))] + [
            repr(float(v)) for v in (
                trajectory.taus[i], trajectory.equation_residuals[i],
                trajectory.solution_errors[i], *trajectory.states[i])]
        assert line == ",".join(want)
    assert len(lines) == records + 2


def _scalar_polylines(x, series):
    """Each series' polyline point lists, formed point by point."""
    logs = [[math.log10(v) if math.isfinite(v) and v > 0.0 else None
             for v in values] for values in series]
    flat = [v for values in logs for v in values if v is not None]
    y_lo, y_hi = math.floor(min(flat)), math.ceil(max(flat))
    if y_hi == y_lo:
        y_hi += 1
    x_lo, x_hi = min(x), max(x)
    plot_w = svgplot._WIDTH - svgplot._LEFT - svgplot._RIGHT
    plot_h = svgplot._HEIGHT - svgplot._TOP - svgplot._BOTTOM
    polylines = []
    for values in logs:
        segment = []
        for xi, vi in zip(x, values + [None]):
            if vi is not None:
                px = svgplot._LEFT + (xi - x_lo) / (x_hi - x_lo) * plot_w
                py = svgplot._TOP + (y_hi - vi) / (y_hi - y_lo) * plot_h
                segment.append(f"{px:.2f},{py:.2f}")
                continue
            if len(segment) >= 2:
                polylines.append(" ".join(segment))
            segment = []
        if len(segment) >= 2:
            polylines.append(" ".join(segment))
    return polylines


def test_residual_svg_points_follow_the_scalar_formulas(tmp_path):
    # Gaps at 0, nan and inf (and a negative value) split the polylines;
    # a run of one point between gaps draws none.
    rng = np.random.default_rng(4)
    residuals = list(10.0 ** rng.uniform(-14, 3, size=40))
    errors = list(10.0 ** rng.uniform(-9, 1, size=40))
    for i, gap in [(5, 0.0), (6, math.nan), (12, math.inf), (14, -1.0),
                   (30, math.nan), (39, 0.0)]:
        residuals[i] = gap
    for i, gap in [(0, math.inf), (2, 0.0), (20, math.nan)]:
        errors[i] = gap
    trajectory = _trajectory(residuals, errors, np.zeros((40, 8)))
    config = SolverConfig(model=Model.DZND1_2I, gamma=ComplexGain(10.0),
                          epsilon=0.01)
    write_residual_svg(tmp_path / "r.svg", "example2", config, trajectory)
    svg = (tmp_path / "r.svg").read_text()
    got = re.findall(r'<polyline points="([^"]*)"', svg)
    want = _scalar_polylines(trajectory.taus.tolist(), [residuals, errors])
    assert got == want
    assert len(got) == 6


def test_sweep_writes_each_named_point_once(tmp_path):
    # Gains 10 and 10.0 are one point, and so is epsilon 0.1 named twice:
    # two distinct points, two rows, and the fit counts two.
    code = main([
        "sweep", "--problem", "example2", "--model", "dznd1-2i",
        "--gamma", "10", "--gamma", "10.0", "--epsilon", "0.1",
        "--epsilon", "0.1", "--epsilon", "0.05", "--duration", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        ["0.05", "10.0", "dznd1-2i"], ["0.1", "10.0", "dznd1-2i"]]
    fit, = [line for line in
            (tmp_path / "order_report.txt").read_text().splitlines()
            if line.startswith("dznd1-2i ")]
    assert fit.split()[2] == "2"

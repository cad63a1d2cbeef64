"""The benchmark's workloads: inputs drawn from a seed, one timed pass
through the public API, and the checks every output must pass.

* ``trig-large``: ``dznd.run`` on generated 16x16 and 12x8 problems
  (512 and 192 unknowns), where the SVD dominates every step.
* ``cli-io``: ``dznd.cli.main`` runs and sweeps writing CSV, text and SVG
  files, the only path through ``cli``, ``reporting`` and ``svgplot``.

Every input that varies is drawn from the workload seed; the package
receives only the drawn values.  Pass sizes do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import dznd
import dznd.cli
from dznd import ComplexGain, InitialState, Model, SolverConfig, SplitComplexMatrix

from trig import check_derivatives, make_trig_problem

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Reference values must match to the larger of these; example1 tails sit
# at the roundoff floor, where only an absolute bound is meaningful.
REFERENCE_RTOL, REFERENCE_ATOL = 1e-6, 1e-10
# dznd1-2i and dznd2-2i solve the same real-gain dynamics; today they
# agree to about 1e-14 relative.
PAIR_RTOL, PAIR_ATOL = 1e-8, 1e-10

TRIG_SHAPES = ((16, 16), (12, 8))
TRIG_EPSILON, TRIG_DURATION = 0.01, 0.05


@dataclass(frozen=True)
class RunSpec:
    """One ``dznd.run`` call and the outcome it must reach."""

    key: str
    problem: dznd.SylvesterConjugateProblem
    config: SolverConfig
    initial: InitialState
    expect: str
    partner: Optional[str] = None  # dznd1-2i run that must agree with this one


@dataclass(frozen=True)
class Invocation:
    """One ``dznd.cli.main`` call and what it must produce."""

    key: str
    argv: tuple[str, ...]
    expect_exit: int
    records: int = 0  # k + 1 for a completing run
    sweep: Optional[dict] = None  # (model, (re, im), epsilon) -> outcome


@dataclass
class OpResult:
    key: str
    latency_s: float
    steps: int = 0
    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    state: Optional[np.ndarray] = None
    raw: object = None  # exit code or run summary, dropped after checks


@dataclass
class PassResult:
    """One pass: ``wall_s`` sums the operations' times, and ``wall_ref``
    divides each by the mean of the reference-work times measured just
    before and after it (see refwork.py)."""

    wall_s: float
    wall_ref: float
    ops: list
    pass_dir: Optional[Path] = None

    @property
    def steps(self) -> int:
        return sum(op.steps for op in self.ops)


def pass_result(ops: list, references: list, pass_dir=None) -> PassResult:
    """``references`` holds one reference time before the first op and
    one after each."""
    wall_ref = sum(2.0 * op.latency_s / (before + after)
                   for op, before, after in zip(ops, references, references[1:]))
    return PassResult(sum(op.latency_s for op in ops), wall_ref, ops, pass_dir)


def draw_initial(problem, seed: int) -> InitialState:
    """Entries uniform in [-5, 5], real block first (the CLI's rule)."""
    rng = np.random.default_rng(seed)
    re = rng.uniform(-5.0, 5.0, size=(problem.m, problem.n))
    im = rng.uniform(-5.0, 5.0, size=(problem.m, problem.n))
    return InitialState(x0=SplitComplexMatrix(re, im), seed=seed)


def load_references(workload: str, seed: int) -> Optional[dict]:
    """The recorded values for ``seed``, or None if it has none."""
    table = json.loads(REFERENCE_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(rtol * abs(b), atol)


def _check_references(op: OpResult, references: Optional[dict]) -> None:
    if references is None:
        return
    expected = references.get(op.key)
    if expected is None:
        op.errors.append("no reference value recorded")
        return
    for name, want in expected.items():
        got = op.values.get(name, math.nan)
        if not _close(got, want, REFERENCE_RTOL, REFERENCE_ATOL):
            op.errors.append(f"{name} {got!r} differs from reference {want!r}")


# ---------------------------------------------------------------------------
# Library workloads: dznd.run in process.
# ---------------------------------------------------------------------------


def _spec(problem, model, gamma, epsilon, duration, initial, expect):
    key = f"{problem.label}/{model.value}/{gamma}/{epsilon!r}"
    partner = None
    if model is Model.DZND2_2I and gamma.is_real:
        partner = f"{problem.label}/{Model.DZND1_2I.value}/{gamma}/{epsilon!r}"
    config = SolverConfig(model=model, gamma=gamma, epsilon=epsilon, duration=duration)
    return RunSpec(key, problem, config, initial, expect, partner)


def trig_large_specs(seed: int) -> list[RunSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for m, n in TRIG_SHAPES:
        problem = make_trig_problem(m, n, int(rng.integers(2**31)))
        check_derivatives(problem)
        initial = draw_initial(problem, int(rng.integers(2**31)))
        for model in Model:
            specs.append(_spec(problem, model, ComplexGain(10.0), TRIG_EPSILON,
                               TRIG_DURATION, initial,
                               dznd.Outcome.COMPLETED.value))
    return specs


def _summarize(spec: RunSpec, trajectory) -> tuple[dict, np.ndarray, int]:
    residuals = np.asarray(trajectory.equation_residuals)
    tail = residuals[np.asarray(trajectory.taus) >= spec.config.duration / 2.0]
    completed = trajectory.outcome.value == dznd.Outcome.COMPLETED.value
    values = {
        "final": float(residuals[-1]),
        "tail": float(tail.max()) if completed and tail.size else math.nan,
    }
    return values, np.array(trajectory.states[-1]), len(trajectory) - 1


class LibraryWorkload:
    """A fixed list of ``dznd.run`` calls, repeated as whole passes."""

    def __init__(self, specs: list[RunSpec], references):
        self.specs = specs
        self.references = references

    def run_pass(self, reference) -> PassResult:
        """One pass, calling ``reference()`` (seconds of reference work)
        before the first run and after each."""
        ops, references = [], [reference()]
        for spec in self.specs:
            t0 = time.perf_counter()
            try:
                trajectory = dznd.run(spec.problem, spec.config, spec.initial)
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                ops.append(OpResult(spec.key, time.perf_counter() - t0,
                                    errors=[f"raised {type(exc).__name__}: {exc}"]))
            else:
                latency = time.perf_counter() - t0
                values, state, steps = _summarize(spec, trajectory)
                ops.append(OpResult(spec.key, latency, steps, values,
                                    state=state, raw=trajectory.outcome.value))
                del trajectory  # hold one trajectory at a time, as users would
            references.append(reference())
        return pass_result(ops, references)

    def check(self, result: PassResult) -> None:
        by_key = {op.key: op for op in result.ops}
        for spec, op in zip(self.specs, result.ops):
            if op.errors:
                continue
            if op.raw != spec.expect:
                op.errors.append(f"outcome {op.raw}, expected {spec.expect}")
            _check_references(op, self.references)
            partner = by_key.get(spec.partner) if spec.partner else None
            if partner is not None and partner.state is not None:
                scale = max(float(np.linalg.norm(partner.state)), 1.0)
                gap = float(np.linalg.norm(op.state - partner.state)) / scale
                if not gap <= PAIR_RTOL:
                    op.errors.append(f"final state differs from {spec.partner} by {gap:.3e}")
                if not _close(op.values["final"], partner.values["final"],
                              PAIR_RTOL, PAIR_ATOL):
                    op.errors.append(f"final residual differs from {spec.partner}")
        for op in result.ops:
            op.state = op.raw = None


# ---------------------------------------------------------------------------
# cli-io: dznd.cli.main in process, writing into a scratch directory.
# ---------------------------------------------------------------------------

# (problem, model, gamma, epsilon, duration, exit code)
_CLI_RUNS = (
    ("example1", "dznd1-2i", "10", 0.01, 1.0, 0),
    ("example1", "dznd2-2i", "10", 0.01, 1.0, 0),
    ("example2", "dznd1-2i", "10", 0.01, 1.0, 0),
    ("example2", "dznd2-2i", "10", 0.01, 1.0, 0),
    ("example2", "dznd1-2i", "10", 0.005, 1.0, 0),
    ("example2", "dznd2-2i", "10", 0.005, 1.0, 0),
    ("example1", "dznd1-2i", "10", 0.005, 1.0, 0),
    ("example2", "dznd1-2i", "10+20i", 0.01, 1.0, 0),
    ("example1", "dznd1-2i", "10-20i", 0.01, 1.0, 0),
    ("example2", "dznd1-2i", "10+20i", 0.1, 5.0, 3),
    ("example1", "dznd1-2i", "10+20i", 0.1, 5.0, 3),
)
_SWEEP_GAMMAS = ("10", "10+20i")
_SWEEP_EPSILONS = (0.1, 0.05, 0.02, 0.01)
_SWEEP_DURATION = 1.0  # too short for 10+20i at 0.1 to pass the threshold


def _gain_key(text: str) -> tuple[float, float]:
    gain = ComplexGain.parse(text)
    return gain.re, gain.im


def cli_invocations(seed: int) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    invocations = []
    for i, (problem, model, gamma, epsilon, duration, code) in enumerate(_CLI_RUNS):
        argv = ("run", "--problem", problem, "--model", model, "--gamma", gamma,
                "--epsilon", repr(epsilon), "--duration", repr(duration),
                "--seed", str(int(rng.integers(2**31))))
        invocations.append(Invocation(
            f"run{i:02d}-{problem}-{model}-{gamma}-{epsilon!r}", argv, code,
            round(duration / epsilon) + 1))
    for problem in ("example1", "example2"):
        argv = ["sweep", "--problem", problem, "--duration", repr(_SWEEP_DURATION),
                "--seed", str(int(rng.integers(2**31)))]
        expected = {}
        for model in Model:
            argv += ["--model", model.value]
            for gamma in _SWEEP_GAMMAS:
                for epsilon in _SWEEP_EPSILONS:
                    complex_gain = not ComplexGain.parse(gamma).is_real
                    outcome = ("ERROR" if model is Model.DZND2_2I and complex_gain
                               else dznd.Outcome.COMPLETED.value)
                    expected[(model.value, _gain_key(gamma), epsilon)] = outcome
        for gamma in _SWEEP_GAMMAS:
            argv += ["--gamma", gamma]
        for epsilon in _SWEEP_EPSILONS:
            argv += ["--epsilon", repr(epsilon)]
        invocations.append(Invocation(f"sweep-{problem}", tuple(argv), 0,
                                      sweep=expected))
    return invocations


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _check_run_outputs(inv: Invocation, out: Path, op: OpResult) -> None:
    rows = _read_csv(out / "trajectory.csv")
    outcome = "COMPLETED" if inv.expect_exit == 0 else "DIVERGED"
    if inv.expect_exit == 0 and len(rows) != inv.records:
        op.errors.append(f"trajectory.csv has {len(rows)} rows, expected {inv.records}")
    elif not 1 <= len(rows) <= inv.records:
        op.errors.append(f"trajectory.csv has {len(rows)} rows for a diverged run")
    if f"outcome: {outcome}" not in (out / "summary.txt").read_text():
        op.errors.append(f"summary.txt does not report {outcome}")
    if "<svg" not in (out / "residual.svg").read_text():
        op.errors.append("residual.svg holds no SVG document")
    op.steps = max(len(rows) - 1, 0)
    if rows:
        op.values["final"] = float(rows[-1]["equation_residual"])


def _check_sweep_outputs(inv: Invocation, out: Path, op: OpResult) -> None:
    rows = _read_csv(out / "sweep.csv")
    seen = set()
    for row in rows:
        point = (row["model"], _gain_key(row["gamma"]), float(row["epsilon"]))
        seen.add(point)
        want = inv.sweep.get(point)
        if want is None or not row["outcome"].startswith(want):
            op.errors.append(f"sweep point {point}: {row['outcome']}, expected {want}")
        steps = int(row["steps"])
        op.steps += max(steps - 1, 0)
        if want == "COMPLETED" and steps != round(_SWEEP_DURATION / point[2]) + 1:
            op.errors.append(f"sweep point {point}: {steps} records")
        label = f"tail/{point[0]}/{row['gamma']}/{point[2]!r}"
        op.values[label] = float(row["tail_max_equation_residual"])
    if seen != set(inv.sweep):
        op.errors.append(f"sweep.csv covers {len(seen)} of {len(inv.sweep)} points")
    if not (out / "order_report.txt").is_file():
        op.errors.append("order_report.txt missing")


class CliWorkload:
    """A fixed list of CLI invocations, repeated as whole passes; each
    pass writes into its own directory, removed once checked."""

    def __init__(self, invocations: list[Invocation], workdir: Path, references):
        self.invocations = invocations
        self.workdir = workdir
        self.references = references
        self.passes = 0

    def run_pass(self, reference) -> PassResult:
        """One pass, calling ``reference()`` (seconds of reference work)
        before the first invocation and after each."""
        self.passes += 1
        pass_dir = self.workdir / f"pass{self.passes:04d}"
        ops, references = [], [reference()]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for inv in self.invocations:
                argv = [*inv.argv, "--out", str(pass_dir / inv.key)]
                t0 = time.perf_counter()
                try:
                    code = dznd.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - a failed op is a result
                    code = f"raised {type(exc).__name__}: {exc}"
                ops.append(OpResult(inv.key, time.perf_counter() - t0, raw=code))
                sink.seek(0)
                sink.truncate()
                references.append(reference())
        return pass_result(ops, references, pass_dir)

    def check(self, result: PassResult) -> None:
        try:
            for inv, op in zip(self.invocations, result.ops):
                if op.raw != inv.expect_exit:
                    op.errors.append(f"exit code {op.raw!r}, expected {inv.expect_exit}")
                    continue
                out = result.pass_dir / inv.key
                try:
                    if inv.sweep is None:
                        _check_run_outputs(inv, out, op)
                    else:
                        _check_sweep_outputs(inv, out, op)
                except (OSError, KeyError, ValueError) as exc:
                    op.errors.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
                _check_references(op, self.references)
        finally:
            shutil.rmtree(result.pass_dir, ignore_errors=True)
        for op in result.ops:
            op.raw = None


def outputs(result: PassResult) -> dict:
    """The checked values of a pass, keyed as in reference.json."""
    return {op.key: op.values for op in result.ops}


def build(name: str, seed: int, workdir: Path, check_references: bool = True):
    """Draw the inputs of workload ``name`` from ``seed``."""
    references = load_references(name, seed) if check_references else None
    if name == "trig-large":
        return LibraryWorkload(trig_large_specs(seed), references)
    if name == "cli-io":
        return CliWorkload(cli_invocations(seed), workdir, references)
    raise ValueError(f"unknown workload {name!r}")

"""Per-layer spans and counters, installed by patching from outside dznd.

The tracer replaces, for the length of a ``with installed(tracer):``
block, the module globals through which the layers call each other:
the solver's calls into assembly, linalg and problems, the CLI's calls
into reporting, reporting's call into svgplot, and the providers of each
problem handed to ``run``.  Spans nest on a stack, so a span's self time
is its duration minus the time of the spans it caused.  A function that
a later version no longer calls, or no longer has, simply counts zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time

import numpy as np

import dznd
import dznd.cli
import dznd.reporting
import dznd.solvers

_SOLVER_SPANS = {
    "assemble_dznd1": "assembly.assemble",
    "assemble_dznd2": "assembly.assemble",
    "matrix_from_state": "assembly.state",
    "state_from_matrix": "assembly.state",
    "equation_residual": "problems.residuals",
    "solution_error": "problems.residuals",
}
_WRITERS = (
    "write_trajectory_csv",
    "write_run_summary",
    "write_residual_svg",
    "write_sweep_csv",
    "write_order_report",
)
_PROVIDERS = {
    "coefficients": "problems.coefficients",
    "derivatives": "problems.derivatives",
    "theoretical_solution": "problems.solution",
}


def svd_flops_bytes(rows: int, cols: int) -> tuple[int, int]:
    """Operation count and bytes touched by one ``pinv`` call, computed
    from the matrix size alone: a thin Golub-Reinsch SVD
    (4 r^2 c + 8 r c^2 + 9 c^3 for r >= c) plus the 2 r c k product that
    rebuilds the pseudo-inverse; bytes are W, U, s, V^T and the result
    read or written once as float64."""
    r, c = max(rows, cols), min(rows, cols)
    flops = 4 * r * r * c + 8 * r * c * c + 9 * c ** 3 + 2 * r * c * c
    words = rows * cols + r * c + c + c * c + rows * cols
    return flops, 8 * words


class Tracer:
    """Aggregated spans and counters; counters are kept per (problem,
    model) group of the enclosing solver run, and under None outside."""

    def __init__(self):
        self.stack: list[list[int]] = []
        self.self_ns: dict[str, int] = {}
        self.root_ns = 0
        self.by_group: dict = {None: {}}
        self.current = self.by_group[None]
        self.last_svals = None
        self.max_trajectory_bytes = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.current[name] = self.current.get(name, 0) + amount

    def total(self, name: str, runs_only: bool = False) -> float:
        return sum(counts.get(name, 0) for group, counts in self.by_group.items()
                   if group is not None or not runs_only)

    def enter_group(self, group):
        """Make ``group`` current; returns the counters to restore."""
        outer = self.current
        self.current = self.by_group.setdefault(group, {})
        return outer

    def span(self, name: str, fn):
        stack, self_ns = self.stack, self.self_ns
        clock = time.perf_counter_ns
        calls = name + ".calls"

        def traced(*args, **kwargs):
            start = clock()
            frame = [0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - start
                self_ns[name] = self_ns.get(name, 0) + duration - frame[0]
                self.count(calls)
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_ns += duration

        return traced

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def traced_run(self, run):
        def wrapper(problem, config, initial):
            outer = self.enter_group((problem.label, config.model.value))
            try:
                trajectory = run(self._wrap_providers(problem), config, initial)
                self.count("steps", len(trajectory) - 1)
            finally:
                self.current = outer
            self.max_trajectory_bytes = max(
                self.max_trajectory_bytes, _trajectory_bytes(trajectory)
            )
            return trajectory

        return self.span("solvers.run", wrapper)

    def _wrap_providers(self, problem):
        if not dataclasses.is_dataclass(problem):
            return problem
        changes = {
            field: self.span(name, getattr(problem, field))
            for field, name in _PROVIDERS.items()
            if getattr(problem, field, None) is not None
        }
        return dataclasses.replace(problem, **changes)

    def traced_pinv(self, pinv):
        def wrapper(w, tolerance=None):
            self.last_svals = None
            result = pinv(w, tolerance)
            flops, nbytes = svd_flops_bytes(*np.shape(w))
            self.count("linalg.pinv.flops", flops)
            self.count("linalg.pinv.bytes", nbytes)
            s = self.last_svals
            if s is not None and s.size:
                # pinv's documented cutoff: tolerance (default eps*max(shape))
                # times the largest singular value.
                tol = tolerance
                if tol is None:
                    tol = float(np.finfo(np.float64).eps) * max(np.shape(w))
                self.count("linalg.pinv.svals_seen", int(s.size))
                self.count("linalg.pinv.svals_cut", int((s <= tol * s[0]).sum()))
            return result

        return self.span("linalg.pinv", wrapper)

    def traced_svd(self, svd):
        def wrapper(*args, **kwargs):
            result = svd(*args, **kwargs)
            self.last_svals = result[1] if isinstance(result, tuple) else result
            return result

        return wrapper

    def traced_writer(self, writer):
        def wrapper(path, *args, **kwargs):
            writer(path, *args, **kwargs)
            self.count("reporting.bytes_written", os.path.getsize(path))

        return self.span("reporting.write", wrapper)

    def patches(self):
        """(owner, attribute, replacement) for every hook that exists."""
        out = []

        def hook(owner, attr, make):
            if hasattr(owner, attr):
                out.append((owner, attr, make(getattr(owner, attr))))

        for owner in (dznd, dznd.cli, dznd.reporting):
            hook(owner, "run", self.traced_run)
        for attr, name in _SOLVER_SPANS.items():
            hook(dznd.solvers, attr, lambda fn, name=name: self.span(name, fn))
        hook(dznd.solvers, "pinv", self.traced_pinv)
        hook(dznd.cli, "main", lambda fn: self.span("cli.main", fn))
        hook(dznd.cli, "run_sweep", lambda fn: self.span("reporting.run_sweep", fn))
        for attr in _WRITERS:
            hook(dznd.cli, attr, self.traced_writer)
        hook(dznd.reporting, "log_line_chart", lambda fn: self.span("svgplot.chart", fn))
        hook(np, "kron", lambda fn: self.counted("assembly.kron", fn))
        hook(np.linalg, "svd", self.traced_svd)
        split = getattr(dznd, "SplitComplexMatrix", None)
        if split is not None:
            hook(split, "__post_init__", lambda fn: self.counted("linalg.split_matrix", fn))
        return out


def _trajectory_bytes(trajectory) -> int:
    return sum(
        value.nbytes
        for value in vars(trajectory).values()
        if isinstance(value, np.ndarray)
    )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the tracer's hooks; restore every original on exit."""
    patches = tracer.patches()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

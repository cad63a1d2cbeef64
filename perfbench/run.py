"""dznd benchmark entry point.

    python3 perfbench/run.py --workload trig-large --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports ``dznd`` from its
``src`` directory.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS threads are held at one, so that every commit is measured with the
# same thread setting.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("trig-large", "cli-io")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import dznd from this checkout's src/, never from elsewhere."""
    if not (SRC / "dznd" / "__init__.py").is_file():
        raise SystemExit(f"error: no dznd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dznd

    if Path(dznd.__file__).resolve().parent != (SRC / "dznd").resolve():
        raise SystemExit(f"error: imported dznd from {dznd.__file__}, not {SRC}")
    return dznd


def setup_probe(args) -> None:
    """Child-process body: import and build the inputs, print seconds."""
    started = time.perf_counter()
    import_package()
    import workloads

    workloads.build(args.workload, args.seed, WORKDIR)
    print(repr(time.perf_counter() - started))


def setup_sample(args) -> float:
    """Set-up seconds of one fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, tracer=None, after_pass=None) -> tuple[list, list]:
    """Whole passes until the next one would overrun ``seconds``; each
    pass is checked, and ``after_pass`` called, outside its timed region.
    With a tracer, it is installed on every other pass, so that traced and
    untraced passes see the same host speed.  Returns the untraced and the
    traced passes."""
    from refwork import reference_seconds
    from tracing import installed

    reference_seconds()  # warm-up, not recorded
    passes = ([], [])
    started = time.perf_counter()
    for i in itertools.count():
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        pass_started = time.perf_counter()
        with installed(tracer) if traced else contextlib.nullcontext():
            result = workload.run_pass(reference_seconds)
        pass_s = time.perf_counter() - pass_started
        workload.check(result)
        passes[traced].append(result)
        if after_pass:
            after_pass()
        over = time.perf_counter() - started + pass_s > seconds
        if over and (tracer is None or passes[1]):
            return passes


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 20:
        return 0, min(samples)
    p = min(99, math.floor(100.0 - 1000.0 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(passes, setup) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (statistics.median(p.wall_ref for p in passes), "ref"),
        "steps_per_ref": (statistics.median(p.steps / p.wall_ref for p in passes), "1/ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def raw_times(passes) -> dict:
    """The same times in seconds; printed, not gated, as they carry the
    host's drift."""
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "steps_per_s": (statistics.median(p.steps / p.wall_s for p in passes), "1/s"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invocation_metrics(passes) -> dict:
    latencies_ms = [op.latency_s * 1e3 for p in passes for op in p.ops]
    p, tail = tail_percentile(latencies_ms)
    return {
        "invocation_ms.p50": (statistics.median(latencies_ms), "ms"),
        "invocation_ms.tail": (tail, "ms"),
        "invocation_ms.tail_percentile": (p, "percentile"),
        "invocation_ms.samples": (len(latencies_ms), "count"),
    }


def per_layer(tracer, untraced, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and a per-(problem, model)
    breakdown of the counts."""
    steps = tracer.total("steps") or 1
    calls = tracer.total("cli.main.calls") or 1
    ns = Counter(tracer.self_ns)

    def in_runs(name):
        return tracer.total(name, runs_only=True)

    def us_per_step(*names):
        return sum(ns[n] for n in names) / 1e3 / steps

    def ms_per_call(name):
        return ns[name] / 1e6 / calls

    seen = tracer.total("linalg.pinv.svals_seen")
    traced_ns = sum(p.wall_s for p in traced) * 1e9
    metrics = {
        "problems.coefficients.calls_per_step":
            (in_runs("problems.coefficients.calls") / steps, "count"),
        "problems.derivatives.calls_per_step":
            (in_runs("problems.derivatives.calls") / steps, "count"),
        "problems.providers.self_us_per_step": (us_per_step(
            "problems.coefficients", "problems.derivatives", "problems.solution"), "us"),
        "problems.residuals.self_us_per_step": (us_per_step("problems.residuals"), "us"),
        "assembly.self_us_per_step":
            (us_per_step("assembly.assemble", "assembly.state"), "us"),
        "assembly.kron.calls_per_step": (in_runs("assembly.kron") / steps, "count"),
        "linalg.split_matrix.constructions_per_step":
            (in_runs("linalg.split_matrix") / steps, "count"),
        "linalg.pinv.self_us_per_step": (us_per_step("linalg.pinv"), "us"),
        "linalg.pinv.flops_computed_per_step":
            (tracer.total("linalg.pinv.flops") / steps, "flop"),
        "linalg.pinv.bytes_computed_per_step":
            (tracer.total("linalg.pinv.bytes") / steps, "B"),
        "linalg.pinv.cut_svals":
            (tracer.total("linalg.pinv.svals_cut") / seen if seen else 0.0, "frac"),
        "solvers.run.self_us_per_step": (us_per_step("solvers.run"), "us"),
        "solvers.trajectory_bytes": (tracer.max_trajectory_bytes, "B"),
        "reporting.write_ms": (ms_per_call("reporting.write"), "ms"),
        "reporting.bytes_written":
            (tracer.total("reporting.bytes_written") / calls, "B"),
        "svgplot.write_ms": (ms_per_call("svgplot.chart"), "ms"),
        "reporting.run_sweep.self_ms": (ms_per_call("reporting.run_sweep"), "ms"),
        "cli.self_ms": (ms_per_call("cli.main"), "ms"),
        # Each traced pass is paired with the untraced pass just before it.
        "trace.overhead_frac": (statistics.median(
            t.wall_ref / u.wall_ref for u, t in zip(untraced, traced)) - 1.0, "frac"),
        "trace.unaccounted_frac": (1.0 - tracer.root_ns / traced_ns, "frac"),
    }
    breakdown = {}
    for group, counts in tracer.by_group.items():
        if group is None:
            continue
        group_steps = counts.get("steps", 0)
        breakdown["/".join(group)] = {"steps": group_steps, **{
            f"{name}_per_step": counts.get(name, 0) / (group_steps or 1)
            for name in ("problems.coefficients.calls", "problems.derivatives.calls",
                         "assembly.kron", "linalg.split_matrix", "linalg.pinv.calls")
        }}
    return metrics, breakdown


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    # The ceiling keeps git from reporting an enclosing repository.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    import workloads
    from tracing import Tracer

    setup = []
    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            untraced, traced = measure(workload, args.seconds, tracer)
            passes = untraced + traced
            metrics, breakdown = per_layer(tracer, untraced, traced)
        else:
            # Set-up is sampled between passes, so that it sees the same
            # drift of host speed as they do; the first probe warms the
            # byte-code and file caches and is not recorded.
            setup_sample(args)
            passes, _ = measure(workload, args.seconds,
                                after_pass=lambda: setup.append(setup_sample(args)))
            metrics, breakdown = end_to_end(passes, setup), None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.errors]
    extra = {} if args.trace else raw_times(passes)
    extra["ops_failed_frac"] = (len(failed) / len(ops), "frac")
    if args.workload == "cli-io":
        extra.update(invocation_metrics(passes))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name}: {value!r} {unit}")
    for op in failed[:20]:
        print(f"FAILED {op.key}: {'; '.join(op.errors)}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_wall_ref": [p.wall_ref for p in passes],
        "setup_samples_s": setup,
        "references_checked": workload.references is not None,
        "provenance": provenance(),
    }
    if breakdown is not None:
        report["per_run_counts"] = breakdown
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

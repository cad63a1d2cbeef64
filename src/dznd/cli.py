"""Command-line front end: single runs, grid sweeps, self-verification.

Exit codes: 0 success, 1 I/O failure (and, for ``verify``, a failed
check), 2 usage error, 3 run diverged.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .assembly import ComplexGain
from .problems import PROBLEMS, get_problem, random_initial_state
from .reporting import (
    run_sweep,
    write_order_report,
    write_residual_svg,
    write_run_summary,
    write_sweep_csv,
    write_trajectory_csv,
)
from .solvers import Model, Outcome, SolverConfig, run
from .verify import run_verification

_MODEL_NAMES = [m.value for m in Model]

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _seed(text: str) -> int:
    """argparse type for ``--seed``: numpy takes only non-negative seeds."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _add_common_flags(sub: argparse.ArgumentParser, problems) -> None:
    sub.add_argument(
        "--problem", default="example2", choices=problems,
        help="registered problem name",
    )
    sub.add_argument("--duration", type=float, default=10.0,
                     help="simulated seconds (default 10)")
    sub.add_argument("--seed", type=_seed, default=42,
                     help="seed for the random initial state (default 42)")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--divergence-threshold", type=float, default=1e12,
                     help="equation-residual level that flags divergence")
    sub.add_argument("--pinv-tolerance", type=float, default=None,
                     help="relative singular-value cutoff (default: eps*2mn)")


def build_parser() -> argparse.ArgumentParser:
    """The ``dznd`` argument parser.  Parsing leaves a parser unchanged,
    so one is built per process for each set of registered problems and
    shared by every call."""
    return _parser(tuple(sorted(PROBLEMS)))


@functools.cache
def _parser(problems: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dznd",
        description=(
            "Fixed-step zeroing-dynamics solvers for time-variant "
            "Sylvester-conjugate matrix equations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one model and write files")
    _add_common_flags(run_p, problems)
    run_p.add_argument("--model", default=Model.DZND1_2I.value,
                       choices=_MODEL_NAMES)
    run_p.add_argument("--gamma", default="10",
                       help="gain as a, a+bi or a-bi (default 10)")
    run_p.add_argument("--epsilon", type=float, default=0.1,
                       help="step size in (0,1) dividing the duration")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a (model, gamma, epsilon) grid")
    _add_common_flags(sweep_p, problems)
    sweep_p.add_argument("--model", action="append", choices=_MODEL_NAMES,
                         help="repeatable; default: both models")
    sweep_p.add_argument("--gamma", action="append",
                         help="repeatable; default: 10")
    sweep_p.add_argument("--epsilon", type=float, action="append",
                         help="repeatable; default: 0.1 0.01 0.001")
    sweep_p.set_defaults(func=_cmd_sweep)

    verify_p = sub.add_parser("verify", help="run the built-in property checks")
    verify_p.add_argument("--seed", type=_seed, default=0)
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    try:
        problem = get_problem(args.problem)
        config = SolverConfig(
            model=Model.from_name(args.model),
            gamma=ComplexGain.parse(args.gamma),
            epsilon=args.epsilon,
            duration=args.duration,
            pinv_tolerance=args.pinv_tolerance,
            divergence_threshold=args.divergence_threshold,
        )
        config.validate()
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))

    initial = random_initial_state(problem, args.seed)
    trajectory = run(problem, config, initial)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(
            out / "trajectory.csv", trajectory, problem.m, problem.n
        )
        write_run_summary(
            out / "summary.txt", args.problem, config, initial.seed, trajectory
        )
        write_residual_svg(out / "residual.svg", args.problem, config, trajectory)
    except OSError as exc:
        print(f"error: cannot write outputs under {out}: {exc}", file=sys.stderr)
        return EXIT_IO

    last_eq = trajectory.equation_residuals[-1]
    print(
        f"{args.problem} {config.model.value} gamma={config.gamma} "
        f"epsilon={config.epsilon:g}: {trajectory.outcome.value} "
        f"({len(trajectory)} records, final equation residual {last_eq:.3e}) "
        f"-> {out}"
    )
    return EXIT_OK if trajectory.outcome is Outcome.COMPLETED else EXIT_DIVERGED


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    model_names = args.model or _MODEL_NAMES
    gamma_texts = args.gamma or ["10"]
    epsilons = args.epsilon or [0.1, 0.01, 0.001]
    try:
        problem = get_problem(args.problem)
        models = [Model.from_name(name) for name in model_names]
        gammas = [ComplexGain.parse(text) for text in gamma_texts]
        # grid-wide flags are usage errors; per-point (model, gamma)
        # incompatibilities become ERROR rows instead
        for eps in epsilons:
            SolverConfig(
                model=Model.DZND1_2I, gamma=ComplexGain(1.0), epsilon=eps,
                duration=args.duration,
                pinv_tolerance=args.pinv_tolerance,
                divergence_threshold=args.divergence_threshold,
            ).validate()
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))

    report = run_sweep(
        problem,
        models=models,
        gammas=gammas,
        epsilons=epsilons,
        duration=args.duration,
        seed=args.seed,
        divergence_threshold=args.divergence_threshold,
        pinv_tolerance=args.pinv_tolerance,
    )
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_sweep_csv(out / "sweep.csv", report)
        write_order_report(out / "order_report.txt", report)
    except OSError as exc:
        print(f"error: cannot write outputs under {out}: {exc}", file=sys.stderr)
        return EXIT_IO

    for row in report.rows:
        print(
            f"model={row.model.value} gamma={row.gamma} "
            f"epsilon={row.epsilon:g}: {row.outcome} "
            f"tail_eq={row.tail_max_equation_residual:.3e}"
        )
    for fit in report.fits:
        if fit.equation_slope is not None:
            sol = (
                "n/a"
                if fit.solution_slope is None
                else f"{fit.solution_slope:.3f}"
            )
            print(
                f"order fit {fit.model.value} gamma={fit.gamma}: "
                f"slope(equation)={fit.equation_slope:.3f} "
                f"slope(solution)={sol}"
            )
    print(f"wrote {out / 'sweep.csv'} and {out / 'order_report.txt'}")
    return EXIT_OK


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    results = run_verification(seed=args.seed)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}")
        for line in result.details:
            print(f"     {line}")
        all_passed = all_passed and result.passed
    return EXIT_OK if all_passed else EXIT_IO


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())

"""Shared oracles, factories and a one-step driver for the test suite.

The oracles deliberately avoid the package's own kernels: complex
products are computed entry by entry with Python complex scalars, so any
systematic error in the split arithmetic cannot cancel out.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from dznd import SplitComplexMatrix, SylvesterConjugateProblem, run
from dznd.assembly import unstack
from dznd.problems import InitialState


def random_split(rng, rows: int, cols: int, scale: float = 1.0) -> SplitComplexMatrix:
    return SplitComplexMatrix(
        scale * rng.normal(size=(rows, cols)),
        scale * rng.normal(size=(rows, cols)),
    )


def scalar_matmul_oracle(a: SplitComplexMatrix, b: SplitComplexMatrix):
    """Entry-by-entry complex product using Python scalars."""
    rows, inner = a.shape
    cols = b.cols
    out = np.zeros((rows, cols), dtype=complex)
    for s in range(rows):
        for t in range(cols):
            acc = 0j
            for p in range(inner):
                acc += complex(a.re[s, p], a.im[s, p]) * complex(
                    b.re[p, t], b.im[p, t]
                )
            out[s, t] = acc
    return out


def one_step(problem, state, config, tau):
    """One step of ``config``'s model from the stacked ``state`` at time
    ``tau``, taken by ``run``: a driver, not an oracle, for tests that
    step by hand.

    It runs ``problem`` shifted in time (each provider p read as
    t -> p(t + tau)) for duration = epsilon, from the matrix whose
    state is ``state``, and returns the ``Trajectory``: ``states[1]`` is
    the state after the step, ``pinv_fallback_steps`` and
    ``structured_solve_steps`` its solve path.
    """
    def shifted(provider):
        return None if provider is None else lambda t: provider(t + tau)

    moved = dataclasses.replace(problem, **{
        name: shifted(getattr(problem, name))
        for name in ("coefficients", "derivatives", "theoretical_solution")
    })
    start = SplitComplexMatrix.from_complex(unstack(state, problem.m, problem.n))
    return run(moved, dataclasses.replace(config, duration=config.epsilon),
               InitialState(start, 0))


def make_trig_problem(m: int, n: int, seed: int) -> SylvesterConjugateProblem:
    """Random time-variant problem F(t) = F0 + F1 sin(t) etc., with
    analytic derivatives and no known solution."""
    rng = np.random.default_rng(seed)
    base = {key: random_split(rng, *shape) for key, shape in
            {"f0": (n, n), "f1": (n, n), "a0": (m, m), "a1": (m, m),
             "c0": (m, n), "c1": (m, n)}.items()}
    return _trig_problem(base, m, n, f"trig-{m}x{n}-{seed}")


def make_shifted_trig_problem(m: int, n: int, seed: int) -> SylvesterConjugateProblem:
    """The benchmark's kind of trig problem: F0 carries a shift of 3 I and
    the random parts of F and A are scaled by 1/sqrt(2 dim), which keeps
    the spectra of F conj(F) and A conj(A) apart."""
    rng = np.random.default_rng(seed)
    sf, sa = 1.0 / np.sqrt(2 * n), 1.0 / np.sqrt(2 * m)
    f0 = random_split(rng, n, n, sf)
    base = {
        "f0": SplitComplexMatrix(f0.re + 3.0 * np.eye(n), f0.im),
        "f1": random_split(rng, n, n, 0.5 * sf),
        "a0": random_split(rng, m, m, sa),
        "a1": random_split(rng, m, m, 0.5 * sa),
        "c0": random_split(rng, m, n),
        "c1": random_split(rng, m, n),
    }
    return _trig_problem(base, m, n, f"shifted-trig-{m}x{n}-{seed}")


def _trig_problem(base: dict, m: int, n: int, label: str) -> SylvesterConjugateProblem:
    def lincomb(m0, m1, w):
        return SplitComplexMatrix(m0.re + w * m1.re, m0.im + w * m1.im)

    def coefficients(tau):
        s = np.sin(tau)
        return (
            lincomb(base["f0"], base["f1"], s),
            lincomb(base["a0"], base["a1"], s),
            lincomb(base["c0"], base["c1"], s),
        )

    def derivatives(tau):
        c = np.cos(tau)
        zero_f = SplitComplexMatrix(np.zeros((n, n)), np.zeros((n, n)))
        zero_a = SplitComplexMatrix(np.zeros((m, m)), np.zeros((m, m)))
        zero_c = SplitComplexMatrix(np.zeros((m, n)), np.zeros((m, n)))
        return (
            lincomb(zero_f, base["f1"], c),
            lincomb(zero_a, base["a1"], c),
            lincomb(zero_c, base["c1"], c),
        )

    return SylvesterConjugateProblem(
        m=m, n=n, coefficients=coefficients, derivatives=derivatives,
        label=label,
    )

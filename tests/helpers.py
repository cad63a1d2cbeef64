"""Shared oracles, factories and a one-step driver for the test suite.

The oracles deliberately avoid the package's own kernels: complex
products are computed entry by entry with Python complex scalars, so any
systematic error in the split arithmetic cannot cancel out, and the step
oracle builds each step's real operator from numpy's Kronecker products
and inverts it with numpy's pinv.
"""

from __future__ import annotations

import dataclasses
import math

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


def _entries(x: SplitComplexMatrix) -> list:
    """The entries of ``x`` as Python complex scalars, row by row."""
    return [complex(re, im) for re, im in zip(x.re.ravel().tolist(),
                                               x.im.ravel().tolist())]


def _norm(entries) -> float:
    return math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in entries))


def residual_oracle(problem, x: SplitComplexMatrix, tau: float) -> float:
    """||X F - A conj(X) - C||_F at ``tau``, with the products from
    :func:`scalar_matmul_oracle` and the rest in Python scalars."""
    f, a, c = problem.coefficients(tau)
    xf = scalar_matmul_oracle(x, f).ravel().tolist()
    a_conj_x = scalar_matmul_oracle(
        a, SplitComplexMatrix(x.re, -x.im)).ravel().tolist()
    return _norm(p - q - r for p, q, r in zip(xf, a_conj_x, _entries(c)))


def solution_error_oracle(problem, x: SplitComplexMatrix, tau: float) -> float:
    """||X - X*||_F at ``tau``, in Python scalars."""
    exact = _entries(problem.theoretical_solution(tau))
    return _norm(p - q for p, q in zip(_entries(x), exact))


def euler_step_oracle(problem, gamma: complex, epsilon: float, x0, steps: int):
    """The stacked states of ``steps`` Euler-forward steps from the
    complex m x n matrix ``x0``, each x <- x + epsilon pinv(W_k)
    stack(G_k(X)), as a (steps + 1) x 2mn array.

    W_k is built from its Kronecker form, with U = F_k^T kron I_m and
    V = I_n kron A_k, [[U_re - V_re, -(U_im + V_im)], [U_im - V_im,
    U_re + V_re]], and pinv is numpy's; the drive is G = Cdot + Adot
    conj(X) - X Fdot - gamma (X F - A conj(X) - C) in complex
    arithmetic, and stack(Z) = [vec(Z_re); vec(Z_im)], vec column-major.
    Only the providers are the package's.
    """
    m, n = problem.m, problem.n
    taus = np.arange(steps) * epsilon
    f, a, c = problem.coefficients.over(taus)
    fd, ad, cd = problem.derivatives.over(taus)
    states = np.empty((steps + 1, 2 * m * n))
    x = np.array(x0, dtype=complex)
    states[0] = np.concatenate([x.ravel("F").real, x.ravel("F").imag])
    for k in range(steps):
        u, v = np.kron(f[k].T, np.eye(m)), np.kron(np.eye(n), a[k])
        w = np.block([[u.real - v.real, -(u.imag + v.imag)],
                      [u.imag - v.imag, u.real + v.real]])
        e = x @ f[k] - a[k] @ np.conj(x) - c[k]
        g = (cd[k] + ad[k] @ np.conj(x) - x @ fd[k] - gamma * e).ravel("F")
        d = np.linalg.pinv(w) @ np.concatenate([g.real, g.imag])
        states[k + 1] = states[k] + epsilon * d
        x = (states[k + 1, :m * n] + 1j * states[k + 1, m * n:]).reshape(
            (m, n), order="F")
    return states


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

"""Benchmark-owned ``trig-<m>x<n>-<seed>`` problems of any size.

Every coefficient has the form M0 + M1 sin(tau), so the analytic
derivative is M1 cos(tau).  F0 carries a shift of 3 I and the random
parts are scaled by 1/sqrt(2 * dim), which keeps the spectra of F conj(F)
and A conj(A) apart: the 2mn x 2mn system stays well conditioned for
every seed and no run diverges on the short horizons used here.
"""

from __future__ import annotations

import math

import numpy as np

from dznd import SplitComplexMatrix, SylvesterConjugateProblem

_F_SHIFT = 3.0
_DERIVATIVE_TAUS = (0.3, 1.1, 2.5)
_DIFFERENCE_STEP = 1e-6
_DERIVATIVE_TOLERANCE = 1e-7


def _draw(rng, rows: int, cols: int, scale: float) -> SplitComplexMatrix:
    return SplitComplexMatrix(
        scale * rng.standard_normal((rows, cols)),
        scale * rng.standard_normal((rows, cols)),
    )


def make_trig_problem(m: int, n: int, seed: int) -> SylvesterConjugateProblem:
    """Random problem F0 + F1 sin(t), A0 + A1 sin(t), C0 + C1 sin(t) with
    analytic derivatives and no known solution."""
    rng = np.random.default_rng(seed)
    sf, sa = 1.0 / math.sqrt(2 * n), 1.0 / math.sqrt(2 * m)
    f0 = _draw(rng, n, n, sf)
    f0 = SplitComplexMatrix(f0.re + _F_SHIFT * np.eye(n), f0.im)
    f1 = _draw(rng, n, n, 0.5 * sf)
    a0, a1 = _draw(rng, m, m, sa), _draw(rng, m, m, 0.5 * sa)
    c0, c1 = _draw(rng, m, n, 1.0), _draw(rng, m, n, 1.0)

    def lincomb(m0, m1, w):
        return SplitComplexMatrix(m0.re + w * m1.re, m0.im + w * m1.im)

    def scaled(m1, w):
        return SplitComplexMatrix(w * m1.re, w * m1.im)

    def coefficients(tau):
        s = math.sin(tau)
        return lincomb(f0, f1, s), lincomb(a0, a1, s), lincomb(c0, c1, s)

    def derivatives(tau):
        c = math.cos(tau)
        return scaled(f1, c), scaled(a1, c), scaled(c1, c)

    return SylvesterConjugateProblem(
        m=m, n=n, coefficients=coefficients, derivatives=derivatives,
        label=f"trig-{m}x{n}-{seed}",
    )


def check_derivatives(problem: SylvesterConjugateProblem) -> float:
    """Largest deviation of the analytic derivatives from a central
    difference at a few sample times; raises ValueError past tolerance."""
    h = _DIFFERENCE_STEP
    worst = 0.0
    for tau in _DERIVATIVE_TAUS:
        lo, hi = problem.coefficients(tau - h), problem.coefficients(tau + h)
        for exact, a, b in zip(problem.derivatives(tau), lo, hi):
            for part in ("re", "im"):
                diff = (getattr(b, part) - getattr(a, part)) / (2 * h)
                scale = max(1.0, float(np.abs(getattr(exact, part)).max()))
                dev = float(np.abs(diff - getattr(exact, part)).max()) / scale
                worst = max(worst, dev)
    if worst > _DERIVATIVE_TOLERANCE:
        raise ValueError(
            f"{problem.label}: analytic derivatives deviate from a central "
            f"difference by {worst:.3e} (tolerance {_DERIVATIVE_TOLERANCE:g})"
        )
    return worst

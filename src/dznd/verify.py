"""The property checks of acceptance criteria 1, 2, 6 and 8 and of
criterion 5's modulus table.

Each group re-derives its expected values from an independent route
(direct complex arithmetic, the Penrose axioms, hand-derived constants).
``dznd verify`` runs them to validate a fresh checkout without the test
suite, and ``tests/test_acceptance.py`` calls the same checks, at the
same strength, for its criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    ComplexGain,
    characteristic_roots,
    is_zero_stable,
    zero_stability_roots,
)
from .linalg import (
    SplitComplexMatrix,
    conjugate,
    conjugate_transpose,
    frobenius_norm,
    kron,
    pinv,
    vec,
)
from .problems import PROBLEMS
from .solvers import scalar_error_modulus


@dataclass
class GroupResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)


def _random_split(rng, rows, cols) -> SplitComplexMatrix:
    return SplitComplexMatrix(
        rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols))
    )


def check_kron_vec_identity(seed: int) -> GroupResult:
    """vec(A X B) equals (conj(B^H) kron A) vec(X) within 1e-12, for 1000
    random complex triples and then 1000 real ones."""
    rng = np.random.default_rng(seed)
    worst_complex = worst_real = 0.0
    for _ in range(1000):
        m, k, s, t = rng.integers(1, 4, size=4)
        a, x, b = (_random_split(rng, m, k), _random_split(rng, k, s),
                   _random_split(rng, s, t))
        lhs = vec(a @ x @ b)
        rhs = kron(conjugate(conjugate_transpose(b)), a) @ vec(x)
        # independent route: plain complex arithmetic
        direct = (a.to_complex() @ x.to_complex() @ b.to_complex()).flatten(
            order="F"
        )
        worst_complex = max(
            worst_complex,
            np.abs(lhs.re - rhs.re).max(),
            np.abs(lhs.im - rhs.im).max(),
            np.abs(lhs.to_complex().ravel() - direct).max(),
        )
    for _ in range(1000):
        m, k, s, t = rng.integers(1, 4, size=4)
        a, x, b = (SplitComplexMatrix.from_real(rng.normal(size=shape))
                   for shape in ((m, k), (k, s), (s, t)))
        lhs = vec(a @ x @ b)
        rhs = kron(SplitComplexMatrix.from_real(b.re.T), a) @ vec(x)
        worst_real = max(worst_real, np.abs(lhs.re - rhs.re).max())
    passed = worst_complex <= 1e-12 and worst_real <= 1e-12
    return GroupResult(
        "kron-vec identity",
        passed,
        [
            f"1000 random complex triples, max deviation {worst_complex:.3e}",
            f"1000 real triples, max deviation {worst_real:.3e} (bound 1e-12)",
        ],
    )


def check_penrose_conditions(seed: int) -> GroupResult:
    """All four Penrose axioms within 1e-10 for the SVD pseudo-inverse of
    random square and low-rank matrices and of diag(2, 0)."""
    rng = np.random.default_rng(seed)
    cases = [rng.normal(size=(size, size)) for size in (4, 8, 12)]
    for size, rank in ((6, 2), (12, 5), (9, 4)):
        cases.append(rng.normal(size=(size, rank)) @ rng.normal(size=(rank, size)))
    cases.append(np.diag([2.0, 0.0]))
    worst = 0.0
    for w in cases:
        wp = pinv(w)
        worst = max(
            worst,
            np.abs(w @ wp @ w - w).max(),
            np.abs(wp @ w @ wp - wp).max(),
            np.abs((w @ wp) - (w @ wp).T).max(),
            np.abs((wp @ w) - (wp @ w).T).max(),
        )
    return GroupResult(
        "pseudo-inverse Penrose conditions",
        worst <= 1e-10,
        [f"{len(cases)} matrices up to 12x12, worst deviation {worst:.3e} "
         f"(bound 1e-10)"],
    )


def check_theoretical_solutions() -> GroupResult:
    """Registered exact solutions satisfy their equations within 1e-10 on
    a tau grid."""
    details = []
    passed = True
    for name, factory in sorted(PROBLEMS.items()):
        problem = factory()
        worst = 0.0
        for tau in np.linspace(0.0, 10.0, 101):
            f, a, c = problem.coefficients(tau)
            x = problem.theoretical_solution(tau)
            worst = max(worst, frobenius_norm(x @ f - a @ conjugate(x) - c))
        details.append(
            f"{name}: max residual over 101 times {worst:.3e} (bound 1e-10)"
        )
        passed = passed and worst <= 1e-10
    return GroupResult("theoretical-solution residuals", passed, details)


def check_zero_stability() -> GroupResult:
    roots = zero_stability_roots()
    ok_scheme = (
        roots.shape == (1,)
        and abs(roots[0] - 1.0) <= 1e-12
        and is_zero_stable(roots)
    )
    double_root = characteristic_roots([1.0, -2.0, 1.0])  # (delta - 1)^2
    ok_double = not is_zero_stable(double_root)
    inside = characteristic_roots([-0.5, 1.0])  # delta - 0.5
    ok_inside = is_zero_stable(inside)
    return GroupResult(
        "zero-stability",
        ok_scheme and ok_double and ok_inside,
        [
            f"one-step scheme roots {np.round(roots, 12).tolist()} -> "
            f"0-stable: {is_zero_stable(roots)}",
            f"double unit root counterexample rejected: {ok_double}",
            f"root inside unit circle accepted: {ok_inside}",
        ],
    )


def check_scalar_modulus_table() -> GroupResult:
    """|1 - epsilon*gamma| against hand-derived reference values: 0 at
    gamma = 10, epsilon = 0.1; exactly 2 at gamma = 10 +- 20i,
    epsilon = 0.1 (divergence); 0.9902 within 5e-5 there at
    epsilon = 0.001 (convergence)."""
    gains = [ComplexGain(10.0), ComplexGain(10.0, 20.0), ComplexGain(10.0, -20.0)]
    details = []
    for gain in gains:
        for eps in (0.1, 0.001):
            value = scalar_error_modulus(gain, eps)
            verdict = "diverges" if value > 1.0 else "converges"
            details.append(
                f"gamma={gain} epsilon={eps:g}: modulus={value:.6f} ({verdict})"
            )
    checks = [abs(scalar_error_modulus(gains[0], 0.1)) <= 1e-12]
    for gain in gains[1:]:
        checks.append(scalar_error_modulus(gain, 0.1) == 2.0)
        checks.append(abs(scalar_error_modulus(gain, 0.001) - 0.9902) <= 5e-5)
    return GroupResult("gain-step modulus table", all(checks), details)


def run_verification(seed: int = 0) -> list[GroupResult]:
    return [
        check_kron_vec_identity(seed),
        check_penrose_conditions(seed + 1),
        check_theoretical_solutions(),
        check_zero_stability(),
        check_scalar_modulus_table(),
    ]

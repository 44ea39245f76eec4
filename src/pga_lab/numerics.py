"""Small numerical kernels that serve as independent routes for checks.

No library code integrates with adaptive_simpson: the bid expectations are
Gauss-Legendre sums in t = log z (Equilibrium._tail_integral). It is kept
only as an independent quadrature for tests. bisection_inverse checks the
algebraic inverses.
"""

from __future__ import annotations

from typing import Callable


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_depth: int = 20,
) -> float:
    """Integrate f on [a, b] by adaptive Simpson with Richardson correction.

    tol is an absolute tolerance on the whole interval; the integrand is
    assumed smooth on a compact interval, so 20 refinement levels are ample.
    """
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def bisection_inverse(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve f(x) = target for non-decreasing f on [lo, hi] by bisection."""
    flo, fhi = f(lo), f(hi)
    if target <= flo:
        return lo
    if target >= fhi:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)

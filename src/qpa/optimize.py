"""Scalar optimisers: golden-section maximisation of a unimodal function, and
the root of a nondecreasing function by Newton's method safeguarded by
bisection, which locates the maximum of an objective whose derivative is a
negative multiple of it (a stationarity condition).
"""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = 2.0**-52
_ROOT_STEPS = 200  # a cap: bisection alone reaches the few-ulp stop at x in about 52 + log2(1/x) steps


def golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]`` to width ``tol``.

    Endpoints are always candidates, so weakly monotone objectives resolve
    to an exact boundary argument instead of a point just inside it.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = (a + b) / 2
    f_lo, f_hi, f_mid = f(lo), f(hi), f(mid)
    best_f = max(f_lo, f_hi, f_mid)
    # prefer an exact endpoint on near-ties within the search width
    if f_hi >= best_f - 1e-15 and f_hi >= f_lo:
        return hi, f_hi
    if f_lo >= best_f - 1e-15:
        return lo, f_lo
    return mid, f_mid


def increasing_root(fn, lo: float, hi: float) -> float:
    """Root of a nondecreasing ``h`` on ``[lo, hi]``, clamped to the interval.

    ``fn(x)`` returns ``(h(x), h'(x))``. Returns ``lo`` when ``h(lo) >= 0``
    and ``hi`` when ``h(hi) <= 0``. Otherwise Newton steps shrink a sign
    bracket, with a bisection step wherever Newton would leave the bracket
    or ``h'`` vanishes, until a step moves ``x`` by at most a few ulps.
    """
    h_lo, _ = fn(lo)
    if h_lo >= 0.0:
        return lo
    h_hi, _ = fn(hi)
    if h_hi <= 0.0:
        return hi
    a, b = lo, hi
    x = 0.5 * (a + b)
    for _ in range(_ROOT_STEPS):
        h, dh = fn(x)
        if h == 0.0:
            return x
        if h < 0.0:
            a = x
        else:
            b = x
        step = x - h / dh if dh > 0.0 else math.nan
        if not a < step < b:
            step = 0.5 * (a + b)
        if abs(step - x) <= 4.0 * _EPS * abs(step):
            return step
        x = step
    return x

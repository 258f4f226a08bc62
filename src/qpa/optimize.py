"""Scalar optimisers: golden-section maximisation of a unimodal function, and
the root of a nondecreasing function by regula falsi safeguarded by
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
    """Root of a nondecreasing ``h = fn`` on ``[lo, hi]``, clamped to the interval.

    Returns ``lo`` when ``h(lo) >= 0`` and ``hi`` when ``h(hi) <= 0``.
    Otherwise regula falsi with the Illinois modification (when a step lands
    on the same side as the one before, halve the value kept at the other
    end) shrinks a sign bracket, with a bisection step wherever a step would
    leave the bracket, until the bracket is two ulps wide; its midpoint is
    the root.
    """
    f_lo = fn(lo)
    if f_lo >= 0.0:
        return lo
    f_hi = fn(hi)
    if f_hi <= 0.0:
        return hi
    x0, f0, x1, f1 = lo, f_lo, hi, f_hi  # a sign bracket; x1 is the latest point
    for _ in range(_ROOT_STEPS):
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not min(x0, x1) < x < max(x0, x1):
            x = 0.5 * (x0 + x1)
        h = fn(x)
        if h == 0.0:
            return x
        if (h > 0.0) == (f1 > 0.0):
            f0 *= 0.5
        else:
            x0, f0 = x1, f1
        x1, f1 = x, h
        if abs(x1 - x0) <= 2.0 * _EPS * max(abs(x0), abs(x1)):
            break
    return 0.5 * (x0 + x1)

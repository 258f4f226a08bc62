"""``increasing_roots``, the roots of nondecreasing functions by regula falsi safeguarded by bisection, stepped
in lockstep, serves every qpa search, each a stationarity condition. ``golden_max``, a maximiser, has no qpa caller;
the benchmark harness wraps it by name.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = 2.0**-52
_ROOT_STEPS = 200  # a cap: bisection alone reaches the few-ulp stop at x in about 52 + log2(1/x) steps


def golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]`` to width ``tol``; no qpa code calls it.

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


def increasing_roots(fn, f_lo, f_hi, lo: float, hi: float) -> np.ndarray:
    """Roots of many nondecreasing functions ``h`` on one ``[lo, hi]``, each clamped to the interval.

    ``f_lo`` and ``f_hi`` hold each row's values at the ends, and ``fn(x, rows)`` the values at ``x`` of the rows
    ``rows`` still searching. A row is ``lo`` when ``h(lo) >= 0`` and ``hi`` when ``h(hi) <= 0``. Otherwise regula
    falsi with the Illinois modification (when a step lands on the same side as the one before, halve the value kept
    at the other end) shrinks a sign bracket, with a bisection step wherever a step would leave the bracket, until
    the bracket is two ulps wide; its midpoint is the root. The rows step in lockstep, but each takes the steps of
    its own scalar search (``tests/root_oracle.py``), so a root does not depend on the rows beside it.
    """
    f_lo, f_hi = np.asarray(f_lo, dtype=float), np.asarray(f_hi, dtype=float)
    roots = np.where(f_lo >= 0.0, float(lo), float(hi))
    rows = np.flatnonzero(~(f_lo >= 0.0) & ~(f_hi <= 0.0))
    x0, f0, x1, f1 = np.full(rows.size, float(lo)), f_lo[rows], np.full(rows.size, float(hi)), f_hi[rows]
    for _ in range(_ROOT_STEPS):
        if not rows.size:
            break
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        x = np.where((np.minimum(x0, x1) < x) & (x < np.maximum(x0, x1)), x, 0.5 * (x0 + x1))
        h = fn(x, rows)
        same = (h > 0.0) == (f1 > 0.0)
        x0, f0, x1, f1 = np.where(same, x0, x1), np.where(same, 0.5 * f0, f1), x, h
        roots[rows] = np.where(h == 0.0, x, 0.5 * (x0 + x1))  # each row's root, were it to stop here
        keep = (h != 0.0) & (np.abs(x1 - x0) > 2.0 * _EPS * np.maximum(np.abs(x0), np.abs(x1)))
        rows, x0, f0, x1, f1 = rows[keep], x0[keep], f0[keep], x1[keep], f1[keep]
    return roots

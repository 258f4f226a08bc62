"""Scalar reference for the lockstep roots of ``qpa.optimize``.

One root of one nondecreasing function at a time, in plain Python floats
with no array code; the independent oracle for ``increasing_roots``, each
of whose rows must take these steps bit for bit.
"""

from qpa.optimize import _EPS, _ROOT_STEPS


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

"""Asymptotic layer: decay exponents of the leaked information and key rates.

``e_H`` is the guaranteed exponential decay rate of the averaged leaked
information under universal_2 hashing at key rate R; ``e_H_q`` and
``e_phi_q`` are the rates obtainable through the smoothing method, computed
for comparison; ``e_H / 2`` lower-bounds the trace-distance exponent. Each
is the maximum of a unimodal objective, found at the root of its
stationarity numerator. The rate layer reports the optimal secret-key
generation rate ``H(A|E)``, the equivocation (Eve's ambiguity) rate, and
the minimum leaked-information rate for a given key rate.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .cqstate import CQState
from .hermitian import SizeCapError
from .optimize import increasing_roots

LEMMA_TOL = 1e-9
STEPS_CAP = 2**16  # rates on one curve: 1.4 s of rows on random_cq(1, 4, 3), 2 vCPUs


class ExponentComparisonError(RuntimeError):
    """Computed exponents violate the comparison inequalities they must satisfy."""


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")


def fmt(x: float) -> str:
    """Twelve significant digits, negative zero as zero: the number format of every output."""
    return format(x + 0.0, ".12g")


def _stationary_max(evaluate, ends, rates: np.ndarray, hi: float, *, numerator, objective):
    """``(values, args)``: per rate, the maximum on ``[0, hi]`` of ``objective``, where ``objective(0) = 0``
    and its derivative is a negative multiple of the nondecreasing ``numerator``.

    Both read ``(x, f, f', rate)``: ``evaluate`` gives ``(f, f')`` at a 1-d array of orders, ``ends`` at 0 and ``hi``
    as floats. The maximum sits at the numerator's root clamped to ``[0, hi]``, one ``increasing_roots`` row per
    rate; ``hi`` also wins when its value is within 1e-15 of the interior one, so a flat objective resolves to the
    exact endpoint rather than a point inside it. The anchor ``objective(0)`` is identically zero, so a maximum
    below the double-precision noise floor of the objective is zero, not decay.
    """
    f_lo, f_hi = (numerator(x, *ends[x], rates) for x in (0.0, hi))
    x = increasing_roots(lambda x, rows: numerator(x, *evaluate(x), rates[rows]), f_lo, f_hi, 0.0, hi)
    at_hi = objective(hi, *ends[hi], rates)
    f_x = np.where(x > 0.0, at_hi, 0.0)  # the clamped rows; the interior ones follow
    if (inside := (0.0 < x) & (x < hi)).any():
        f_x[inside] = objective(x[inside], *evaluate(x[inside]), rates[inside])
    x, f_x = np.where(better := inside & (at_hi >= f_x - 1e-15), hi, x), np.where(better, at_hi, f_x)
    return np.where(f_x > 1e-15, f_x, 0.0), np.where(f_x > 1e-15, x, 0.0)


def _e_H(rates, moments, ends):
    """``max_{0<=s<=1} s (H_{1+s}(A|E) - R)`` at the root of its derivative.

    With ``psi(s) = -s H_{1+s}(A|E)`` convex, the objective ``-psi(s) - s R``
    is concave with derivative ``-(psi'(s) + R)``, so its maximum is the root
    of the nondecreasing ``psi'(s) + R`` clamped to ``[0, 1]``; a vanishing
    optimum clamps to zero (no decay guaranteed).
    """
    return _stationary_max(
        moments, ends, rates, 1.0,
        numerator=lambda s, psi, d1, r: d1 + r,
        objective=lambda s, psi, d1, r: s * (-psi / s - r),
    )


def _e_H_q(rates, moments, ends):
    """Smoothing-method exponent ``max_{0<=s<=1} s/(2-s) (H_{1+s}(A|E) - R)``.

    The objective is ``-(psi(s) + s R) / (2-s)`` with ``psi(s) = -s H_{1+s}``,
    and its derivative is ``-N(s) / (2-s)^2`` with the stationarity
    numerator ``N(s) = (2-s) psi'(s) + psi(s) + 2R``. ``N' = (2-s) psi''``
    is nonnegative, so the objective is unimodal and peaks at the root of
    ``N`` clamped to ``[0, 1]``.
    """
    return _stationary_max(
        moments, ends, rates, 1.0,
        numerator=lambda s, psi, d1, r: (2.0 - s) * d1 + psi + 2.0 * r,
        objective=lambda s, psi, d1, r: s / (2.0 - s) * (-psi / s - r),
    )


def _e_phi_q(rates, phi_and_slopes, ends):
    """Smoothing-method exponent ``max_{0<=t<=1/2} -(phi(t) + t R) / (2(1-t))``.

    The objective's derivative is ``-N(t) / (2(1-t)^2)`` with the
    stationarity numerator ``N(t) = (1-t)(phi'(t) + R) + phi(t) + t R``.
    ``N' = (1-t) phi''`` is nonnegative because ``phi`` is convex, so the
    objective is unimodal and peaks at the root of ``N`` clamped to
    ``[0, 1/2]``.
    """
    return _stationary_max(
        phi_and_slopes, ends, rates, 0.5,
        numerator=lambda t, phi, d1, r: (1.0 - t) * (d1 + r) + phi + t * r,
        objective=lambda t, phi, d1, r: -(phi + t * r) / (2.0 * (1.0 - t)),
    )


@dataclasses.dataclass(frozen=True)
class CurveRow:
    R: float
    e_H: float
    s_star_H: float
    e_H_q: float
    s_star_Hq: float
    e_phi_q: float
    t_star: float
    e_d_lower: float


CSV_HEADER = ",".join(field.name for field in dataclasses.fields(CurveRow))


@dataclasses.dataclass(frozen=True)
class ExponentCurve:
    rows: tuple[CurveRow, ...]

    def to_csv_text(self) -> str:
        # a row's __dict__ holds its fields in declaration order; astuple would deep-copy every value
        lines = [CSV_HEADER] + [",".join(fmt(v) for v in vars(r).values()) for r in self.rows]
        return "\n".join(lines) + "\n"


def exponent_rows(state: CQState, rates: Sequence[float]) -> list[CurveRow]:
    """All exponents at each key rate, with the comparison inequalities enforced.

    Every rate is checked before anything is evaluated. The roots of all rates share their
    bracket ends, evaluated once here: ``(psi, psi')`` at s = 0 and 1, and ``(phi, phi')``
    at t = 0 and 1/2. Each exponent's roots then step together: a step takes ``(psi, psi')`` from
    one moment grid and ``(phi, phi')`` from one stacked SVD. The first rate that breaks an inequality is named.
    """
    for rate in rates:
        _check_rate(rate)
    dec = state.decomposition
    moment_ends = {s: dec.renyi_cond_moments(s) for s in (0.0, 1.0)}
    phi_ends = {t: dec.phi_and_slope(t) for t in (0.0, 0.5)}
    r = np.array(rates, dtype=float)
    e_h, s_h = _e_H(r, dec.renyi_cond_moments_grid, moment_ends)
    columns = (r, e_h, s_h, *_e_H_q(r, dec.renyi_cond_moments_grid, moment_ends))
    columns += (*_e_phi_q(r, dec.phi_and_slope_grid, phi_ends), e_h / 2.0)
    rows = [CurveRow(*values) for values in np.column_stack(np.broadcast_arrays(*columns)).tolist()]
    for row in rows:
        if not (
            row.e_H >= row.e_H_q - LEMMA_TOL
            and row.e_H >= row.e_phi_q - LEMMA_TOL
            and row.e_phi_q >= row.e_H / 2.0 - LEMMA_TOL
        ):
            raise ExponentComparisonError(f"exponent comparison inequalities violated at R={row.R}: {row}")
    return rows


def exponent_row(state: CQState, rate: float) -> CurveRow:
    """All exponents at one key rate: ``exponent_rows`` of the one rate."""
    return exponent_rows(state, [rate])[0]


def exponent_curve(state: CQState, r_min: float, r_max: float, steps: int) -> ExponentCurve:
    """Rows at ``steps`` uniformly spaced rates in ``[r_min, r_max]``."""
    if not (0.0 <= r_min < r_max < math.inf):
        raise ValueError(f"need 0 <= r_min < r_max < inf, got [{r_min}, {r_max}]")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if steps > STEPS_CAP:
        raise SizeCapError(f"{steps} steps exceed the curve cap {STEPS_CAP}")
    if not math.isfinite((r_max - r_min) * (steps - 1)):
        raise ValueError(f"rate grid r_min={r_min}, r_max={r_max}, steps={steps} overflows a double")
    rates_list = [r_min + (r_max - r_min) * i / (steps - 1) for i in range(steps)]
    return ExponentCurve(tuple(exponent_rows(state, rates_list)))


@dataclasses.dataclass(frozen=True)
class RatePoint:
    R: float
    equivocation: float
    min_leak_rate: float
    optimal_rate: float  # the largest asymptotically secret key rate, H(A|E)


def rates(state: CQState, rate: float) -> RatePoint:
    """Equivocation and minimum leaked-information rate at key rate R.

    Above the optimal rate ``H(A|E)`` Eve's ambiguity saturates at
    ``H(A|E)``; below it the key is asymptotically fully secret, so the
    ambiguity equals R itself and nothing must leak.
    """
    _check_rate(rate)
    h_cond = state.decomposition.cond_entropy()
    return RatePoint(
        R=rate,
        equivocation=min(rate, h_cond),
        min_leak_rate=max(rate - h_cond, 0.0),
        optimal_rate=h_cond,
    )

"""Asymptotic layer: decay exponents of the leaked information and key rates.

``e_H`` is the guaranteed exponential decay rate of the averaged leaked
information under universal_2 hashing at key rate R; ``e_H_q`` and
``e_phi_q`` are the rates obtainable through the smoothing method, computed
for comparison; ``e_H / 2`` lower-bounds the trace-distance exponent. The
rate layer reports the optimal secret-key generation rate ``H(A|E)``, the
equivocation (Eve's ambiguity) rate, and the minimum leaked-information
rate for a given key rate.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cqstate import CQState
from .optimize import golden_max, increasing_root
from .quantities import T_GRID

LEMMA_TOL = 1e-9


class ExponentComparisonError(RuntimeError):
    """Computed exponents violate the comparison inequalities they must satisfy."""


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")


def fmt(x: float) -> str:
    """Twelve significant digits, negative zero as zero: the number format of every output."""
    return format(x + 0.0, ".12g")


@dataclasses.dataclass(frozen=True)
class ExponentPoint:
    value: float
    arg: float


def _clamped(point: tuple[float, float]) -> ExponentPoint:
    # the s = 0 / t = 0 anchor is identically zero, so optima below the
    # double-precision noise floor of the objective are zeros, not decay
    arg, val = point
    if val <= 1e-15:
        return ExponentPoint(0.0, 0.0)
    return ExponentPoint(val, arg)


def _stationary_max(objective, numerator) -> tuple[float, float]:
    """Maximize ``objective`` on ``[0, 1]``, where ``objective(0) = 0`` and its
    derivative is a negative multiple of the nondecreasing ``numerator``.

    ``numerator(s)`` returns its value and derivative. The maximum sits at
    the numerator's root clamped to ``[0, 1]``; s = 1 also wins when its
    value is within 1e-15 of the interior one, the endpoint rule of
    ``golden_max``.
    """
    s = increasing_root(numerator, 0.0, 1.0)
    if s == 0.0:
        return 0.0, 0.0
    f_s = objective(s)
    if s < 1.0:
        f_1 = objective(1.0)
        if f_1 >= f_s - 1e-15:
            return 1.0, f_1
    return s, f_s


def exponent_e_H(state: CQState, rate: float) -> ExponentPoint:
    """``max_{0<=s<=1} s (H_{1+s}(A|E) - R)`` at the root of its derivative.

    With ``psi(s) = -s H_{1+s}(A|E)`` convex, the objective ``-psi(s) - s R``
    is concave with derivative ``-(psi'(s) + R)``, so its maximum is the root
    of the nondecreasing ``psi'(s) + R`` clamped to ``[0, 1]``; a vanishing
    optimum clamps to zero (no decay guaranteed).
    """
    _check_rate(rate)
    dec = state.decomposition

    def objective(s: float) -> float:
        return s * (dec.renyi_cond(s) - rate)

    def numerator(s: float) -> tuple[float, float]:
        _, d1, d2 = dec.renyi_cond_moments(s)
        return d1 + rate, d2

    return _clamped(_stationary_max(objective, numerator))


def _grid_refine(objective, xs: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Golden-polish the best grid point within one step on either side."""
    i = int(np.argmax(values))
    lo = float(xs[max(0, i - 1)])
    hi = float(xs[min(len(xs) - 1, i + 1)])
    x, fx = golden_max(objective, lo, hi, tol=1e-10)
    if fx >= float(values[i]):
        return x, fx
    return float(xs[i]), float(values[i])


def exponent_e_H_q(state: CQState, rate: float) -> ExponentPoint:
    """Smoothing-method exponent ``max_{0<=s<=1} s/(2-s) (H_{1+s}(A|E) - R)``.

    The objective is ``-(psi(s) + s R) / (2-s)`` with ``psi(s) = -s H_{1+s}``,
    and its derivative is ``-N(s) / (2-s)^2`` with the stationarity
    numerator ``N(s) = (2-s) psi'(s) + psi(s) + 2R``. ``N' = (2-s) psi''``
    is nonnegative, so the objective is unimodal and peaks at the root of
    ``N`` clamped to ``[0, 1]``.
    """
    _check_rate(rate)
    dec = state.decomposition

    def objective(s: float) -> float:
        return s / (2.0 - s) * (dec.renyi_cond(s) - rate)

    def numerator(s: float) -> tuple[float, float]:
        psi, d1, d2 = dec.renyi_cond_moments(s)
        return (2.0 - s) * d1 + psi + 2.0 * rate, (2.0 - s) * d2

    return _clamped(_stationary_max(objective, numerator))


def exponent_e_phi_q(state: CQState, rate: float) -> ExponentPoint:
    """Smoothing-method exponent ``max_{0<=t<=1/2} -(phi(t) + t R) / (2(1-t))``.

    The 1001-point ``T_GRID`` locates the basin before the local golden
    refinement.
    """
    _check_rate(rate)
    dec = state.decomposition
    xs = T_GRID
    values = -(dec.phi_on_t_grid + xs * rate) / (2.0 * (1.0 - xs))

    def objective(t: float) -> float:
        return -(dec.phi(t) + t * rate) / (2.0 * (1.0 - t))

    return _clamped(_grid_refine(objective, xs, values))


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


CSV_HEADER = "R,e_H,s_star_H,e_H_q,s_star_Hq,e_phi_q,t_star,e_d_lower"


@dataclasses.dataclass(frozen=True)
class ExponentCurve:
    rows: tuple[CurveRow, ...]

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    fmt(v)
                    for v in (r.R, r.e_H, r.s_star_H, r.e_H_q, r.s_star_Hq, r.e_phi_q, r.t_star, r.e_d_lower)
                )
            )
        return "\n".join(lines) + "\n"


def exponent_row(state: CQState, rate: float) -> CurveRow:
    """All exponents at one key rate, with the comparison inequalities enforced."""
    e_h = exponent_e_H(state, rate)
    e_hq = exponent_e_H_q(state, rate)
    e_pq = exponent_e_phi_q(state, rate)
    row = CurveRow(
        R=rate,
        e_H=e_h.value,
        s_star_H=e_h.arg,
        e_H_q=e_hq.value,
        s_star_Hq=e_hq.arg,
        e_phi_q=e_pq.value,
        t_star=e_pq.arg,
        e_d_lower=e_h.value / 2.0,
    )
    if not (
        row.e_H >= row.e_H_q - LEMMA_TOL
        and row.e_H >= row.e_phi_q - LEMMA_TOL
        and row.e_phi_q >= row.e_H / 2.0 - LEMMA_TOL
    ):
        raise ExponentComparisonError(f"exponent comparison inequalities violated at R={rate}: {row}")
    return row


def exponent_curve(state: CQState, r_min: float, r_max: float, steps: int) -> ExponentCurve:
    """Rows at ``steps`` uniformly spaced rates in ``[r_min, r_max]``."""
    if not (0.0 <= r_min < r_max < math.inf):
        raise ValueError(f"need 0 <= r_min < r_max < inf, got [{r_min}, {r_max}]")
    if steps < 2:
        raise ValueError("need at least 2 steps")
    rates_list = [r_min + (r_max - r_min) * i / (steps - 1) for i in range(steps)]
    return ExponentCurve(tuple(exponent_row(state, r) for r in rates_list))


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

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
from .optimize import golden_max
from .quantities import StateDecomposition

LEMMA_TOL = 1e-9

# search grids of the smoothing-method exponents: s in [0, 1] and t in [0, 1/2]
S_GRID = np.linspace(0.0, 1.0, 1001)
T_GRID = np.linspace(0.0, 0.5, 1001)
S_GRID.setflags(write=False)
T_GRID.setflags(write=False)


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


def exponent_e_H(state: CQState, rate: float, *, _dec: StateDecomposition | None = None) -> ExponentPoint:
    """``max_{0<=s<=1} s (H_{1+s}(A|E) - R)`` via golden section.

    The objective ``s H_{1+s} - s R`` is concave in s, so golden section
    converges; a negative optimum clamps to zero (no decay guaranteed).
    """
    _check_rate(rate)
    dec = _dec if _dec is not None else StateDecomposition(state)

    def objective(s: float) -> float:
        return s * (dec.renyi_cond(s) - rate)

    return _clamped(golden_max(objective, 0.0, 1.0, tol=1e-10))


def _grid_refine(objective, xs: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Golden-polish the best grid point within one step on either side."""
    i = int(np.argmax(values))
    lo = float(xs[max(0, i - 1)])
    hi = float(xs[min(len(xs) - 1, i + 1)])
    x, fx = golden_max(objective, lo, hi, tol=1e-10)
    if fx >= float(values[i]):
        return x, fx
    return float(xs[i]), float(values[i])


def exponent_e_H_q(
    state: CQState,
    rate: float,
    *,
    _dec: StateDecomposition | None = None,
    _h_grid: np.ndarray | None = None,
) -> ExponentPoint:
    """Smoothing-method exponent ``max_{0<=s<=1} s/(2-s) (H_{1+s}(A|E) - R)``.

    The objective is not certified concave, so a 1001-point grid locates
    the basin before the local golden refinement. ``_h_grid`` is
    ``H_{1+s}`` on ``S_GRID``, which does not depend on the rate.
    """
    _check_rate(rate)
    dec = _dec if _dec is not None else StateDecomposition(state)
    xs = S_GRID
    h_grid = _h_grid if _h_grid is not None else dec.renyi_cond_grid(xs)
    values = xs / (2.0 - xs) * (h_grid - rate)

    def objective(s: float) -> float:
        return s / (2.0 - s) * (dec.renyi_cond(s) - rate)

    return _clamped(_grid_refine(objective, xs, values))


def exponent_e_phi_q(
    state: CQState,
    rate: float,
    *,
    _dec: StateDecomposition | None = None,
    _phi_grid: np.ndarray | None = None,
) -> ExponentPoint:
    """Smoothing-method exponent ``max_{0<=t<=1/2} -(phi(t) + t R) / (2(1-t))``.

    ``_phi_grid`` is ``phi`` on ``T_GRID``, which does not depend on the rate.
    """
    _check_rate(rate)
    dec = _dec if _dec is not None else StateDecomposition(state)
    xs = T_GRID
    phi_grid = _phi_grid if _phi_grid is not None else dec.phi_grid(xs)
    values = -(phi_grid + xs * rate) / (2.0 * (1.0 - xs))

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


def exponent_row(
    state: CQState,
    rate: float,
    *,
    _dec: StateDecomposition | None = None,
    _h_grid: np.ndarray | None = None,
    _phi_grid: np.ndarray | None = None,
) -> CurveRow:
    """All exponents at one key rate, with the comparison inequalities enforced."""
    dec = _dec if _dec is not None else StateDecomposition(state)
    e_h = exponent_e_H(state, rate, _dec=dec)
    e_hq = exponent_e_H_q(state, rate, _dec=dec, _h_grid=_h_grid)
    e_pq = exponent_e_phi_q(state, rate, _dec=dec, _phi_grid=_phi_grid)
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
    dec = StateDecomposition(state)
    rates_list = [r_min + (r_max - r_min) * i / (steps - 1) for i in range(steps)]
    h_grid = dec.renyi_cond_grid(S_GRID)
    phi_grid = dec.phi_grid(T_GRID)
    rows = [exponent_row(state, r, _dec=dec, _h_grid=h_grid, _phi_grid=phi_grid) for r in rates_list]
    return ExponentCurve(tuple(rows))


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
    h_cond = StateDecomposition(state).cond_entropy()
    return RatePoint(
        R=rate,
        equivocation=min(rate, h_cond),
        min_leak_rate=max(rate - h_cond, 0.0),
        optimal_rate=h_cond,
    )

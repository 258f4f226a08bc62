import collections
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from qpa.cli import main
from qpa.cqstate import make_cq_state, preset, random_cq, tensor_power
from qpa.exponents import (
    CSV_HEADER,
    exponent_curve,
    exponent_row,
    exponent_rows,
    fmt,
    rates,
)
from qpa.quantities import StateDecomposition

from conftest import pure_eve_state
from renyi_oracle import DPS, phi_reference, psi_reference

DATA = Path(__file__).parent / "data"
LOG2 = math.log(2.0)

# frozen 10^4-point dense-grid maxima for the tilted-qubit state at R = 0.2
TILTED_E_H = 0.047599218460630
TILTED_E_H_Q = 0.031450825085019
TILTED_E_PHI_Q = 0.029169115010604


def test_product_closed_forms():
    st = preset("product")
    for rate in (0.0, 0.3, 0.6):
        row = exponent_row(st, rate)
        assert row.e_H == pytest.approx(LOG2 - rate, abs=1e-9)
        assert row.s_star_H == pytest.approx(1.0, abs=1e-9)
        assert row.e_H_q == pytest.approx(LOG2 - rate, abs=1e-9)
        assert row.s_star_Hq == pytest.approx(1.0, abs=1e-9)
        assert row.e_phi_q == pytest.approx((LOG2 - rate) / 2, abs=1e-9)
        assert row.t_star == pytest.approx(0.5, abs=1e-9)


def test_copy_exponents_vanish():
    st = preset("copy")
    for rate in (0.1, 0.5, 1.0):
        row = exponent_row(st, rate)
        assert row.e_H == 0.0 and row.e_H_q == 0.0 and row.e_phi_q == 0.0


def test_exponents_vanish_above_capacity(corpus_states):
    for name, st in corpus_states.items():
        rate = math.log(st.alphabet_size) + 1.0
        row = exponent_row(st, rate)
        assert row.e_H == 0.0 and row.e_H_q == 0.0 and row.e_phi_q == 0.0, name
        assert row.s_star_H == 0.0


def test_positivity_threshold_at_conditional_entropy():
    for st in (preset("tilted-qubit"), random_cq(5, 4, 2)):
        h = StateDecomposition(st).cond_entropy()
        assert exponent_row(st, h - 1e-6).e_H > 0.0
        assert exponent_row(st, h).e_H == 0.0
        assert exponent_row(st, h + 0.1).e_H == 0.0


def test_tilted_exponents_match_frozen_grid():
    st = preset("tilted-qubit")
    row = exponent_row(st, 0.2)
    assert row.e_H >= TILTED_E_H - 1e-12  # refinement can only raise a grid max
    assert row.e_H == pytest.approx(TILTED_E_H, abs=1e-8)
    assert row.e_H_q >= TILTED_E_H_Q - 1e-12
    assert row.e_H_q == pytest.approx(TILTED_E_H_Q, abs=1e-9)
    assert row.e_phi_q >= TILTED_E_PHI_Q - 1e-12
    assert row.e_phi_q == pytest.approx(TILTED_E_PHI_Q, abs=1e-8)
    assert TILTED_E_H / 2 <= row.e_phi_q <= row.e_H


def test_against_independent_dense_grid_via_joint_path():
    from qpa.quantities import renyi_cond_joint

    st = preset("tilted-qubit")
    rate = 0.35
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [s * (renyi_cond_joint(st, float(s)) - rate) for s in grid]
    oracle = max(max(vals), 0.0)
    got = exponent_row(st, rate).e_H
    assert got >= oracle - 1e-12
    assert got == pytest.approx(oracle, abs=1e-7)


def test_comparison_lemma_rows(corpus_states):
    for name in (
        "tilted-qubit",
        "bb84(0.39269908169872414)",
        "random(seed=0,|A|=4,d_E=2)",
        "random(seed=1,|A|=4,d_E=3)",
    ):
        st = corpus_states[name]
        for rate in np.linspace(0.0, math.log(st.alphabet_size), 7):
            row = exponent_row(st, float(rate))
            assert row.e_H >= row.e_H_q - 1e-9, name
            assert row.e_H >= row.e_phi_q - 1e-9, name
            assert row.e_phi_q >= row.e_H / 2 - 1e-9, name
            assert row.e_d_lower == row.e_H / 2


def test_exponent_curve_structure_and_monotonicity():
    st = preset("tilted-qubit")
    curve = exponent_curve(st, 0.0, LOG2, 21)
    assert len(curve.rows) == 21
    assert curve.rows[0].R == 0.0 and curve.rows[-1].R == pytest.approx(LOG2)
    e_h = [row.e_H for row in curve.rows]
    assert all(b <= a + 1e-12 for a, b in zip(e_h, e_h[1:]))
    with pytest.raises(ValueError):
        exponent_curve(st, 0.5, 0.2, 5)
    with pytest.raises(ValueError):
        exponent_curve(st, 0.0, 1.0, 1)


def test_product_curve_closed_form():
    curve = exponent_curve(preset("product"), 0.0, LOG2, 5)
    for row in curve.rows:
        assert row.e_H == pytest.approx(max(LOG2 - row.R, 0.0), abs=1e-9)
        assert row.e_phi_q == pytest.approx(max(LOG2 - row.R, 0.0) / 2, abs=1e-9)


def test_csv_text_format():
    curve = exponent_curve(preset("product"), 0.0, LOG2, 3)
    text = curve.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert len(first) == 8
    assert first[0] == "0"
    # 12 significant digits, no negative zeros
    assert lines[3].split(",")[1] in ("0", "1e-16")  # e_H at R = log 2
    assert "-0," not in text and not text.endswith("-0\n")
    assert lines[1].split(",")[1] == format(LOG2, ".12g")


def test_rates_points():
    st = preset("product")
    point = rates(st, 1.0)
    assert point.equivocation == pytest.approx(LOG2, abs=1e-10)
    assert point.min_leak_rate == pytest.approx(1.0 - LOG2, abs=1e-10)
    assert point.optimal_rate == pytest.approx(LOG2, abs=1e-10)
    point = rates(st, 0.3)
    assert point.equivocation == pytest.approx(0.3, abs=1e-10)
    assert point.min_leak_rate == 0.0

    point = rates(preset("copy"), 0.5)
    assert point.equivocation == pytest.approx(0.0, abs=1e-10)
    assert point.min_leak_rate == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        rates(st, -0.1)


def test_min_leak_rate_piecewise_linear_with_kink():
    st = preset("tilted-qubit")
    h = StateDecomposition(st).cond_entropy()
    rs = np.linspace(0.0, 2 * h, 9)
    leaks = np.array([rates(st, float(r)).min_leak_rate for r in rs])
    # zero below the kink, slope one above it
    assert np.all(leaks[rs <= h] == 0.0)
    above = rs > h
    assert np.allclose(leaks[above], rs[above] - h, atol=1e-12)
    second = leaks[:-2] - 2 * leaks[1:-1] + leaks[2:]
    assert np.all(second >= -1e-12)  # convex


def test_equivocation_saturates_at_conditional_entropy(corpus_states):
    for name, st in corpus_states.items():
        h = StateDecomposition(st).cond_entropy()
        assert rates(st, h + 0.5).equivocation == pytest.approx(h, abs=1e-12), name
        assert rates(st, h / 2).equivocation == pytest.approx(h / 2, abs=1e-12), name


def test_curve_evaluates_each_search_grid_once(monkeypatch):
    calls = []
    for attr in ("renyi_cond_grid", "phi_grid"):
        original = getattr(StateDecomposition, attr)

        def counted(self, values, _original=original, _attr=attr):
            if np.size(values) > 1:  # scalar renyi_cond(s) and phi(t) go through the grids too
                calls.append(_attr)
            return _original(self, values)

        monkeypatch.setattr(StateDecomposition, attr, counted)
    curve = exponent_curve(preset("tilted-qubit"), 0.0, 0.6, 7)
    assert len(curve.rows) == 7
    assert calls == []  # renyi_cond_grid and phi_grid see one point at a time: no exponent searches a grid


def _count_kernel_calls(monkeypatch) -> collections.Counter:
    """Counts of the Renyi moment, Renyi grid and phi evaluations from now on, by kind and order.

    Counted through the public methods, one per order of an array call: the scalar ``renyi_cond``
    goes through its grid, the moments of many orders through ``renyi_cond_moments_grid``, and
    ``phi``, ``phi_grid`` and ``phi_and_slope`` through ``phi_and_slope_grid``, counted there alone.
    """
    calls = collections.Counter()
    original_moments = StateDecomposition.renyi_cond_moments

    def counted_moments(self, s):
        calls["moments", float(s)] += 1
        return original_moments(self, s)

    monkeypatch.setattr(StateDecomposition, "renyi_cond_moments", counted_moments)
    grids = (
        ("renyi_cond_moments_grid", "moments"),
        ("renyi_cond_grid", "renyi"),
        ("renyi_cond_bar_star_grid", "renyi_bar_star"),
        ("phi_and_slope_grid", "phi"),
    )
    for attr, kind in grids:
        original = getattr(StateDecomposition, attr)

        def counted_grid(self, values, _original=original, _kind=kind):
            calls.update((_kind, x) for x in np.asarray(values, dtype=float).tolist())
            return _original(self, values)

        monkeypatch.setattr(StateDecomposition, attr, counted_grid)
    return calls


def test_curve_evaluates_each_bracket_end_once(monkeypatch):
    # every rate's roots start from s = 0, 1 and t = 0, 1/2; the curve evaluates each end once,
    # and reads H_{1+s} = -psi(s) / s from the moments, never from a Renyi grid
    state = random_cq(1, 4, 3)
    calls = _count_kernel_calls(monkeypatch)
    exponent_curve(state, 0.0, math.log(4), 201)
    ends = [("moments", 0.0), ("moments", 1.0), ("phi", 0.0), ("phi", 0.5)]
    assert [calls[end] for end in ends] == [1] * len(ends)
    assert {kind for kind, _ in calls} == {"moments", "phi"}
    assert calls.total() > 200  # the interior orders, evaluated as the roots ask


def test_lockstep_curve_evaluates_no_more_orders_than_one_rate_at_a_time(monkeypatch):
    # the roots of all 201 rates step together, but each row asks for the orders its scalar root
    # would: 1,005 moments and 537 phi evaluations when the curve was solved one rate at a time
    state = random_cq(1, 4, 3)
    calls = _count_kernel_calls(monkeypatch)
    exponent_curve(state, 0.0, math.log(4), 201)
    per_kind = collections.Counter()
    for (kind, _), n in calls.items():
        per_kind[kind] += n
    assert per_kind["moments"] == 1005 and per_kind["phi"] == 537


@pytest.mark.parametrize(
    "state",
    [*(random_cq(0, *shape) for shape in ((2, 5), (5, 2), (3, 8), (8, 3))), tensor_power(random_cq(0, 2, 2), 3)],
    ids=["2x5", "5x2", "3x8", "8x3", "qubit-cubed"],
)
def test_lockstep_rows_equal_one_rate_rows(state):
    # the stacked steps (one moment grid and one phi SVD stack per step) give each rate the bits
    # of its own one-rate call, field for field
    rates_list = np.linspace(0.0, 1.2 * math.log(state.alphabet_size), 201).tolist()
    lockstep = exponent_rows(state, rates_list)
    alone = [exponent_row(state, rate) for rate in rates_list]
    assert [[v.hex() for v in vars(row).values()] for row in lockstep] == [
        [v.hex() for v in vars(row).values()] for row in alone
    ]


def test_bad_rate_fails_before_any_evaluation(monkeypatch, capsys):
    calls = _count_kernel_calls(monkeypatch)
    assert main(["exponents", "--preset", "tilted-qubit", "--r", "0.1,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rate must be finite and nonnegative, got -1.0\n"
    assert captured.out == ""
    assert calls.total() == 0


def _reference_problems(st, rate: float):
    """``(value key, argument key, numerator, objective, hi, floor)`` per exponent, in mpmath.

    Each objective peaks at the root of its stationarity numerator, which is
    nondecreasing, clamped to ``[0, hi]``. ``floor`` is the absolute rounding
    of the computed value: ``phi = log Tr(...)`` is the log of a trace near
    one, which carries about 1e-16 whatever the size of ``e_phi_q``.
    """
    psi, phi, r, d = psi_reference(st), phi_reference(st), mpmath.mpf(rate), mpmath.diff
    return (
        ("e_H", "s_star_H", lambda s: d(psi, s) + r, lambda s: -psi(s) - s * r, 1, 0.0),
        (
            "e_H_q",
            "s_star_Hq",
            lambda s: (2 - s) * d(psi, s) + psi(s) + 2 * r,
            lambda s: -(psi(s) + s * r) / (2 - s),
            1,
            0.0,
        ),
        (
            "e_phi_q",
            "t_star",
            lambda t: (1 - t) * (d(phi, t) + r) + phi(t) + t * r,
            lambda t: -(phi(t) + t * r) / (2 * (1 - t)),
            mpmath.mpf(0.5),
            2 * 2.0**-52,
        ),
    )


def _reference_argmax(numerator, objective, hi):
    """50-digit ``(argument, max)`` of ``objective`` at the root of ``numerator`` clamped to ``[0, hi]``."""
    with mpmath.workdps(DPS):
        if numerator(mpmath.mpf(0)) >= 0:
            return 0.0, 0.0
        x = hi if numerator(hi) <= 0 else mpmath.findroot(numerator, (mpmath.mpf(0), hi), solver="anderson")
        return float(x), objective(x)


def _golden_rows():
    """``(rate, {field: golden value})`` for every row of the tilted-qubit exponent goldens."""
    doc = json.loads((DATA / "tilted_exponents_golden.json").read_text(encoding="utf-8"))
    rows = [(row["R"], row) for row in doc["rows"]]
    lines = (DATA / "tilted_sweep_golden.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:]):
        row = dict(zip(header, line.split(",")))
        rate = LOG2 * i / (len(lines) - 2)  # the sweep's rate grid, which the CSV prints rounded
        assert fmt(rate) == row["R"]
        rows.append((rate, row))
    return rows


def test_golden_arguments_and_values_match_the_50_digit_argmax():
    st = preset("tilted-qubit")
    for rate, golden in _golden_rows():
        row = exponent_row(st, rate)
        for value_key, arg_key, numerator, objective, hi, floor in _reference_problems(st, rate):
            value, arg = getattr(row, value_key), getattr(row, arg_key)
            # the golden holds this point, in full (JSON) or as printed (CSV)
            as_stored = (lambda x: x) if isinstance(golden[arg_key], float) else fmt
            assert (golden[value_key], golden[arg_key]) == (as_stored(value), as_stored(arg)), rate
            ref_arg, ref_value = _reference_argmax(numerator, objective, hi)
            assert abs(arg - ref_arg) <= 1e-12, (rate, arg_key)
            assert abs(value - ref_value) <= 1e-14 * abs(ref_value) + floor, (rate, value_key)


@given(
    seed=hst.integers(0, 10_000),
    shape=hst.sampled_from([(2, 2), (3, 2), (2, 3), (4, 2)]),
    fraction=hst.floats(0.0, 1.0),
)
def test_exponents_are_additive_and_bracketed_by_a_grid(seed, shape, fraction):
    st = random_cq(seed, *shape)
    rate = fraction * math.log(st.alphabet_size)
    doubled = tensor_power(st, 2)
    xs = np.linspace(0.0, 1.0, 2001)
    h = st.decomposition.renyi_cond_grid(xs)
    ts = xs / 2.0
    objectives = (
        xs * (h - rate),
        xs / (2.0 - xs) * (h - rate),
        -(st.decomposition.phi_grid(ts) + ts * rate) / (2.0 * (1.0 - ts)),
    )
    one, two = exponent_row(st, rate), exponent_row(doubled, 2.0 * rate)
    keys = (("e_H", "s_star_H"), ("e_H_q", "s_star_Hq"), ("e_phi_q", "t_star"))
    for (value_key, arg_key), values in zip(keys, objectives):
        value = getattr(one, value_key)
        assert getattr(two, value_key) == pytest.approx(2.0 * value, rel=1e-12, abs=1e-14)
        assert abs(getattr(two, arg_key) - getattr(one, arg_key)) <= 1e-12
        grid_max = max(float(np.max(values)), 0.0)
        assert grid_max - 1e-12 <= value <= grid_max + 2e-6


@pytest.mark.parametrize("name", ["pure-eve", "zero-probability", "bb84(0)", "depolarized(1.3333333333333333)", "copy"])
def test_e_phi_q_on_edge_states_matches_a_fine_grid(name):
    # a rank-one E marginal, an empty symbol, a state with a rank-one rho_a
    # per symbol, the fully depolarized end of the preset, and zero exponents
    if name == "pure-eve":
        st = pure_eve_state()
    elif name == "zero-probability":
        base = random_cq(5, 3, 2)
        st = make_cq_state([0.5, 0.0, 0.5], base.rhos)
    else:
        st = preset(name)
    ts = np.linspace(0.0, 0.5, 20001)
    phi = st.decomposition.phi_grid(ts)
    for rate in np.linspace(0.0, math.log(st.alphabet_size), 9):
        e_phi_q = exponent_row(st, float(rate)).e_phi_q
        grid_max = max(float(np.max(-(phi + ts * rate) / (2.0 * (1.0 - ts)))), 0.0)
        assert grid_max - 1e-15 <= e_phi_q <= grid_max + 2e-6, (name, rate)

import math

import numpy as np
import pytest

from qpa.cqstate import preset, random_cq
from qpa.exponents import (
    CSV_HEADER,
    exponent_curve,
    exponent_e_H,
    exponent_e_H_q,
    exponent_e_phi_q,
    exponent_row,
    rates,
)
from qpa.quantities import StateDecomposition

LOG2 = math.log(2.0)

# frozen 10^4-point dense-grid maxima for the tilted-qubit state at R = 0.2
TILTED_E_H = 0.047599218460630
TILTED_E_H_Q = 0.031450825085019
TILTED_E_PHI_Q = 0.029169115010604


def test_product_closed_forms():
    st = preset("product")
    for rate in (0.0, 0.3, 0.6):
        e = exponent_e_H(st, rate)
        assert e.value == pytest.approx(LOG2 - rate, abs=1e-9)
        assert e.arg == pytest.approx(1.0, abs=1e-9)
        eq = exponent_e_H_q(st, rate)
        assert eq.value == pytest.approx(LOG2 - rate, abs=1e-9)
        assert eq.arg == pytest.approx(1.0, abs=1e-9)
        ep = exponent_e_phi_q(st, rate)
        assert ep.value == pytest.approx((LOG2 - rate) / 2, abs=1e-9)
        assert ep.arg == pytest.approx(0.5, abs=1e-9)


def test_copy_exponents_vanish():
    st = preset("copy")
    for rate in (0.1, 0.5, 1.0):
        assert exponent_e_H(st, rate).value == 0.0
        assert exponent_e_H_q(st, rate).value == 0.0
        assert exponent_e_phi_q(st, rate).value == 0.0


def test_exponents_vanish_above_capacity(corpus_states):
    for name, st in corpus_states.items():
        rate = math.log(st.alphabet_size) + 1.0
        row = exponent_row(st, rate)
        assert row.e_H == 0.0 and row.e_H_q == 0.0 and row.e_phi_q == 0.0, name
        assert row.s_star_H == 0.0


def test_positivity_threshold_at_conditional_entropy():
    for st in (preset("tilted-qubit"), random_cq(5, 4, 2)):
        h = StateDecomposition(st).cond_entropy()
        assert exponent_e_H(st, h - 1e-6).value > 0.0
        assert exponent_e_H(st, h).value == 0.0
        assert exponent_e_H(st, h + 0.1).value == 0.0


def test_tilted_exponents_match_frozen_grid():
    st = preset("tilted-qubit")
    e = exponent_e_H(st, 0.2)
    assert e.value >= TILTED_E_H - 1e-12  # refinement can only raise a grid max
    assert e.value == pytest.approx(TILTED_E_H, abs=1e-8)
    eq = exponent_e_H_q(st, 0.2)
    assert eq.value >= TILTED_E_H_Q - 1e-12
    assert eq.value == pytest.approx(TILTED_E_H_Q, abs=1e-9)
    ep = exponent_e_phi_q(st, 0.2)
    assert ep.value >= TILTED_E_PHI_Q - 1e-12
    assert ep.value == pytest.approx(TILTED_E_PHI_Q, abs=1e-8)
    assert TILTED_E_H / 2 <= ep.value <= e.value


def test_against_independent_dense_grid_via_joint_path():
    from qpa.quantities import renyi_cond_joint

    st = preset("tilted-qubit")
    rate = 0.35
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [s * (renyi_cond_joint(st, float(s)) - rate) for s in grid]
    oracle = max(max(vals), 0.0)
    got = exponent_e_H(st, rate).value
    assert got >= oracle - 1e-12
    assert got == pytest.approx(oracle, abs=1e-7)


def test_comparison_lemma_rows(corpus_states):
    for name in ("tilted-qubit", "bb84(0.39269908169872414)", "random0", "random1"):
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
            if np.size(values) > 1:  # scalar phi(t) goes through phi_grid too
                calls.append(_attr)
            return _original(self, values)

        monkeypatch.setattr(StateDecomposition, attr, counted)
    curve = exponent_curve(preset("tilted-qubit"), 0.0, 0.6, 7)
    assert len(curve.rows) == 7
    assert sorted(calls) == ["phi_grid", "renyi_cond_grid"]

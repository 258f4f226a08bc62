"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and never loosened at run time. Criteria that
compare against enumerations or dense grids recompute them in full; nothing
is sampled.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qpa.cqstate import make_cq_state, preset, random_cq, tensor_power
from qpa.exponents import exponent_curve, rates
from qpa.hashing import collision_stats, make_family
from qpa.hermitian import cluster_ranges, eig_hermitian, pinch
from qpa.quantities import PHI_T_MAX, StateDecomposition, quantity_report
from qpa.verification import (
    default_corpus,
    families_for,
    matrix_lemma_checks,
    pinching_bound_check,
    verify_avg_leak_bound,
    verify_exp_leak_bound,
)

from classical_oracle import classical_quantities
from conftest import run_cli

LOG2 = math.log(2.0)
S_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))

def _announce(num, label):
    print(f"ACCEPTANCE {num:2d} PASS: {label}")

def _corpus_with_families():
    for name, state in default_corpus():
        for family in families_for(state.alphabet_size):
            yield name, state, family

def test_acceptance_01_hashing_bound_I_prime_suite():
    start = time.monotonic()
    for name, state, family in _corpus_with_families():
        report = verify_avg_leak_bound(state, family, S_GRID, name=name)
        assert report.slack >= -1e-9, (name, family.describe(), report.slack)
        assert report.passed, (name, family.describe())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    _announce(1, f"averaged-I' hashing bound over the corpus ({elapsed:.1f}s)")

def test_acceptance_02_hashing_bound_exp_Ibar_suite():
    start = time.monotonic()
    for name, state, family in _corpus_with_families():
        report = verify_exp_leak_bound(state, family, S_GRID, name=name)
        assert report.slack >= -1e-9, (name, family.describe(), report.slack)
        assert report.passed, (name, family.describe())
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    _announce(2, f"exp(s Ibar') hashing bound over the corpus ({elapsed:.1f}s)")

def test_acceptance_03_entropy_inequalities_100_states():
    start = time.monotonic()
    grid = [0.1 * k for k in range(11)]
    for seed in range(100):
        alph = 2 + seed % 3
        d_e = 2 + seed % 2
        dec = StateDecomposition(random_cq(10_000 + seed, alph, d_e))
        h = dec.cond_entropy()
        hbar = dec.cond_entropy_bar()
        h2 = dec.renyi_cond(1.0)
        hmin = dec.min_entropy()
        assert h2 >= hmin - 1e-8, seed
        h_vals = [dec.renyi_cond(s) for s in grid]
        hb_vals = [hbar] + [dec.renyi_cond_bar_star(s) for s in grid[1:]]
        for lo, hi in zip(h_vals, h_vals[1:]):
            assert hi <= lo + 1e-8, seed
        for lo, hi in zip(hb_vals, hb_vals[1:]):
            assert hi <= lo + 1e-8, seed
        for s, hs, hbs in zip(grid[1:], h_vals[1:], hb_vals[1:]):
            assert h >= hs - 1e-8, (seed, s)
            assert hbar >= hbs - 1e-8, (seed, s)
            assert hbs >= hs - 1e-8, (seed, s)
            assert hs >= h2 - 1e-8, (seed, s)
        xs = np.linspace(0.0, 1.0, 101)
        vals = xs * dec.renyi_cond_grid(xs)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.max(second) <= 1e-8, seed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _announce(3, f"entropy inequalities on 100 seeded states ({elapsed:.1f}s)")

def test_acceptance_04_additivity_of_renyi_entropies():
    for name in ("copy", "product", "tilted-qubit", "bb84(0.39269908169872414)", "depolarized(0.3)"):
        st = preset(name)
        dec1 = StateDecomposition(st)
        dec2 = StateDecomposition(tensor_power(st, 2))
        dec3 = StateDecomposition(tensor_power(st, 3))
        for s in (0.25, 0.5, 1.0):
            h1 = dec1.renyi_cond(s)
            assert abs(dec2.renyi_cond(s) - 2 * h1) <= 1e-8, (name, s)
            assert abs(dec3.renyi_cond(s) - 3 * h1) <= 1e-8, (name, s)
    _announce(4, "additivity of H_(1+s) under 2- and 3-fold tensor powers")

def test_acceptance_05_commutative_reduction():
    rng = np.random.default_rng(2024)
    s_values = (0.25, 0.5, 1.0)
    t_values = (0.1, 0.25, 0.5)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        probs = rng.gamma(1.0, size=n)
        probs /= probs.sum()
        diags = rng.gamma(1.0, size=(n, d))
        diags /= diags.sum(axis=1, keepdims=True)
        st = make_cq_state(probs, [np.diag(row) for row in diags])
        got = quantity_report(st, s_values)
        for t in t_values:
            got[f"phi({t:g})"] = st.decomposition.phi(t)
        expected = classical_quantities(probs, diags, s_values, t_values)
        for key, val in expected.items():
            assert abs(got[key] - val) <= 1e-10, (trial, key, got[key], val)
    _announce(5, "diagonal states match the scalar classical implementation")

def test_acceptance_06_universal2_certification():
    for q, k_max in ((2, 8), (3, 8), (5, 5)):
        for k in range(1, k_max + 1):
            for m in range(1, min(k, 4) + 1):
                for kind in ("toeplitz", "modified_toeplitz"):
                    family = make_family(kind, q, k, m)
                    report = collision_stats(family)
                    bound = Fraction(1, family.range_size)
                    assert report.max_collision_prob <= bound, family.describe()
                    assert report.is_universal2, family.describe()
    _announce(6, "exact collision probability <= 1/M for every enumerated family")

def test_acceptance_07_exponent_comparison_lemma():
    for name, st in default_corpus():
        curve = exponent_curve(st, 0.0, math.log(st.alphabet_size), 21)
        for row in curve.rows:
            assert row.e_H >= row.e_H_q - 1e-9, (name, row.R)
            assert row.e_H >= row.e_phi_q - 1e-9, (name, row.R)
            assert row.e_phi_q >= row.e_H / 2 - 1e-9, (name, row.R)
    # closed-form anchor for the uniform product state
    curve = exponent_curve(preset("product"), 0.0, LOG2, 21)
    for row in curve.rows[:-1]:  # interior of R < log 2
        assert abs(row.e_H - (LOG2 - row.R)) <= 1e-9
        assert abs(row.s_star_H - 1.0) <= 1e-9
        assert abs(row.e_phi_q - (LOG2 - row.R) / 2) <= 1e-9
        assert abs(row.t_star - 0.5) <= 1e-9
    _announce(7, "exponent comparison inequalities on 21-point rate grids")

def test_acceptance_08_phi_brackets():
    # phi(1.0) is undefined (the inner exponent 1/(1-t) diverges), so the
    # lower bracket of the s = 1 grid point is evaluated at the end of the
    # computable domain; every other grid point is checked verbatim
    for name, st in default_corpus():
        dec = StateDecomposition(st)
        for s in S_GRID:
            lhs = s * dec.renyi_cond(s)
            assert lhs >= -dec.phi(min(s, PHI_T_MAX)) - 1e-9, (name, s)
            assert lhs <= -(1 + s) * dec.phi(s / (1 + s)) + 1e-9, (name, s)
    _announce(8, "s H_(1+s) bracketed by the phi functional on the corpus")

def test_acceptance_09_matrix_lemmas():
    idx = 0
    for dim in (2, 3, 4, 5, 6):
        for _ in range(40):
            report = matrix_lemma_checks(seed=idx, dim=dim, s_grid=S_GRID)
            assert report.min_eig_power >= -1e-9, idx
            assert report.min_eig_log >= -1e-9, idx
            idx += 1
    assert idx == 200
    _announce(9, "both matrix inequalities PSD on 200 seeded matrices")

def test_acceptance_10_pinching():
    from qpa.cqstate import eve_marginal

    for name, st in default_corpus():
        eve = eve_marginal(st)
        v = len(cluster_ranges(eig_hermitian(eve)[0]))
        for a in range(st.alphabet_size):
            rho = st.rhos[a]
            diff = v * pinch(eve, rho) - rho
            assert np.linalg.eigvalsh(diff).min() >= -1e-9, (name, a)
        report = pinching_bound_check(st)
        assert report.passed, name
    _announce(10, "pinching operator inequality and leaked-information bound")

def test_acceptance_11_pinsker_forms():
    for name, st in default_corpus():
        dec = StateDecomposition(st)
        info = dec.mutual_info_variants()
        dist = dec.trace_distances()
        assert dist["d1_prime"] ** 2 <= 2 * info["I_prime"] + 1e-9, name
    # the unfactored variant must demonstrably fail on the copy state
    copy_dec = StateDecomposition(preset("copy"))
    d1p = copy_dec.trace_distances()["d1_prime"]
    i_prime = copy_dec.mutual_info_variants()["I_prime"]
    assert d1p == pytest.approx(1.0, abs=1e-12)
    assert i_prime == pytest.approx(LOG2, abs=1e-12)
    assert d1p**2 > i_prime  # the documented discrepancy triggers
    _announce(11, "factor-2 distance bound holds; unfactored form fails on copy")

def test_acceptance_12_rates():
    point = rates(preset("product"), 1.0)
    assert abs(point.equivocation - LOG2) <= 1e-10
    assert abs(point.min_leak_rate - (1.0 - LOG2)) <= 1e-10
    point = rates(preset("copy"), 0.5)
    assert abs(point.equivocation) <= 1e-10
    assert abs(point.min_leak_rate - 0.5) <= 1e-10
    _announce(12, "equivocation and leak rates at the anchor points")

def test_acceptance_13_cli_end_to_end(tmp_path):
    res = run_cli("selftest")
    assert res.returncode == 0, res.stdout + res.stderr

    start = time.monotonic()
    res = run_cli("verify", "--suite", "full")
    elapsed = time.monotonic() - start
    assert res.returncode == 0, res.stdout + res.stderr
    assert elapsed < 300.0, f"full verify took {elapsed:.1f}s"

    blobs = []
    for threads, name in (("1", "s1.csv"), ("4", "s4.csv"), ("1", "s1b.csv")):
        path = tmp_path / name
        res = run_cli(
            "sweep", "--preset", "tilted-qubit", "--steps", "21", "-o", str(path),
            env_extra={"QPA_THREADS": threads},
        )
        assert res.returncode == 0, res.stderr
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _announce(13, f"selftest, full verify ({elapsed:.1f}s), byte-stable sweep")

import math

import numpy as np
import pytest

from qpa.cqstate import make_cq_state, preset, random_cq, tensor_power
from qpa.hermitian import HermitianMatrix
from qpa.quantities import (
    StateDecomposition,
    cond_entropy,
    cond_entropy_bar,
    cond_entropy_bar_joint,
    min_entropy,
    min_entropy_joint,
    mutual_info_variants,
    mutual_info_variants_joint,
    phi_quantity,
    phi_quantity_joint,
    quantity_report,
    relative_entropies,
    renyi_cond,
    renyi_cond_bar_star,
    renyi_cond_bar_star_joint,
    renyi_cond_joint,
    trace_distances,
    trace_distances_joint,
    von_neumann_entropies,
)

from classical_oracle import classical_quantities

LOG2 = math.log(2.0)

# frozen from an independent dense joint-matrix computation
TILTED_EXPECTED = {
    "H_A": 0.673011667009257,
    "H_AE": 0.871526910355129,
    "H_E": 0.464501469343267,
    "H_cond": 0.407025441011862,
    "H_cond_bar": 0.503797132328521,
    "H_min": 0.061955944691483,
    "H_renyi(0.25)": 0.351202441558591,
    "H_renyi(0.5)": 0.294179221595791,
    "H_renyi(1)": 0.171461597150212,
    "H_renyi_bar_star(0.25)": 0.415186757739447,
    "H_renyi_bar_star(0.5)": 0.349040048253847,
    "H_renyi_bar_star(1)": 0.263614401359659,
    "I": 0.265986225997394,
    "I_bar": 0.169214534680736,
    "I_bar_prime": 0.189350048231425,
    "I_prime": 0.286121739548083,
    "d1": 0.610940258945177,
    "d1_prime": 0.648999229583518,
    "phi(0.25)": -0.084925527998122,
    "phi(0.5)": -0.124205819809549,
}


def test_tilted_qubit_matches_frozen_oracle():
    report = quantity_report(preset("tilted-qubit"), [0.25, 0.5, 1.0])
    for key, expected in TILTED_EXPECTED.items():
        assert report.values[key] == pytest.approx(expected, abs=1e-12), key


def test_product_closed_forms():
    st = preset("product")
    ent = von_neumann_entropies(st)
    assert ent["H_AE"] == pytest.approx(math.log(4), abs=1e-12)
    assert ent["H_E"] == pytest.approx(LOG2, abs=1e-12)
    assert cond_entropy(st) == pytest.approx(LOG2, abs=1e-12)
    assert cond_entropy_bar(st) == pytest.approx(LOG2, abs=1e-12)
    assert min_entropy(st) == pytest.approx(LOG2, abs=1e-12)
    for s in (0.1, 0.5, 1.0, 2.0, 4.0):
        assert renyi_cond(st, s) == pytest.approx(LOG2, abs=1e-12)
        assert renyi_cond_bar_star(st, s) == pytest.approx(LOG2, abs=1e-12)
    info = mutual_info_variants(st)
    assert all(abs(v) <= 1e-12 for v in info.values())
    dist = trace_distances(st)
    assert dist["d1"] == pytest.approx(0.0, abs=1e-12)
    assert dist["d1_prime"] == pytest.approx(0.0, abs=1e-12)
    for t in (0.0, 0.2, 0.5):
        assert phi_quantity(st, t) == pytest.approx(-t * LOG2, abs=1e-12)


def test_copy_closed_forms():
    st = preset("copy")
    ent = von_neumann_entropies(st)
    assert ent["H_AE"] == pytest.approx(LOG2, abs=1e-12)
    assert ent["H_E"] == pytest.approx(LOG2, abs=1e-12)
    assert cond_entropy(st) == pytest.approx(0.0, abs=1e-12)
    assert cond_entropy_bar(st) == pytest.approx(0.0, abs=1e-12)
    assert min_entropy(st) == pytest.approx(0.0, abs=1e-12)
    for s in (0.1, 0.5, 1.0):
        assert renyi_cond(st, s) == pytest.approx(0.0, abs=1e-12)
        assert renyi_cond_bar_star(st, s) == pytest.approx(0.0, abs=1e-12)
    info = mutual_info_variants(st)
    assert info["I"] == pytest.approx(LOG2, abs=1e-12)
    assert info["I_prime"] == pytest.approx(LOG2, abs=1e-12)
    assert trace_distances(st)["d1_prime"] == pytest.approx(1.0, abs=1e-12)
    for t in (0.1, 0.4):
        assert phi_quantity(st, t) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.2, math.pi / 8, math.pi / 4])
def test_bb84_closed_forms(theta):
    # two orthonormal bases of pure states: the E marginal is maximally
    # mixed, so every conditional entropy collapses to log 2
    st = preset(f"bb84({theta})")
    assert np.allclose(np.asarray([s.mat for s in st.eve_states]).sum(0) / 4, np.eye(2) / 2)
    assert cond_entropy(st) == pytest.approx(LOG2, abs=1e-12)
    assert cond_entropy_bar(st) == pytest.approx(LOG2, abs=1e-12)
    assert min_entropy(st) == pytest.approx(LOG2, abs=1e-12)
    for s in (0.25, 1.0):
        assert renyi_cond(st, s) == pytest.approx(LOG2, abs=1e-12)
        assert renyi_cond_bar_star(st, s) == pytest.approx(LOG2, abs=1e-12)
    assert mutual_info_variants(st)["I_prime"] == pytest.approx(LOG2, abs=1e-12)
    assert trace_distances(st)["d1_prime"] == pytest.approx(1.0, abs=1e-12)


def test_order_parameter_domains():
    st = preset("tilted-qubit")
    assert renyi_cond(st, 0.0) == cond_entropy(st)
    with pytest.raises(ValueError):
        renyi_cond(st, 4.5)
    with pytest.raises(ValueError):
        renyi_cond(st, -0.1)
    with pytest.raises(ValueError, match="cond_entropy_bar"):
        renyi_cond_bar_star(st, 0.0)
    with pytest.raises(ValueError):
        phi_quantity(st, 0.95)
    with pytest.raises(ValueError):
        phi_quantity(st, -0.1)


def test_monotone_decreasing_in_s(corpus_states):
    grid = [0.1 * k for k in range(11)]
    for name, st in corpus_states.items():
        dec = StateDecomposition(st)
        h_vals = [dec.renyi_cond(s) for s in grid]
        hbar_vals = [dec.cond_entropy_bar()] + [dec.renyi_cond_bar_star(s) for s in grid[1:]]
        for lo, hi in zip(h_vals, h_vals[1:]):
            assert hi <= lo + 1e-9, name
        for lo, hi in zip(hbar_vals, hbar_vals[1:]):
            assert hi <= lo + 1e-9, name


def test_s_times_renyi_concave(corpus_states):
    xs = np.linspace(0.0, 1.0, 101)
    for name, st in corpus_states.items():
        vals = xs * StateDecomposition(st).renyi_cond_grid(xs)
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.max(second) <= 1e-8, name


def test_ordering_chain(corpus_states):
    for name, st in corpus_states.items():
        dec = StateDecomposition(st)
        h = dec.cond_entropy()
        hbar = dec.cond_entropy_bar()
        h2 = dec.renyi_cond(1.0)
        hmin = dec.min_entropy()
        assert h2 >= hmin - 1e-9, name
        for s in (0.1, 0.25, 0.5, 0.75, 1.0):
            hs = dec.renyi_cond(s)
            hbs = dec.renyi_cond_bar_star(s)
            assert h >= hs - 1e-9, name
            assert hbar >= hbs - 1e-9, name
            assert hbs >= hs - 1e-9, name
            assert hs >= h2 - 1e-9, name
            assert hbs >= hmin - 1e-9, name


def test_identities_link_entropies_and_mutual_information(corpus_states):
    for name, st in corpus_states.items():
        dec = StateDecomposition(st)
        info = dec.mutual_info_variants()
        log_a = math.log(st.alphabet_size)
        assert dec.cond_entropy() == pytest.approx(log_a - info["I_prime"], abs=1e-9), name
        assert dec.cond_entropy_bar() == pytest.approx(log_a - info["I_bar_prime"], abs=1e-9), name
        assert info["I"] <= info["I_prime"] + 1e-9, name
        assert info["I_bar"] <= info["I_bar_prime"] + 1e-9, name


def test_additivity_under_tensor_power(preset_states):
    for name, st in preset_states.items():
        if st.alphabet_size != 2:
            continue
        doubled = tensor_power(st, 2)
        for s in (0.25, 0.5, 1.0):
            assert renyi_cond(doubled, s) == pytest.approx(2 * renyi_cond(st, s), abs=1e-8), name
            assert renyi_cond_bar_star(doubled, s) == pytest.approx(
                2 * renyi_cond_bar_star(st, s), abs=1e-8
            ), name


def test_commutative_reduction_matches_classical_oracle():
    rng = np.random.default_rng(321)
    s_values = (0.25, 0.5, 1.0)
    t_values = (0.1, 0.3, 0.5)
    for trial in range(10):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        probs = rng.gamma(1.0, size=n)
        probs /= probs.sum()
        diags = rng.gamma(1.0, size=(n, d))
        diags /= diags.sum(axis=1, keepdims=True)
        st = make_cq_state(probs, [np.diag(row) for row in diags])
        got = quantity_report(st, s_values).values
        expected = classical_quantities(probs, diags, s_values, t_values)
        for t in t_values:
            got[f"phi({t:g})"] = phi_quantity(st, t)
        for key, val in expected.items():
            assert got[key] == pytest.approx(val, abs=1e-10), (trial, key)


def test_lemma_phi_brackets_renyi(corpus_states):
    # phi(1) itself is undefined (the inner exponent diverges), so the lower
    # bracket at s = 1 is checked at the end of phi's computable domain
    from qpa.quantities import PHI_T_MAX

    for name, st in corpus_states.items():
        dec = StateDecomposition(st)
        for s in (0.1, 0.25, 0.5, 0.75, 1.0):
            lhs = s * dec.renyi_cond(s)
            assert lhs >= -dec.phi(min(s, PHI_T_MAX)) - 1e-9, name
            assert lhs <= -(1 + s) * dec.phi(s / (1 + s)) + 1e-9, name


def test_phi_near_domain_end_matches_logspace_oracle():
    # for a diagonal state the inner sum is scalar, so an exact log-space
    # evaluation (logaddexp over a * log p) oracles the matrix path
    from qpa.quantities import PHI_T_MAX

    rng = np.random.default_rng(606)
    probs = rng.gamma(1.0, size=3)
    probs /= probs.sum()
    diags = rng.gamma(1.0, size=(3, 4))
    diags /= diags.sum(axis=1, keepdims=True)
    st = make_cq_state(probs, [np.diag(row) for row in diags])
    dec = StateDecomposition(st)
    logp = np.log(probs[:, None] * diags)  # (|A|, d_E)
    for t in (0.6, 0.9, PHI_T_MAX):
        alpha = 1.0 / (1.0 - t)
        inner = np.logaddexp.reduce(alpha * logp, axis=0)  # log sum_a p^alpha, per e
        expected = float(np.logaddexp.reduce((1.0 - t) * inner))
        assert dec.phi(t) == pytest.approx(expected, abs=1e-12), t
    with pytest.raises(ValueError):
        dec.phi(PHI_T_MAX + 1e-6)
    with pytest.raises(ValueError):
        dec.phi(1.0)


def test_relative_entropies():
    rng = np.random.default_rng(55)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = HermitianMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real, atol=None)
    vals = relative_entropies(rho, rho)
    assert vals["D"] == pytest.approx(0.0, abs=1e-10)
    assert vals["D_bar"] == pytest.approx(0.0, abs=1e-10)

    half = HermitianMatrix(np.eye(2) / 2)
    point = HermitianMatrix(np.diag([1.0, 0.0]))
    assert relative_entropies(point, half)["D"] == pytest.approx(LOG2, abs=1e-12)

    # support violation flags infinity instead of raising
    disjoint = HermitianMatrix(np.diag([0.0, 1.0]))
    vals = relative_entropies(disjoint, point)
    assert vals["D"] == math.inf and vals["D_bar"] == math.inf

    # D(rho||sigma) <= Dbar(pinch(rho)||sigma) + log v, the pinching route
    from qpa.hermitian import pinch

    g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sigma = HermitianMatrix(g2 @ g2.conj().T / np.trace(g2 @ g2.conj().T).real, atol=None)
    vals = relative_entropies(rho, sigma)
    assert vals["D"] >= -1e-10
    pinched = pinch(sigma, rho)
    v = sigma.spectrum.distinct_count
    after = relative_entropies(pinched, sigma)
    assert vals["D"] <= after["D_bar"] + math.log(v) + 1e-9
    assert after["D"] == pytest.approx(after["D_bar"], abs=1e-9)


def test_blockwise_agrees_with_joint_path(preset_states):
    states = dict(preset_states)
    states["random40"] = random_cq(40, 4, 3)
    states["random41"] = random_cq(41, 3, 2)
    for name, st in states.items():
        dec = StateDecomposition(st)
        for s in (0.25, 1.0):
            assert dec.renyi_cond(s) == pytest.approx(renyi_cond_joint(st, s), abs=1e-10), name
            assert dec.renyi_cond_bar_star(s) == pytest.approx(
                renyi_cond_bar_star_joint(st, s), abs=1e-10
            ), name
        assert dec.renyi_cond(0.0) == pytest.approx(renyi_cond_joint(st, 0.0), abs=1e-10), name
        assert dec.cond_entropy_bar() == pytest.approx(cond_entropy_bar_joint(st), abs=1e-10), name
        assert dec.min_entropy() == pytest.approx(min_entropy_joint(st), abs=1e-10), name
        block_info = dec.mutual_info_variants()
        joint_info = mutual_info_variants_joint(st)
        for key in block_info:
            assert block_info[key] == pytest.approx(joint_info[key], abs=1e-10), (name, key)
        block_dist = dec.trace_distances()
        joint_dist = trace_distances_joint(st)
        for key in block_dist:
            assert block_dist[key] == pytest.approx(joint_dist[key], abs=1e-10), (name, key)
        for t in (0.0, 0.25, 0.5):
            assert dec.phi(t) == pytest.approx(phi_quantity_joint(st, t), abs=1e-10), name


def test_grid_evaluations_match_scalar():
    st = random_cq(77, 4, 3)
    dec = StateDecomposition(st)
    s_grid = np.linspace(0.0, 1.0, 11)
    grid_vals = dec.renyi_cond_grid(s_grid)
    for s, v in zip(s_grid, grid_vals):
        assert v == pytest.approx(dec.renyi_cond(float(s)), abs=1e-12)
    bar_vals = dec.renyi_cond_bar_star_grid(s_grid[1:])
    for s, v in zip(s_grid[1:], bar_vals):
        assert v == pytest.approx(dec.renyi_cond_bar_star(float(s)), abs=1e-12)
    t_grid = np.linspace(0.0, 0.5, 11)
    phi_vals = dec.phi_grid(t_grid)
    for t, v in zip(t_grid, phi_vals):
        assert v == pytest.approx(dec.phi(float(t)), abs=1e-12)


def test_pinsker_factor_two_holds_and_unfactored_form_fails(corpus_states):
    for name, st in corpus_states.items():
        info = mutual_info_variants(st)
        dist = trace_distances(st)
        assert dist["d1_prime"] ** 2 <= 2 * info["I_prime"] + 1e-9, name
        assert dist["d1"] ** 2 <= 2 * info["I"] + 1e-9, name
    # the unfactored variant is violated by the copy state, by a wide margin
    copy = corpus_states["copy"]
    assert trace_distances(copy)["d1_prime"] ** 2 > mutual_info_variants(copy)["I_prime"] + 0.3


def test_quantity_report_invariants(corpus_states):
    for name, st in corpus_states.items():
        report = quantity_report(st, [0.25, 0.5, 1.0])
        cap = math.log(st.alphabet_size) + 1e-9
        for key, val in report.values.items():
            assert math.isfinite(val), (name, key)
            if key.startswith(("H_cond", "H_renyi", "H_min")):
                assert val <= cap, (name, key)
        assert report.units == "nats"


def test_rank_deficient_eve_marginal():
    # both eve states live in a 2-dim subspace of a 3-dim E space, so every
    # inverse power acts on a strict support; blockwise and joint paths must
    # still agree and the identities must survive
    u = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
    r0 = u @ np.diag([0.8, 0.2]) @ u.conj().T
    v = np.array([[1 / math.sqrt(2)], [1 / math.sqrt(2)], [0]], dtype=complex)
    r1 = 0.7 * (v @ v.conj().T) + 0.3 * (u @ (np.eye(2) / 2) @ u.conj().T)
    st = make_cq_state([0.55, 0.45], [r0, r1])
    dec = StateDecomposition(st)
    assert dec.renyi_cond(2.5) == pytest.approx(renyi_cond_joint(st, 2.5), abs=1e-10)
    assert dec.renyi_cond_bar_star(0.5) == pytest.approx(
        renyi_cond_bar_star_joint(st, 0.5), abs=1e-10
    )
    assert dec.cond_entropy_bar() == pytest.approx(cond_entropy_bar_joint(st), abs=1e-10)
    assert dec.min_entropy() == pytest.approx(min_entropy_joint(st), abs=1e-10)
    info = dec.mutual_info_variants()
    assert dec.cond_entropy() == pytest.approx(LOG2 - info["I_prime"], abs=1e-9)
    assert dec.cond_entropy_bar() == pytest.approx(LOG2 - info["I_bar_prime"], abs=1e-9)


def test_zero_probability_symbols_are_inert():
    base = preset("tilted-qubit")
    padded = make_cq_state(
        [0.6, 0.4, 0.0],
        [base.eve_states[0].mat, base.eve_states[1].mat, np.eye(2) / 2],
    )
    for s in (0.25, 1.0):
        assert renyi_cond(padded, s) == pytest.approx(renyi_cond(base, s), abs=1e-12)
    # I' shifts by exactly log(3/2) because only log|A| changes
    delta = math.log(3) - math.log(2)
    assert mutual_info_variants(padded)["I_prime"] == pytest.approx(
        mutual_info_variants(base)["I_prime"] + delta, abs=1e-12
    )


def test_nearly_singular_marginal_decomposes():
    # a rare pure symbol along a direction the marginal barely supports: the
    # sandwiched block has norm ~1e6 and an exact decomposition's residual
    # (~4e-10) exceeds an absolute 1e-10, but not 1e-10 times the norm
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    eps, rare = 1e-6, 1e-7
    rho0 = q @ np.diag([1 - eps, eps / 2, eps / 2]) @ q.conj().T
    rho1 = np.outer(q[:, 2], q[:, 2].conj())
    st = make_cq_state([1 - rare, rare], [rho0, rho1])
    dec = StateDecomposition(st)
    assert float(dec.xi[1, -1]) > 1e6
    info = dec.mutual_info_variants()
    assert all(math.isfinite(v) for v in info.values())
    assert 0.0 <= info["I"] <= info["I_prime"] <= math.log(2.0) + 1e-12

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as hst

from qpa.cqstate import (
    CQState,
    ClassicalFunction,
    apply_eve_channel,
    apply_function,
    make_cq_state,
    preset,
    random_cq,
    tensor_power,
)
from qpa.exponents import exponent_row, rates
from qpa.hashing import make_family
from qpa.hermitian import cluster_ranges, eig_hermitian
from qpa.quantities import (
    S_MAX,
    S_MIN,
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
from qpa.verification import default_corpus, verify_hashing_bounds

from classical_oracle import classical_quantities
from conftest import PRESET_NAMES, pure_eve_state, random_kraus, random_psd
from renyi_oracle import DPS, phi_reference, psi_reference, renyi_references

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
        assert report[key] == pytest.approx(expected, abs=1e-12), key


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
    assert np.allclose(st.rhos.sum(0) / 4, np.eye(2) / 2)
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
    with pytest.raises(ValueError, match="cond_entropy_bar"):
        st.decomposition.renyi_cond_bar_star_grid([0.5, 0.0])
    with pytest.raises(ValueError):
        phi_quantity(st, 0.95)
    with pytest.raises(ValueError):
        phi_quantity(st, -0.1)


@pytest.mark.parametrize("s", [math.nan, -0.5, 10.0, math.inf], ids=["nan", "negative", "above-max", "inf"])
@pytest.mark.parametrize("quantity", ["renyi_cond", "renyi_cond_bar_star"])
def test_renyi_orders_checked_by_grid_and_scalar(quantity, s):
    dec = preset("tilted-qubit").decomposition
    message = f"s={s} outside \\[0, {S_MAX}\\]"
    with pytest.raises(ValueError, match=message):
        getattr(dec, quantity)(s)
    with pytest.raises(ValueError, match=message):
        getattr(dec, f"{quantity}_grid")([0.5, s])


REFERENCE_ORDERS = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0]


@pytest.mark.parametrize(
    "name", ["tilted-qubit", "bb84(0.39269908169872414)", "depolarized(0.3)", "7:2,2", "11:4,3", "13:3,4", "17:8,2"]
)
def test_renyi_matches_50_digit_reference(name):
    # down to s = 1e-12, where 1e-15 of rounding in the trace becomes 1e-3 in -log(trace) / s
    if ":" in name:
        seed, shape = name.split(":")
        st = random_cq(int(seed), *(int(n) for n in shape.split(",")))
    else:
        st = preset(name)
    dec = st.decomposition
    h_ref, bar_ref = renyi_references(st, REFERENCE_ORDERS)
    h_grid = dec.renyi_cond_grid(REFERENCE_ORDERS)
    bar_grid = dec.renyi_cond_bar_star_grid(REFERENCE_ORDERS)
    for k, s in enumerate(REFERENCE_ORDERS):
        h, hbar = float(h_ref[k]), float(bar_ref[k])
        for value in (dec.renyi_cond(s), h_grid[k]):
            assert abs(value - h) <= 1e-13 * max(1.0, abs(h)), (name, s)
        for value in (dec.renyi_cond_bar_star(s), bar_grid[k]):
            assert abs(value - hbar) <= 1e-13 * max(1.0, abs(hbar)), (name, s)


@pytest.mark.parametrize("name", ["tilted-qubit", "7:2,2", "11:4,3"])
def test_renyi_moments_match_50_digit_derivatives(name):
    # psi(s) = -s H_{1+s}(A|E) and its derivative, which the exponent solvers use
    if ":" in name:
        seed, shape = name.split(":")
        st = random_cq(int(seed), *(int(n) for n in shape.split(",")))
    else:
        st = preset(name)
    psi = psi_reference(st)
    for s in (0.0, 1e-6, 0.5, 1.0, 4.0):
        got = st.decomposition.renyi_cond_moments(s)
        with mpmath.workdps(DPS):
            want = [float(mpmath.diff(psi, mpmath.mpf(s), n)) for n in range(2)]
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (name, s, k)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "rank-deficient", "pure-eve"])
def test_phi_and_slope_match_50_digit_derivatives(name):
    # (phi, phi'), which the e_phi_q solver uses, against mpmath eigensystems and mpmath.diff;
    # X(t) is rank-deficient for the last two, whose null space rounding must not reach phi
    st = {"rank-deficient": _rank_deficient_state, "pure-eve": pure_eve_state}.get(name, lambda: preset(name))()
    phi = phi_reference(st)
    for t in (0.0, 1e-6, 0.25, 0.5):
        got = st.decomposition.phi_and_slope(t)
        with mpmath.workdps(DPS):
            want = [float(mpmath.diff(phi, mpmath.mpf(t), n)) for n in range(2)]
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (name, t, k)
        assert abs(st.decomposition.phi(t) - want[0]) <= 1e-13 * max(1.0, abs(want[0])), (name, t)


def _near_rounding_state(eps=1e-8, seed=1):
    """|A| = 2, P = (1/2, 1/2), d_E = 3: each rho_a is ``(1 - eps) w_a + eps`` on a third axis, all rotated by one U."""
    rng = np.random.default_rng(seed)
    rhos = np.zeros((2, 3, 3), dtype=complex)
    for rho in rhos:
        w = random_psd(rng, 2)
        rho[:2, :2], rho[2, 2] = (1 - eps) * w / np.trace(w).real, eps
    (u,) = random_kraus(rng, 3, n_ops=1)
    return make_cq_state([0.5, 0.5], u @ rhos @ u.conj().T)


@pytest.mark.parametrize(
    "t",
    [
        0.5,
        pytest.param(
            0.75,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="LAPACK's SVD resolves the small singular values only to the rounding of the top",
            ),
        ),
    ],
)
def test_phi_with_eigenvalues_near_rounding_matches_50_digits(t):
    # the eps eigenvalue of each rho_a is eps^(1/(1-t)) in X(t), at or below the rounding of its
    # order-one top; the singular values of the stacked factor carry eps^(1/(2(1-t))), which the
    # SVD resolves to that rounding: phi is off by 3.1e-16 at t = 0.5 and 2.7e-10 at t = 0.75
    st = _near_rounding_state()
    with mpmath.workdps(DPS):
        want = float(phi_reference(st)(mpmath.mpf(t)))
    assert abs(st.decomposition.phi(t) - want) <= 1e-12


@given(
    state=hst.one_of(
        hst.builds(random_cq, hst.integers(0, 10_000), hst.sampled_from([2, 3, 4]), hst.sampled_from([2, 3])),
        hst.builds(_near_rounding_state, hst.floats(-12.0, -3.0).map(lambda x: 10.0**x), hst.integers(0, 10_000)),
    ),
    t=hst.floats(0.0, 0.5),
)
@example(state=_near_rounding_state(1e-12), t=0.5)  # the smallest eps at the largest t
def test_phi_and_slope_match_50_digits_on_drawn_states(state, t):
    # the (phi, phi') of e_phi_q's root, down to eigenvalues 1e-12 of each rho_a
    phi = phi_reference(state)
    with mpmath.workdps(DPS):
        want = [float(mpmath.diff(phi, mpmath.mpf(t), n)) for n in range(2)]
    for k, (g, w) in enumerate(zip(state.decomposition.phi_and_slope(t), want)):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), k


@given(seed=hst.integers(0, 10_000), shape=hst.sampled_from([(2, 2), (4, 3), (3, 4)]), power=hst.sampled_from([1, 2]))
def test_phi_is_convex(seed, shape, power):
    # the e_phi_q objective is unimodal because phi is convex on [0, 1/2]; on this grid,
    # second differences of -1e-9 would be a curvature of -1.6e-4
    st = tensor_power(random_cq(seed, *shape), power)
    values = st.decomposition.phi_grid(np.linspace(0.0, 0.5, 201))
    assert np.min(values[:-2] - 2.0 * values[1:-1] + values[2:]) >= -1e-9


@given(
    seed=hst.integers(0, 10_000),
    shape=hst.sampled_from([(2, 2), (3, 3), (4, 2), (2, 4)]),
    n_ops=hst.integers(1, 3),
    s=hst.floats(1e-9, 1.0),
)
def test_eve_channels_cannot_lower_the_conditional_entropies(seed, shape, n_ops, s):
    # data processing for the Petz order 1 + s <= 2 and for the von Neumann limit
    st = random_cq(seed, *shape)
    out = apply_eve_channel(st, random_kraus(np.random.default_rng(seed), shape[1], n_ops))
    assert renyi_cond(out, s) >= renyi_cond(st, s) - 1e-12
    assert cond_entropy(out) >= cond_entropy(st) - 1e-12


@given(
    seed=hst.integers(0, 10_000),
    shape=hst.sampled_from([(2, 2), (4, 3), (3, 4), (8, 2)]),
    s=hst.floats(1e-12, 1e-2),
)
def test_small_orders_stay_below_the_von_neumann_limits(seed, shape, s):
    dec = random_cq(seed, *shape).decomposition
    h = dec.renyi_cond(s)
    assert h <= dec.cond_entropy() + 1e-14
    assert dec.renyi_cond_bar_star(s) <= dec.cond_entropy_bar() + 1e-14
    assert dec.renyi_cond(2 * s) <= h + 1e-14


def test_bar_star_keeps_the_mass_outside_the_sandwich_support():
    # |0> and |+>: each rho_a puts 1 - cos^2(pi/8) of its mass outside the support
    # of its rank-one sandwich, so Tr rho (rho_E^-1/2 rho rho_E^-1/2)^s tends to
    # cos^2(pi/8) < 1 as s -> 0 and Hbar*_{1+s} grows like -log(cos^2(pi/8)) / s
    plus = np.full((2, 2), 0.5)
    st = make_cq_state([0.5, 0.5], [np.diag([1.0, 0.0]), plus])
    dec = st.decomposition
    for s in (1e-6, 1e-3, 0.25, 1.0, 4.0):
        joint = renyi_cond_bar_star_joint(st, s)
        assert dec.renyi_cond_bar_star(s) == pytest.approx(joint, rel=1e-12), s
    assert dec.renyi_cond_bar_star(1e-6) == pytest.approx(-math.log(math.cos(math.pi / 8) ** 2) / 1e-6, rel=1e-9)


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
        got = quantity_report(st, s_values)
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
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    vals = relative_entropies(rho, rho)
    assert vals["D"] == pytest.approx(0.0, abs=1e-10)
    assert vals["D_bar"] == pytest.approx(0.0, abs=1e-10)

    half = np.eye(2) / 2
    point = np.diag([1.0, 0.0])
    assert relative_entropies(point, half)["D"] == pytest.approx(LOG2, abs=1e-12)

    # support violation flags infinity instead of raising
    disjoint = np.diag([0.0, 1.0])
    vals = relative_entropies(disjoint, point)
    assert vals["D"] == math.inf and vals["D_bar"] == math.inf

    # D(rho||sigma) <= Dbar(pinch(rho)||sigma) + log v, the pinching route
    from qpa.hermitian import pinch

    g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sigma = g2 @ g2.conj().T / np.trace(g2 @ g2.conj().T).real
    vals = relative_entropies(rho, sigma)
    assert vals["D"] >= -1e-10
    pinched = pinch(sigma, rho)
    v = len(cluster_ranges(eig_hermitian(sigma)[0]))
    after = relative_entropies(pinched, sigma)
    assert vals["D"] <= after["D_bar"] + math.log(v) + 1e-9
    assert after["D"] == pytest.approx(after["D_bar"], abs=1e-9)


def _rank_deficient_state():
    # both eve states live in a 2-dim subspace of a 3-dim E space
    u = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
    r0 = u @ np.diag([0.8, 0.2]) @ u.conj().T
    v = np.array([[1 / math.sqrt(2)], [1 / math.sqrt(2)], [0]], dtype=complex)
    r1 = 0.7 * (v @ v.conj().T) + 0.3 * (u @ (np.eye(2) / 2) @ u.conj().T)
    return make_cq_state([0.55, 0.45], [r0, r1])


def test_blockwise_agrees_with_joint_path(preset_states):
    states = dict(preset_states)
    states["random40"] = random_cq(40, 4, 3)
    states["random41"] = random_cq(41, 3, 2)
    # d_E >= 8: numpy sums rows of 8 or more entries pairwise, with unrolled partial sums
    states["random42"] = random_cq(42, 3, 9)
    # output symbol 1 is never hit: probability 0 and a maximally mixed placeholder
    states["hashed-empty"] = apply_function(random_cq(43, 4, 3), ClassicalFunction(4, 3, (0, 2, 0, 2)))
    assert states["hashed-empty"].probs[1] == 0.0
    states["rank-deficient"] = _rank_deficient_state()
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


def _per_symbol_loops(dec):
    """The blockwise quantities as one loop over the symbols, in the same arithmetic."""

    def entropy(values):
        return -math.fsum(v * math.log(v) for v in values[values > 0.0].tolist())

    n = dec.alphabet_size
    log_mu = np.zeros_like(dec.mu)
    log_mu[dec.eve_support] = np.log(dec.mu[dec.eve_support])
    h_ae, h_bar, i_parts, ibar_parts, ibarp_parts, d1, d1p = [], [], [], [], [], [], []
    for a in range(n):
        p, lam, keep, w, xi = float(dec.probs[a]), dec.lam[a], dec.xi_support[a], dec.xi_weight[a], dec.xi[a]
        d1.append(float(np.sum(np.abs(np.linalg.eigvalsh(p * (dec.rhos[a] - dec.eve_mat))))))
        d1p.append(float(np.sum(np.abs(np.linalg.eigvalsh(p * dec.rhos[a] - dec.eve_mat / n)))))
        if p <= 0.0:
            continue
        h_ae.append(entropy(dec.probs[a] * lam))
        h_bar.append(p * float(np.sum(w[keep] * np.log(p * xi[keep]))))
        tr_log_self = float(np.sum(lam[lam > 0.0] * np.log(lam[lam > 0.0])))
        i_parts.append(p * (tr_log_self - float(lam @ dec.overlap[a] @ log_mu)))
        tr_log_xi = float(np.sum(w[keep] * np.log(xi[keep])))
        ibar_parts.append(p * tr_log_xi)
        ibarp_parts.append(p * (math.log(n * p) * float(np.sum(w[keep])) + tr_log_xi))
    i_val = math.fsum(i_parts)
    return {
        "H_AE": math.fsum(h_ae),
        "H_cond_bar": -math.fsum(h_bar),
        "H_min": -math.log(max(float(dec.probs[a]) * float(dec.xi[a][-1]) for a in range(n))),
        "I": i_val,
        "I_prime": i_val + math.log(n) - entropy(dec.probs),
        "I_bar": math.fsum(ibar_parts),
        "I_bar_prime": math.fsum(ibarp_parts),
        "d1": math.fsum(d1),
        "d1_prime": math.fsum(d1p),
    }


def test_blockwise_arrays_round_as_per_symbol_loops(corpus_states):
    # below 8 entries per row numpy sums rows sequentially, so the masked
    # array expressions must reproduce the loop's bits exactly
    states = dict(corpus_states)
    states["hashed-empty"] = apply_function(random_cq(43, 4, 3), ClassicalFunction(4, 3, (0, 2, 0, 2)))
    states["rank-deficient"] = _rank_deficient_state()
    states["random44"] = random_cq(44, 5, 7)
    for name, st in states.items():
        dec = StateDecomposition(st)
        arrays = {"H_AE": dec.joint_entropy(), "H_cond_bar": dec.cond_entropy_bar(), "H_min": dec.min_entropy()}
        arrays.update(dec.mutual_info_variants())
        arrays.update(dec.trace_distances())
        assert arrays == _per_symbol_loops(dec), name


def test_grid_evaluations_match_scalar():
    st = random_cq(77, 4, 3)
    dec = StateDecomposition(st)
    s_grid = np.linspace(0.0, 1.0, 11)
    # each grid order's sum is its own dot product, as in a one-order call: bit for bit
    grid_vals = dec.renyi_cond_grid(s_grid)
    assert [v.hex() for v in grid_vals.tolist()] == [dec.renyi_cond(float(s)).hex() for s in s_grid]
    bar_vals = dec.renyi_cond_bar_star_grid(s_grid[1:])
    assert [v.hex() for v in bar_vals.tolist()] == [dec.renyi_cond_bar_star(float(s)).hex() for s in s_grid[1:]]
    # each t of phi_grid takes its own SVD, as phi and phi_and_slope do: bit for bit
    t_grid = np.linspace(0.0, 0.5, 11)
    phi_vals = dec.phi_grid(t_grid)
    assert [v.hex() for v in phi_vals.tolist()] == [dec.phi(float(t)).hex() for t in t_grid]
    assert [dec.phi_and_slope(float(t))[0].hex() for t in t_grid] == [dec.phi(float(t)).hex() for t in t_grid]


@pytest.mark.parametrize("values, shape", [([[0.25, 0.5]], "(1, 2)"), (0.25, "()")], ids=["2-d", "scalar"])
@pytest.mark.parametrize("grid", ["phi_grid", "renyi_cond_grid", "renyi_cond_bar_star_grid"])
def test_grids_take_a_1d_array(grid, values, shape):
    dec = preset("tilted-qubit").decomposition
    with pytest.raises(ValueError, match=f"1-d array, got shape {re.escape(shape)}"):
        getattr(dec, grid)(values)


def test_phi_grid_takes_the_factor_in_chunks():
    # 201 factors of 32 x 1024 complex entries take 105 MB at once; one t per chunk peaks at 1.5 MiB
    dec = tensor_power(random_cq(1, 2, 2), 5).decomposition
    dec.phi_grid([0.0])  # the cached terms, which are not part of a grid's peak
    tracemalloc.start()
    try:
        dec.phi_grid(np.linspace(0.0, 0.5, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.7 * 2**20


_GRID_STATES = [*(name for name, _ in default_corpus()), "complex_qubit_state.json^5"]


@given(
    name=hst.sampled_from(_GRID_STATES),
    orders=hst.lists(hst.one_of(hst.just(0.0), hst.floats(S_MIN, S_MAX)), min_size=1, max_size=40),
)
def test_grid_entries_equal_fresh_one_order_evaluations(corpus_states, lifted_complex_state, name, orders):
    # the d_E = 32 lifted state has 32,768 Renyi terms, more than one chunk of
    # _STACK_ENTRIES holds, so its grids go one order per chunk
    state = lifted_complex_state if name not in corpus_states else corpus_states[name]
    dec = state.decomposition
    got = dec.renyi_cond_grid(orders).tolist()
    assert [v.hex() for v in got] == [dec.renyi_cond_grid([s])[0].hex() for s in orders]
    positive = [s for s in orders if s > 0.0] or [S_MAX]
    got = dec.renyi_cond_bar_star_grid(positive).tolist()
    assert [v.hex() for v in got] == [dec.renyi_cond_bar_star_grid([s])[0].hex() for s in positive]


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
        for key, val in report.items():
            assert math.isfinite(val), (name, key)
            if key.startswith(("H_cond", "H_renyi", "H_min")):
                assert val <= cap, (name, key)
        assert list(report) == sorted(report)


def test_rank_deficient_eve_marginal():
    # every inverse power acts on a strict support; blockwise and joint paths
    # must still agree and the identities must survive
    st = _rank_deficient_state()
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
        [base.rhos[0], base.rhos[1], np.eye(2) / 2],
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


def test_one_state_is_decomposed_once(monkeypatch):
    decomposed = []
    original = StateDecomposition.__init__

    def counted(self, state):
        decomposed.append(state)
        original(self, state)

    monkeypatch.setattr(StateDecomposition, "__init__", counted)
    st = preset("tilted-qubit")
    quantity_report(st, [0.25, 0.5])
    exponent_row(st, 0.1)
    exponent_row(st, 0.2)
    rates(st, 0.3)
    reports = verify_hashing_bounds(st, make_family("toeplitz", 2, 1, 1))
    assert all(rep.passed for rep in reports)
    assert sum(s is st for s in decomposed) == 1


# the scalar order evaluations: an int, numpy or 0-d order gives the bits of the same
# float order, and an order that fails validation fails on every call with the grid's message
METHODS = ("renyi_cond", "renyi_cond_bar_star", "renyi_cond_moments", "phi", "phi_and_slope")


def _reference(dec: StateDecomposition, method: str, order):
    """``method`` at ``order`` through its grid, where it has one, else the method itself."""
    if method == "renyi_cond":
        return float(dec.renyi_cond_grid([order])[0])
    if method == "renyi_cond_bar_star":
        return float(dec.renyi_cond_bar_star_grid([order])[0])
    if method == "phi":
        return float(dec.phi_grid([order])[0])
    return getattr(dec, method)(order)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _rebuilt(state: CQState) -> CQState:
    return CQState(state.probs, state.rhos)


@pytest.mark.parametrize(
    "method, order",
    [
        ("renyi_cond", -0.1),
        ("renyi_cond", 4.5),
        ("renyi_cond", math.nan),
        ("renyi_cond_moments", math.inf),
        ("renyi_cond_bar_star", 0.0),
        ("renyi_cond_bar_star", 0),
        ("renyi_cond_bar_star", np.float64(0.0)),
        ("renyi_cond_bar_star", np.array(0.0)),
        ("renyi_cond_bar_star", math.nan),
        ("phi", 0.95),
        ("phi", math.nan),
        ("phi_and_slope", -0.1),
        ("phi_and_slope", math.nan),
    ],
)
def test_invalid_orders_raise_on_every_call(method, order):
    dec = _rebuilt(preset("tilted-qubit")).decomposition
    with pytest.raises(ValueError) as expected:
        _reference(dec, method, order)
    for _ in range(3):
        with pytest.raises(ValueError) as raised:
            getattr(dec, method)(order)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("method, value", [(m, 1) for m in METHODS[:3]] + [("phi", 0), ("phi_and_slope", 0)])
def test_int_numpy_and_0d_orders_share_the_float_value(method, value):
    state = random_cq(5, 4, 3)
    by_float = getattr(_rebuilt(state).decomposition, method)(float(value))
    for order in (value, np.float64(value), np.array(value), np.array(float(value))):
        # on a fresh decomposition, and on one that has evaluated the order before
        cold = getattr(_rebuilt(state).decomposition, method)(order)
        warm = getattr(state.decomposition, method)(order)
        assert _bits(cold) == _bits(warm) == _bits(by_float), (method, order)

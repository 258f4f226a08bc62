import itertools
import json
import math
import os
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lemma_oracle import SUITE_SEEDS, lemma_min_eigenvalues, seeded_psd
from qpa.cli import main
from qpa.cqstate import AlphabetMismatchError, CQState, eve_marginal, load_state_json, preset, random_cq, tensor_power
from qpa.exponents import exponent_curve
from qpa.hashing import make_family, member_function, member_tables
from qpa.hermitian import matrix_log, matrix_power, pinch
import qpa.quantities as qmod
from qpa.quantities import StateDecomposition, mutual_info_variants, renyi_cond_joint
import qpa.verification as vmod
from qpa.verification import (
    DEFAULT_S_GRID,
    default_corpus,
    families_for,
    finite_size_bound,
    matrix_lemma_checks,
    pinching_bound_check,
    run_full_suite,
    avg_leak_bound_rhs,
    verify_avg_leak_bound,
    verify_exp_leak_bound,
    verify_hashing_bounds,
)
from conftest import padded
from renyi_oracle import DPS, psi_reference
from root_oracle import increasing_root

DATA = Path(__file__).parent / "data"
LOG2 = math.log(2.0)

# frozen from an independent enumeration over the two parity-or-projection members
TILTED_SQ_AVG_I_PRIME = 0.210809460714067
TILTED_SQ_MEMBER_I_PRIMES = (0.286121739548083, 0.135497181880051)


def test_ensemble_avg_trivial_family_is_plain_I_prime():
    copy = preset("copy")
    family = make_family("modified_toeplitz", 2, 1, 1)  # single identity member
    assert verify_avg_leak_bound(copy, family).lhs == pytest.approx(LOG2, abs=1e-12)


def test_ensemble_avg_product_state():
    # every Toeplitz-identity member is surjective, so hashing the uniform
    # product state keeps it uniform and leaks nothing; the plain Toeplitz
    # family contains singular matrices whose outputs are non-uniform, and
    # each such member contributes exactly its uniformity gap log M - H(f(A))
    product2 = tensor_power(preset("product"), 2)
    for family in families_for(4):
        rep = verify_avg_leak_bound(product2, family, name="product^2")
        if family.kind == "modified_toeplitz":
            assert rep.lhs == pytest.approx(0.0, abs=1e-12), family.describe()
        else:
            assert rep.lhs >= -1e-12
            assert rep.passed
    one_singular = make_family("toeplitz", 2, 2, 1)  # only the zero matrix fails
    assert verify_avg_leak_bound(product2, one_singular).lhs == pytest.approx(LOG2 / 4, abs=1e-12)


def test_ensemble_avg_matches_frozen_enumeration():
    tilted2 = tensor_power(preset("tilted-qubit"), 2)
    family = make_family("modified_toeplitz", 2, 2, 1)
    got = verify_avg_leak_bound(tilted2, family).lhs
    assert got == pytest.approx(TILTED_SQ_AVG_I_PRIME, abs=1e-12)
    from qpa.cqstate import apply_function

    per_member = [
        mutual_info_variants(apply_function(tilted2, member_function(family, i)))["I_prime"]
        for i in range(family.member_count)
    ]
    assert per_member == pytest.approx(list(TILTED_SQ_MEMBER_I_PRIMES), abs=1e-12)


def test_domain_mismatch_raises():
    with pytest.raises(AlphabetMismatchError):
        verify_avg_leak_bound(preset("copy"), make_family("toeplitz", 2, 2, 1))
    with pytest.raises(AlphabetMismatchError):
        verify_hashing_bounds(preset("copy"), make_family("toeplitz", 2, 2, 1))


def test_order_grid_validated():
    family = make_family("toeplitz", 2, 1, 1)
    with pytest.raises(ValueError):
        verify_avg_leak_bound(preset("copy"), family, s_grid=(0.5, 2.0))
    with pytest.raises(ValueError):
        verify_exp_leak_bound(preset("copy"), family, s_grid=(0.0, 0.5))
    with pytest.raises(ValueError):
        verify_avg_leak_bound(preset("copy"), family, s_grid=())


def test_avg_leak_bound_rhs_closed_forms():
    assert avg_leak_bound_rhs(preset("product"), 2, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert avg_leak_bound_rhs(preset("copy"), 2, 1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        avg_leak_bound_rhs(preset("copy"), 2, 0.0)


def test_verify_avg_leak_bound_product_and_copy():
    product2 = tensor_power(preset("product"), 2)
    family = make_family("modified_toeplitz", 2, 2, 1)
    rep = verify_avg_leak_bound(product2, family, name="product^2")
    assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-12)

    copy2 = tensor_power(preset("copy"), 2)
    rep = verify_avg_leak_bound(copy2, family, name="copy^2")
    assert rep.passed
    assert rep.lhs == pytest.approx(LOG2, abs=1e-12)
    assert rep.slack > 0.5  # strictly positive slack, min rhs is 2


def test_verify_avg_leak_bound_random_states():
    for seed in range(5):
        st = random_cq(seed, 4, 2 + seed % 2)
        for family in families_for(4):
            rep = verify_avg_leak_bound(st, family, name=f"random{seed}")
            assert rep.passed, (seed, family.describe())
            assert rep.metadata["avg_I"] <= rep.lhs + 1e-9
            # an explicit member witnesses the existence claim
            best = rep.metadata["best_member_I_prime"]
            assert best <= min(rep.rhs_by_s.values()) + 1e-9


def _avg_leak_json(capsys, argv):
    assert main(["verify", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)[0]


def test_avg_leak_minimum_does_not_depend_on_the_grid(capsys):
    # the grid is reported, not searched: one order alone, the default grid
    # and the reversed default grid all find the same minimum over (0, 1]
    argv = ["--preset", "tilted-qubit", "--family", "toeplitz:q=2,k=1,m=1"]
    reversed_grid = ",".join(map(str, reversed(DEFAULT_S_GRID)))
    docs = [_avg_leak_json(capsys, [*argv, *grid]) for grid in ([], ["--s", "1.0"], ["--s", "0.1"], ["--s", reversed_grid])]
    assert {(doc["best_s"], doc["slack"]) for doc in docs} == {(docs[0]["best_s"], docs[0]["slack"])}
    assert docs[0]["rhs_by_s"] == docs[3]["rhs_by_s"]
    assert 0.7 < docs[0]["best_s"] < 0.8  # not the best order of any of the grids


def test_report_json_keeps_the_minimum_on_a_key_collision():
    # the minimiser sits within 5e-7 below the grid order 0.8, so both print as "0.8"
    rep = verify_avg_leak_bound(preset("depolarized(0.07302913394638641)"), make_family("toeplitz", 2, 1, 1))
    assert 0.8 - 5e-7 < rep.best_s < 0.8
    doc = rep.to_json_dict()
    assert min(doc["rhs_by_s"].values()) == min(rep.rhs_by_s.values()) == rep.rhs_by_s[round(rep.best_s, 12)]
    assert doc["rhs_by_s"]["0.8"] < rep.rhs_by_s[0.8]


def _reference_minimum(psi, log_vm: float) -> tuple[float, float]:
    """50-digit ``(argument, minimum)`` of ``exp(s log(vM) + psi(s)) / s`` on ``(0, 1]``.

    Its log is convex, and its derivative ``log(vM) + psi'(s) - 1/s`` runs
    from ``-inf`` at 0; the minimum sits at that derivative's root, clamped to 1.
    """
    with mpmath.workdps(DPS):
        a = mpmath.mpf(log_vm)

        def slope(s):
            return a + mpmath.diff(psi, s) - 1 / s

        one = mpmath.mpf(1)
        s = one if slope(one) <= 0 else mpmath.findroot(slope, (mpmath.mpf("1e-6"), one), solver="anderson")
        return float(s), float(mpmath.exp(s * a + psi(s)) / s)


def _assert_at_reference_minimum(best_s, rhs_by_s, reference, label):
    ref_s, ref_min = reference
    assert abs(best_s - ref_s) <= 1e-12, label
    assert abs(min(rhs_by_s.values()) - ref_min) <= 1e-14 * ref_min, label


def test_avg_leak_minima_match_the_50_digit_root():
    psis = {name: psi_reference(state) for name, state in default_corpus()}  # all have a full-rank E marginal
    references = {}  # toeplitz and modified_toeplitz of one (state, M) share the minimum
    reports = [rep for rep in run_full_suite() if rep.check == "hashing-bound-I-prime"]
    assert len(reports) == 108
    for rep in reports:
        name, v, big_m = rep.metadata["state"], rep.metadata["v"], rep.metadata["M"]
        if (name, big_m) not in references:
            references[name, big_m] = _reference_minimum(psis[name], math.log(v * big_m))
        _assert_at_reference_minimum(rep.best_s, rep.rhs_by_s, references[name, big_m], (name, rep.metadata["family"]))

    # the lifted goldens, as stored: tilted-qubit^2, and a complex qubit state
    # to the 5th power, whose psi is 5 times the one-copy psi (d_E = 32)
    one_copy = psi_reference(load_state_json((DATA / "complex_qubit_state.json").read_text(encoding="utf-8")))
    lifted = (
        ("tilted_lifted_verify_golden.json", psi_reference(tensor_power(preset("tilted-qubit"), 2))),
        ("complex_lifted_verify_golden.json", lambda s: 5 * one_copy(s)),
    )
    for golden, psi in lifted:
        doc = json.loads((DATA / golden).read_text(encoding="utf-8"))[0]
        reference = _reference_minimum(psi, math.log(doc["metadata"]["v"] * doc["metadata"]["M"]))
        _assert_at_reference_minimum(doc["best_s"], doc["rhs_by_s"], reference, golden)


@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from([(2, 2), (2, 3), (4, 2), (4, 3)]),
    index=st.integers(0, 3),
)
def test_avg_leak_minimum_is_below_a_fine_grid(seed, shape, index):
    state = random_cq(seed, *shape)
    families = families_for(state.alphabet_size)
    family = families[index % len(families)]
    rep = verify_avg_leak_bound(state, family)
    dec = state.decomposition
    s = np.arange(1, 2002) / 2001.0
    grid = dec.v_count**s * np.exp(s * (math.log(family.range_size) - dec.renyi_cond_grid(s))) / s
    minimum = min(rep.rhs_by_s.values())
    assert minimum == rep.rhs_by_s[round(rep.best_s, 12)]
    assert minimum <= float(np.min(grid)) * (1.0 + 1e-12)
    assert minimum >= float(np.min(grid)) * (1.0 - 1e-6)


def test_verify_exp_leak_bound_closed_forms_and_enumeration():
    product2 = tensor_power(preset("product"), 2)
    family = make_family("modified_toeplitz", 2, 2, 1)
    rep = verify_exp_leak_bound(product2, family, name="product^2")
    assert rep.passed
    for s, lhs in rep.metadata["lhs_by_s"].items():
        assert lhs == pytest.approx(1.0, abs=1e-12)

    copy = preset("copy")
    trivial = make_family("modified_toeplitz", 2, 1, 1)
    rep = verify_exp_leak_bound(copy, trivial, name="copy")
    assert rep.metadata["lhs_by_s"]["1"] == pytest.approx(2.0, abs=1e-12)
    assert rep.passed
    # at s = 1 the bound reads 2 <= 1 + 2 exp(0) = 3
    assert rep.rhs_by_s[1.0] == pytest.approx(3.0, abs=1e-12)

    tilted2 = tensor_power(preset("tilted-qubit"), 2)
    for family in families_for(4):
        assert verify_exp_leak_bound(tilted2, family, name="tilted^2").passed, family.describe()


def test_exp_leak_bound_reports_the_smallest_binding_order():
    # copy against the one-member family: the slack 1 + 2^s - 2^s is 1 at every
    # order up to rounding, so no order may win by its last bit
    copy = preset("copy")
    trivial = make_family("modified_toeplitz", 2, 1, 1)
    for grid in (DEFAULT_S_GRID, DEFAULT_S_GRID[::-1]):
        rep = verify_exp_leak_bound(copy, trivial, grid, name="copy")
        assert rep.best_s == 0.1
        assert rep.lhs == rep.metadata["lhs_by_s"]["0.1"]
    # a slack that is not flat binds at its minimum
    tilted2 = tensor_power(preset("tilted-qubit"), 2)
    rep = verify_exp_leak_bound(tilted2, make_family("toeplitz", 2, 2, 1), name="tilted^2")
    gaps = {s: rep.rhs_by_s[s] - rep.metadata["lhs_by_s"][f"{s:g}"] for s in rep.rhs_by_s}
    assert rep.best_s == min(gaps, key=gaps.get)
    assert rep.slack == gaps[rep.best_s]


def test_verify_exp_leak_bound_random_states():
    for seed in range(5):
        st = random_cq(100 + seed, 4, 2)
        for family in families_for(4):
            assert verify_exp_leak_bound(st, family, name=f"random{seed}").passed


def test_hashing_bounds_share_one_enumeration(monkeypatch):
    tilted2 = tensor_power(preset("tilted-qubit"), 2)
    family = make_family("toeplitz", 2, 2, 2)
    separate = [
        verify_avg_leak_bound(tilted2, family, name="tilted^2").to_json_dict(),
        verify_exp_leak_bound(tilted2, family, name="tilted^2").to_json_dict(),
    ]
    passes = []
    original = vmod.grouped_member_mutual_info

    def counted(pairs):
        passes.extend(fam for _, fam in pairs)
        return original(pairs)

    monkeypatch.setattr(vmod, "grouped_member_mutual_info", counted)
    together = verify_hashing_bounds(tilted2, family, name="tilted^2")
    assert [rep.to_json_dict() for rep in together] == separate
    assert passes == [family]  # one family pass for both bounds
    with pytest.raises(ValueError):
        verify_hashing_bounds(tilted2, family, s_grid=(2.0,))
    assert passes == [family]  # a bad grid is rejected before hashing
    # each one-bound call is the one-pair case too: one pass, and none for a bad grid
    for verify in (verify_avg_leak_bound, verify_exp_leak_bound):
        passes.clear()
        verify(tilted2, family)
        assert passes == [family]
        with pytest.raises(ValueError):
            verify(tilted2, family, s_grid=(2.0,))
        assert passes == [family]


def test_full_suite_reports_equal_the_one_pair_reports():
    # the suite and verify_hashing_bounds build their reports on one path: a pair's two
    # suite reports are those of the pair alone, whatever the other pairs of its pass
    pairs = [(name, state, f) for name, state in default_corpus() for f in families_for(state.alphabet_size)]
    suite = [rep.to_json_dict() for rep in run_full_suite()]
    assert len(pairs) == 108 and len(suite) == 2 * 108 + 2
    for i, (name, state, family) in enumerate(pairs):
        alone = verify_hashing_bounds(state, family, name=name)
        assert [rep.to_json_dict() for rep in alone] == suite[2 * i : 2 * i + 2], name


def test_report_json_schema():
    rep = verify_avg_leak_bound(tensor_power(preset("copy"), 2), make_family("toeplitz", 2, 2, 1), name="copy^2")
    doc = rep.to_json_dict()
    assert set(doc) == {
        "check", "state", "family", "lhs", "rhs_by_s", "best_s", "slack", "passed", "metadata",
    }
    assert doc["passed"] is True
    assert doc["state"] == "copy^2"
    assert all(isinstance(v, float) for v in doc["rhs_by_s"].values())


def test_parallel_and_serial_enumeration_agree():
    tilted2 = tensor_power(preset("tilted-qubit"), 2)
    family = make_family("toeplitz", 2, 2, 2)
    saved = os.environ.get("QPA_THREADS")
    try:
        os.environ["QPA_THREADS"] = "1"
        serial = verify_avg_leak_bound(tilted2, family, name="tilted^2")
        os.environ["QPA_THREADS"] = "4"
        threaded = verify_avg_leak_bound(tilted2, family, name="tilted^2")
    finally:
        if saved is None:
            os.environ.pop("QPA_THREADS", None)
        else:
            os.environ["QPA_THREADS"] = saved
    assert abs(serial.lhs - threaded.lhs) <= 1e-12
    assert abs(serial.slack - threaded.slack) <= 1e-12


def test_finite_size_bound_values():
    assert finite_size_bound(preset("copy"), 2, 1.0) == pytest.approx(2 * LOG2, abs=1e-12)
    assert finite_size_bound(preset("product"), 2, 1.0) == pytest.approx(LOG2, abs=1e-12)
    tilted2 = tensor_power(preset("tilted-qubit"), 2)
    got = min(finite_size_bound(tilted2, 4, s) for s in DEFAULT_S_GRID)
    # independent joint-path grid evaluation
    v = 3  # eve marginal of the square has a doubled middle eigenvalue
    expected = min(
        math.log(v) + LOG2 / s + max(0.0, math.log(4) - renyi_cond_joint(tilted2, s))
        for s in DEFAULT_S_GRID
    )
    assert got == pytest.approx(expected, abs=1e-10)
    with pytest.raises(ValueError):
        finite_size_bound(tilted2, 4, float("nan"))


def test_matrix_lemma_scalar_case():
    x = np.diag([1.0, 4.0])
    eye = np.eye(2)
    diff = eye + matrix_power(x, 0.5) - matrix_power(eye + x, 0.5)
    assert np.allclose(np.diag(diff), [2 - math.sqrt(2), 3 - math.sqrt(5)])
    assert np.linalg.eigvalsh(diff).min() >= -1e-12
    log_diff = matrix_power(x, 0.5) / 0.5 - matrix_log(eye + x)
    assert np.linalg.eigvalsh(log_diff).min() >= -1e-12


def test_matrix_lemma_checks_seeded():
    for seed in range(20):
        rep = matrix_lemma_checks(seed=seed, dim=2 + seed % 5)
        assert rep.passed, seed
        assert rep.min_eig_power >= -1e-9
        assert rep.min_eig_log >= -1e-9


@pytest.mark.parametrize("s_grid", [(0.0, 0.5), (2.0,), (-0.5,), ()], ids=["zero", "above-one", "negative", "empty"])
def test_matrix_lemma_grid_validated(s_grid):
    with pytest.raises(ValueError, match=r"s in \(0, 1\]"):
        matrix_lemma_checks(seed=0, dim=3, s_grid=s_grid)


def test_matrix_lemma_scalars_match_matrix_oracle():
    for seed, dim in SUITE_SEEDS:
        power, log = lemma_min_eigenvalues(seed, dim, DEFAULT_S_GRID)
        power_gap, log_gap = vmod._lemma_gaps(np.linalg.eigh(seeded_psd(seed, dim))[0], DEFAULT_S_GRID)
        np.testing.assert_allclose(power_gap.min(axis=1), power, rtol=0, atol=1e-12)
        np.testing.assert_allclose(log_gap.min(axis=1), log, rtol=0, atol=1e-12)
        rep = matrix_lemma_checks(seed=seed, dim=dim)
        assert rep.min_eig_power == pytest.approx(power.min(), abs=1e-12)
        assert rep.min_eig_log == pytest.approx(log.min(), abs=1e-12)
        # the power lemma is tight at s = 1, where the scalar difference is exactly 0
        assert rep.min_eig_power == 0.0


@pytest.mark.parametrize("seed", [0, 45, 123, 194])
def test_matrix_lemma_scalars_match_mpmath(seed):
    # 50-digit eigenvalues of the same X; seed 194 is where the matrix route reads -5.09e-14
    dim = dict(SUITE_SEEDS)[seed]
    x = seeded_psd(seed, dim)
    power_gap, log_gap = vmod._lemma_gaps(np.linalg.eigh(x)[0], DEFAULT_S_GRID)
    with mpmath.workdps(50):
        lam = [mpmath.re(e) for e in mpmath.eighe(mpmath.matrix(x.tolist()), eigvals_only=True)]
        for k, s in enumerate(DEFAULT_S_GRID):
            s_mp = mpmath.mpf(s)
            true_power = min(1 + e**s_mp - (1 + e) ** s_mp for e in lam)
            true_log = min(e**s_mp / s_mp - mpmath.log1p(e) for e in lam)
            assert abs(power_gap[k].min() - true_power) <= 1e-13, s
            assert abs(log_gap[k].min() - true_log) <= 1e-13, s
            assert (true_power == 0) if s == 1.0 else (true_power > 0), s
    assert matrix_lemma_checks(seed=seed, dim=dim).min_eig_power == 0.0


@given(
    lam=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6),
    s=st.floats(0.0, 1.0, exclude_min=True),
)
def test_lemma_gaps_are_nonnegative(lam, s):
    # both lemmas hold for every lambda >= 0 and s in (0, 1]; below 0 is only the
    # rounding of terms of size (1 + lambda)^s. A subnormal s overflows lambda^s / s
    # to +inf, which still satisfies the log lemma.
    lam = np.array(lam)
    with np.errstate(over="ignore"):
        power_gap, log_gap = vmod._lemma_gaps(lam, (s,))
    floor = -1e-15 * (1.0 + lam) ** s
    assert np.all(power_gap[0] >= floor)
    assert np.all(log_gap[0] >= floor)


def test_lemma_gaps_cut_the_kernel():
    # eigh returns a rank-deficient X's zero eigenvalues as rounding-sized values of
    # either sign; as in matrix_power, those at or below SUPPORT_RTOL * max are exact zeros
    power_gap, log_gap = vmod._lemma_gaps(np.array([-3e-17, 2e-13, 1.0]), DEFAULT_S_GRID)
    assert np.all(power_gap[:, :2] == 0.0)
    assert np.all(log_gap[:, :2] == 0.0)


def test_pinching_sandwich_matches_per_symbol_pinch(corpus_states):
    for name, state in corpus_states.items():
        eve = eve_marginal(state)
        reference = CQState(state.probs, [pinch(eve, rho) for rho in state.rhos])
        info = reference.decomposition.mutual_info_variants()
        rep = pinching_bound_check(state)
        assert rep.i_pinched == pytest.approx(info["I"], abs=1e-12), name
        assert rep.i_bar_pinched == pytest.approx(info["I_bar"], abs=1e-12), name


def test_pinching_bound_commuting_state():
    from qpa.cqstate import make_cq_state

    st = make_cq_state([0.6, 0.4], [np.diag([0.9, 0.1]), np.diag([0.2, 0.8])])
    rep = pinching_bound_check(st)
    assert rep.passed
    # pinching by the diagonal marginal leaves diagonal states alone
    assert rep.i_pinched == pytest.approx(rep.i_original, abs=1e-12)
    assert rep.i_bar_pinched == pytest.approx(rep.i_pinched, abs=1e-12)


def test_pinching_bound_corpus(corpus_states):
    for name, st in corpus_states.items():
        rep = pinching_bound_check(st)
        assert rep.passed, name
        assert rep.i_original <= rep.i_pinched + rep.log_v + 1e-9, name


def test_corpus_marginals_have_full_rank(corpus_states):
    # so counting only the clusters on supp(rho^E) leaves every corpus v, and every golden
    for name, st in corpus_states.items():
        assert st.decomposition.eve_support.all(), name


@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from([(2, 2), (3, 2), (4, 3), (4, 2)]),
    extra=st.integers(1, 3),
    s=st.sampled_from([0.25, 0.5, 1.0]),
)
@example(seed=7, shape=(2, 2), extra=1, s=0.5)  # v rose from 2 to 3 when the kernel counted as a cluster
def test_zero_padding_eve_leaves_v_and_the_bounds(seed, shape, extra, s):
    state = random_cq(seed, *shape)
    big = padded(state, extra)
    assert big.decomposition.v_count == state.decomposition.v_count
    assert big.decomposition.v_count < len(big.decomposition.eve_clusters)  # the kernel's cluster still pinches
    assert avg_leak_bound_rhs(big, 2, s) == pytest.approx(avg_leak_bound_rhs(state, 2, s), rel=1e-12)
    assert finite_size_bound(big, 4, s) == pytest.approx(finite_size_bound(state, 4, s), rel=1e-12)


def test_full_suite_hashes_each_member_once(monkeypatch):
    pairs = [(state, f) for _, state in default_corpus() for f in families_for(state.alphabet_size)]
    assert len(pairs) == 108 and sum(f.member_count for _, f in pairs) == 412
    # a table that repeats inside its own family is hashed once, e.g. every
    # Toeplitz-identity member with k = m is the identity
    tables = [(state, f, member_tables(f, 0, f.member_count).tolist()) for state, f in pairs]
    per_family = sum(len({tuple(t) for t in family_tables}) for _, _, family_tables in tables)
    assert per_family == 412 - 25
    # and so is one that an earlier family of the same state and M hashed:
    # toeplitz and modified_toeplitz of one (state, M) share tables
    distinct = len({(id(state), f.range_size, tuple(t)) for state, f, family_tables in tables for t in family_tables})
    assert distinct == 308
    passes, hashed = [], []
    original_pass, original_blocks = vmod.grouped_member_mutual_info, vmod.hashed_blocks

    def counted_pass(pass_pairs):
        out = original_pass(pass_pairs)
        passes.append([(f, len(rows)) for (_, f), rows in zip(pass_pairs, out)])
        return out

    def counted_blocks(state, tables, range_size):
        hashed.append((id(state), range_size, len(tables)))
        return original_blocks(state, tables, range_size)

    monkeypatch.setattr(vmod, "grouped_member_mutual_info", counted_pass)
    monkeypatch.setattr(vmod, "hashed_blocks", counted_blocks)
    reports = run_full_suite()
    assert all(rep.passed for rep in reports)
    assert passes == [[(f, f.member_count) for _, f in pairs]]  # one grouped pass: 108 pairs, 412 members
    # one hashed_blocks call per (state, M), 54 in all: each (M, d) group of the
    # suite fits one chunk, and every modified_toeplitz table of a (state, M)
    # is also a toeplitz table, which the pass hashed already
    assert len(hashed) == len({(state, big_m) for state, big_m, _ in hashed}) == 54
    assert sum(n for _, _, n in hashed) == distinct


def test_full_suite_evaluates_each_order_once(monkeypatch):
    # the right-hand sides depend on the state, M and s only: one grid call per
    # state and kind holds the grid orders and the state's roots, and
    # toeplitz and modified_toeplitz of one (state, M) share one root
    grids, moments, roots = [], [], []
    for attr in ("renyi_cond_grid", "renyi_cond_bar_star_grid"):
        original = getattr(StateDecomposition, attr)

        def counted(self, s_values, _original=original, _attr=attr):
            grids.append(((self, _attr), np.ravel(s_values).tolist()))  # the decompositions stay alive
            return _original(self, s_values)

        monkeypatch.setattr(StateDecomposition, attr, counted)
    original_moments, original_roots = StateDecomposition.renyi_cond_moments, vmod.increasing_roots

    def counted_moments(self, s):
        moments.append((self, s))
        return original_moments(self, s)

    def counted_roots(fn, f_lo, f_hi, lo, hi):
        roots.append((len(f_lo), lo, hi))
        return original_roots(fn, f_lo, f_hi, lo, hi)

    monkeypatch.setattr(StateDecomposition, "renyi_cond_moments", counted_moments)
    monkeypatch.setattr(vmod, "increasing_roots", counted_roots)
    reports = run_full_suite()
    assert all(rep.passed for rep in reports)
    # at most one grid call per (state, kind)
    assert len(grids) == len({(id(dec), kind) for (dec, kind), _ in grids}) == 2 * 29
    assert all(orders[: len(DEFAULT_S_GRID)] == list(DEFAULT_S_GRID) for _, orders in grids)
    # one evaluation per distinct (state, kind, order), grid orders and roots alike: a root
    # clamped to 1 reads the grid's order 1
    evaluated = [(id(dec), kind, s) for (dec, kind), orders in grids for s in orders]
    assert len(evaluated) == len(set(evaluated)) == 619
    # one lockstep call, one row per (state, M) over (S_MIN, 1], whose steps evaluate each order of a state once
    assert roots == [(54, qmod.S_MIN, 1.0)]
    assert len(moments) == len({(id(dec), s) for dec, s in moments}) == 420


def _scalar_avg_leak_root(state, big_m):
    """The averaged-leak minimiser of one ``(state, M)`` alone, by the scalar root oracle."""
    dec = state.decomposition
    return increasing_root(
        lambda s: math.log(dec.v_count * big_m) + dec.renyi_cond_moments(s)[1] - 1.0 / s, qmod.S_MIN, 1.0
    )


def test_batching_does_not_change_an_avg_leak_root(corpus_states):
    # every (state, M) of one _hashing_reports call is a row of one lockstep root call;
    # each row's root must be the one its (state, M) gets alone
    extra = {f"random_cq({seed}, {a}, {d})": random_cq(seed, a, d) for seed, a, d in
             [(0, 2, 2), (1, 2, 3), (2, 4, 4), (3, 8, 2), (4, 8, 3), (5, 8, 2), (6, 8, 3)]}
    pairs = []
    for i, (name, state) in enumerate([*corpus_states.items(), *extra.items()]):
        k = state.alphabet_size.bit_length() - 1
        subsets = [ms for n in range(1, k + 1) for ms in itertools.combinations(range(1, k + 1), n)]  # of log2 M
        pairs += [(name, state, make_family("toeplitz", 2, k, m)) for m in subsets[i % len(subsets)]]
    assert {(state.alphabet_size, family.range_size) for _, state, family in pairs} == {
        (2, 2), (4, 2), (4, 4), (8, 2), (8, 4), (8, 8)
    }
    batched = [avg.best_s for avg, _ in vmod._hashing_reports(pairs, DEFAULT_S_GRID)]
    assert {s == 1.0 for s in batched} == {True, False}  # rows clamped to 1 beside interior roots
    alone = [_scalar_avg_leak_root(state, family.range_size) for _, state, family in pairs]
    assert [s.hex() for s in batched] == [s.hex() for s in alone]


def test_one_row_avg_leak_root_equals_the_scalar_root(lifted_complex_state):
    state, family = lifted_complex_state, make_family("modified_toeplitz", 2, 5, 3)
    avg, _ = verify_hashing_bounds(state, family)
    assert avg.best_s.hex() == _scalar_avg_leak_root(state, 8).hex()


def test_clamped_root_reads_the_same_bits_from_the_grid_and_the_root():
    # copy with M = 2 has its averaged-leak minimum at the clamp s = 1, a grid order:
    # rhs_by_s[round(best_s, 12)] overwrites the grid's entry, so both must agree
    state, family = preset("copy"), make_family("toeplitz", 2, 1, 1)
    on_grid = verify_avg_leak_bound(state, family)
    off_grid = verify_avg_leak_bound(state, family, (0.5,))
    assert on_grid.best_s == off_grid.best_s == 1.0
    from_root = off_grid.rhs_by_s[1.0]
    assert from_root.hex() == on_grid.rhs_by_s[1.0].hex() == avg_leak_bound_rhs(state, 2, 1.0).hex()
    avg_reports = (rep for rep in run_full_suite() if rep.check == "hashing-bound-I-prime")
    suite = next(rep for rep in avg_reports if rep.metadata["state"] == "copy")
    assert suite.best_s == 1.0 and suite.rhs_by_s == on_grid.rhs_by_s


def test_lifted_bound_side_stays_within_twice_one_order(monkeypatch, lifted_complex_state):
    # the d_E = 32 lifted state has 32,768 Renyi terms: an unchunked grid over the
    # 10 default orders would hold 10 such arrays at once; the family pass is
    # taken out of the measure, as it chunks its own stacks by _STACK_ENTRIES
    state, family = lifted_complex_state, make_family("modified_toeplitz", 2, 5, 3)
    members = vmod.grouped_member_mutual_info([(state, family)])
    monkeypatch.setattr(vmod, "grouped_member_mutual_info", lambda *_: members)
    dec = state.decomposition
    assert dec._renyi_terms[1].size == 32768 and dec._bar_terms  # both cached before measuring

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_order = peak(lambda: dec.renyi_cond_grid([0.5]))
    assert peak(lambda: verify_hashing_bounds(state, family)) <= 2 * one_order


def test_full_suite_decomposes_each_state_once(monkeypatch):
    # each corpus state, once; hashed members and pinched states build no decomposition
    corpus = default_corpus()
    assert len(corpus) == 29
    decomposed = []
    original = StateDecomposition.__init__

    def counted(self, state, *args):
        decomposed.append(state)
        original(self, state, *args)

    monkeypatch.setattr(StateDecomposition, "__init__", counted)
    reports = run_full_suite()
    assert all(rep.passed for rep in reports)
    assert len(decomposed) == 29


def test_full_suite_eigenproblem_count(monkeypatch):
    # 30 validations building the corpus (depolarized(0.3) validates its tilted
    # base too), 2 per corpus shape (|A|, d) (4), and 3 per stack of the family pass
    # (one per (M, d): 6) and of the pinching checks (one per (|A|, d): 4), plus
    # one per lemma dimension (5): 30 + 8 + 18 + 12 + 5
    shapes = []
    original = np.linalg.eigh

    def counted(mats, *args, **kwargs):
        shapes.append(np.shape(mats))
        return original(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    reports = run_full_suite()
    assert all(rep.passed for rep in reports)
    assert len(shapes) == 73


def _rebuilt(state: CQState) -> CQState:
    return CQState(state.probs, state.rhos)


def test_warm_reports_equal_cold_ones():
    state = random_cq(11, 4, 3)
    for family in (make_family("toeplitz", 2, 2, 2), make_family("modified_toeplitz", 2, 2, 2)):
        cold = [rep.to_json_dict() for rep in verify_hashing_bounds(state, family, name="r")]
        warm = [rep.to_json_dict() for rep in verify_hashing_bounds(state, family, name="r")]
        assert warm == cold
        rebuilt = [rep.to_json_dict() for rep in verify_hashing_bounds(_rebuilt(state), family, name="r")]
        assert rebuilt == cold
    cold_csv = exponent_curve(state, 0.0, math.log(4), 41).to_csv_text()
    assert exponent_curve(state, 0.0, math.log(4), 41).to_csv_text() == cold_csv
    assert exponent_curve(_rebuilt(state), 0.0, math.log(4), 41).to_csv_text() == cold_csv

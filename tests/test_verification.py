import math
import os

import numpy as np
import pytest

from qpa.cqstate import AlphabetMismatchError, preset, random_cq, tensor_power
from qpa.hashing import make_family
from qpa.hermitian import HermitianMatrix, matrix_log, matrix_power
from qpa.quantities import mutual_info_variants, renyi_cond_joint
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
    from qpa.hashing import enumerate_members

    per_member = [
        mutual_info_variants(apply_function(tilted2, m.function))["I_prime"]
        for m in enumerate_members(family)
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
    calls = []
    original = vmod.apply_function

    def counted(state, f):
        calls.append(f)
        return original(state, f)

    monkeypatch.setattr(vmod, "apply_function", counted)
    together = verify_hashing_bounds(tilted2, family, name="tilted^2")
    assert [rep.to_json_dict() for rep in together] == separate
    assert len(calls) == family.member_count
    with pytest.raises(ValueError):
        verify_hashing_bounds(tilted2, family, s_grid=(2.0,))
    assert len(calls) == family.member_count  # a bad grid is rejected before hashing


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
    x = HermitianMatrix(np.diag([1.0, 4.0]))
    eye = np.eye(2)
    diff = eye + matrix_power(x, 0.5).mat - matrix_power(HermitianMatrix(eye + x.mat), 0.5).mat
    assert np.allclose(np.diag(diff), [2 - math.sqrt(2), 3 - math.sqrt(5)])
    assert np.linalg.eigvalsh(diff).min() >= -1e-12
    log_diff = matrix_power(x, 0.5).mat / 0.5 - matrix_log(HermitianMatrix(eye + x.mat)).mat
    assert np.linalg.eigvalsh(log_diff).min() >= -1e-12


def test_matrix_lemma_checks_seeded():
    for seed in range(20):
        rep = matrix_lemma_checks(seed=seed, dim=2 + seed % 5)
        assert rep.passed, seed
        assert rep.min_eig_power >= -1e-9
        assert rep.min_eig_log >= -1e-9


def test_pinching_bound_commuting_state():
    from qpa.cqstate import make_cq_state

    st = make_cq_state([0.6, 0.4], [np.diag([0.9, 0.1]), np.diag([0.2, 0.8])])
    rep = pinching_bound_check(st, name="diag")
    assert rep.passed
    # pinching by the diagonal marginal leaves diagonal states alone
    assert rep.i_pinched == pytest.approx(rep.i_original, abs=1e-12)
    assert rep.i_bar_pinched == pytest.approx(rep.i_pinched, abs=1e-12)


def test_pinching_bound_corpus(corpus_states):
    for name, st in corpus_states.items():
        rep = pinching_bound_check(st, name=name)
        assert rep.passed, name
        assert rep.i_original <= rep.i_pinched + rep.log_v + 1e-9, name


def test_full_suite_hashes_each_member_once(monkeypatch):
    members = sum(f.member_count for _, st in default_corpus() for f in families_for(st.alphabet_size))
    assert members == 412
    calls = []
    original = vmod.apply_function

    def counted(state, f):
        calls.append(f)
        return original(state, f)

    monkeypatch.setattr(vmod, "apply_function", counted)
    reports = run_full_suite()
    assert all(rep.passed for rep in reports)
    assert len(calls) == members

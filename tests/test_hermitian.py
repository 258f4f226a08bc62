import math

import numpy as np
import pytest

from qpa.hermitian import (
    SUPPORT_RTOL,
    EigenConvergenceError,
    HermitianError,
    HermitianMatrix,
    SizeCapError,
    cluster_ranges,
    eig_hermitian,
    eigh_batch,
    hermitian_entries,
    matrix_log,
    matrix_power,
    pinch,
    tensor,
)

from conftest import random_psd


def test_construction_symmetrizes_and_validates():
    m = hermitian_entries([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    assert np.allclose(m, m.conj().T)
    with pytest.raises(HermitianError):
        hermitian_entries([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HermitianError):
        hermitian_entries([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(HermitianError):
        hermitian_entries(np.zeros((2, 3)))
    # the eve_states wrapper holds the Hermitian average without the asymmetry check
    assert np.array_equal(HermitianMatrix([[0.0, 1.0], [0.0, 0.0]]).mat, [[0.0, 0.5], [0.5, 0.0]])


def test_eig_diagonal_and_pauli():
    w, v = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(np.abs(v), np.eye(2))
    w, _ = eig_hermitian([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(w, [1.0, -1.0])


def test_eig_reconstruction_random():
    rng = np.random.default_rng(4)
    m = random_psd(rng, 4) - 2.0 * np.eye(4)
    w, v = eig_hermitian(m)
    rebuilt = (v * w) @ v.conj().T
    assert np.linalg.norm(rebuilt - m) <= 1e-10
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_eig_rebuild_residual_seeded(dim):
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (g + g.conj().T) / 2
        w, v = eig_hermitian(m)
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-10
        assert np.all(np.diff(w) <= 0)


def test_eig_deterministic():
    rng = np.random.default_rng(7)
    m = random_psd(rng, 5)
    w1, v1 = eig_hermitian(m)
    w2, v2 = eig_hermitian(m.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)
    # both arrays are read-only
    assert not (w1.flags.writeable or v1.flags.writeable)


def test_matrix_power_pseudo_inverse():
    m = matrix_power(np.diag([4.0, 0.0]), -0.5)
    assert np.allclose(m, np.diag([0.5, 0.0]), atol=1e-14)


def test_matrix_power_identity_map():
    rng = np.random.default_rng(11)
    m = random_psd(rng, 3)
    assert np.max(np.abs(matrix_power(m, 1.0) - m)) <= 1e-12


def test_matrix_power_fractional_of_psd_matches_scalar():
    rng = np.random.default_rng(3)
    m = random_psd(rng, 3)
    powered = matrix_power(m, 0.3)
    expect = np.sort(eig_hermitian(m)[0] ** 0.3)
    assert np.allclose(np.sort(np.linalg.eigvalsh(powered)), expect, atol=1e-12)


def test_matrix_power_fractional_negative_eigenvalue_rejected():
    with pytest.raises(HermitianError):
        matrix_power(np.diag([1.0, -1.0]), 0.5)
    # integer powers act on the full spectrum
    sq = matrix_power(np.diag([1.0, -2.0]), 2)
    assert np.allclose(sq, np.diag([1.0, 4.0]))


def test_matrix_log_and_exp():
    assert np.allclose(matrix_log(np.eye(3)), 0.0)
    rng = np.random.default_rng(5)
    m = random_psd(rng, 3) + np.eye(3)
    w, v = eig_hermitian(matrix_log(m))
    exp_of_log = (v * np.exp(w)) @ v.conj().T
    assert np.allclose(exp_of_log, m, atol=1e-10)
    with pytest.raises(HermitianError):
        matrix_log(np.diag([1.0, -1.0]))


def test_matrix_function_commutes_with_input():
    rng = np.random.default_rng(9)
    m = hermitian_entries(random_psd(rng, 4), atol=None)
    f = matrix_power(m, 0.7)
    assert np.max(np.abs(f @ m - m @ f)) <= 1e-9


def test_tensor_basics():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    k = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(k, np.diag([3.0, 4.0, 6.0, 8.0]))
    with pytest.raises(SizeCapError):
        tensor(np.eye(70), np.eye(70))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(13)
    for seed in range(10):
        a = random_psd(rng, 3)
        b = random_psd(rng, 2)
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) <= 1e-10


def test_tensor_spectrum_is_pairwise_products():
    rng = np.random.default_rng(17)
    a = random_psd(rng, 2)
    b = random_psd(rng, 2)
    got = np.sort(eig_hermitian(tensor(a, b))[0])
    expect = np.sort(np.outer(eig_hermitian(a)[0], eig_hermitian(b)[0]).ravel())
    assert np.allclose(got, expect, atol=1e-12)


def test_pinch_identity_and_distinct_diagonal():
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    assert np.allclose(pinch(np.eye(2), rho), rho)
    sigma = np.diag([1 / 3, 2 / 3])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pinch(sigma, x), 0.0, atol=1e-14)


def test_pinch_trace_preserving_and_idempotent():
    rng = np.random.default_rng(19)
    for seed in range(20):
        sigma = hermitian_entries(random_psd(rng, 4), atol=None)
        rho = random_psd(rng, 4)
        once = pinch(sigma, rho)
        assert abs(np.trace(once) - np.trace(rho)) <= 1e-10
        twice = pinch(sigma, once)
        assert np.max(np.abs(twice - once)) <= 1e-10
        assert np.max(np.abs(once @ sigma - sigma @ once)) <= 1e-9


def test_pinching_inequality_seeded():
    # v * pinch(sigma, rho) - rho stays PSD across 200 seeded pairs
    count = 0
    seed = 0
    while count < 200:
        dim = 2 + seed % 5
        rng = np.random.default_rng(20000 + seed)
        sigma = random_psd(rng, dim)
        rho = hermitian_entries(random_psd(rng, dim), atol=None)
        v = len(cluster_ranges(eig_hermitian(sigma)[0]))
        diff = v * pinch(sigma, rho) - rho
        assert np.linalg.eigvalsh(diff).min() >= -1e-9
        count += 1
        seed += 1


def test_spectral_utilities():
    w, _ = eig_hermitian(np.eye(4))
    assert np.max(np.abs(w)) == pytest.approx(1.0)
    assert len(cluster_ranges(w)) == 1

    w, _ = eig_hermitian(np.diag([0.5, 0.5, 0.0, 0.0]))
    assert len(cluster_ranges(w)) == 2
    assert int(np.sum(w > SUPPORT_RTOL * np.max(np.abs(w)))) == 2  # support rank
    assert w[-1] == pytest.approx(0.0)

    m = np.eye(2)
    cube = tensor(tensor(m, m), m)
    assert len(cluster_ranges(eig_hermitian(cube / 8)[0])) == 1


def test_cluster_count_conservative_on_near_degenerate():
    # a gap well above the clustering tolerance separates, well below merges
    w, _ = eig_hermitian(np.diag([1.0, 1.0 - 1e-12, 0.5]))
    assert len(cluster_ranges(w)) == 2
    w, _ = eig_hermitian(np.diag([1.0, 1.0 - 1e-4, 0.5]))
    assert len(cluster_ranges(w)) == 3


def test_eigh_batch_matches_single_decompositions():
    rng = np.random.default_rng(11)
    stack = np.stack([random_psd(rng, 4) for _ in range(5)])
    w, v = eigh_batch(stack)
    for a in range(5):
        w_a, v_a = eig_hermitian(stack[a])
        assert np.array_equal(w[a], w_a[::-1])
        assert np.array_equal(v[a], v_a[:, ::-1])


def test_eigh_batch_residual_scales_with_norm(monkeypatch):
    # a large exact decomposition carries a residual in proportion to its norm
    rng = np.random.default_rng(12)
    big = random_psd(rng, 6, scale=1e8)
    w, _ = eigh_batch(big[None])
    assert w[0, -1] > 1e8
    # a decomposition that does not rebuild its matrix is rejected
    mats = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]])]).astype(complex)
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.ones(m.shape[:-1]), np.broadcast_to(np.eye(2), m.shape)))
    with pytest.raises(EigenConvergenceError) as info:
        eigh_batch(mats)
    assert info.value.residual == pytest.approx(math.sqrt(0.5))

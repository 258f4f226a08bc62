import math

import numpy as np
import pytest

from qpa.hermitian import (
    SUPPORT_RTOL,
    EigenConvergenceError,
    HermitianError,
    HermitianMatrix,
    SizeCapError,
    eig_hermitian,
    eigh_batch,
    identity,
    matrix_log,
    matrix_power,
    pinch,
    tensor,
)

from conftest import random_psd


def test_construction_symmetrizes_and_validates():
    m = HermitianMatrix([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
    assert np.allclose(m.mat, m.mat.conj().T)
    with pytest.raises(HermitianError):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(HermitianError):
        HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(HermitianError):
        HermitianMatrix(np.zeros((2, 3)))


def test_eig_diagonal_and_pauli():
    spec = eig_hermitian(HermitianMatrix(np.diag([3.0, 1.0])))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))
    spec = eig_hermitian(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])


def test_eig_reconstruction_random():
    rng = np.random.default_rng(4)
    m = HermitianMatrix(random_psd(rng, 4) - 2.0 * np.eye(4), atol=None)
    spec = m.spectrum
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - m.mat) <= 1e-10
    assert np.allclose(spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_eig_rebuild_residual_seeded(dim):
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = HermitianMatrix((g + g.conj().T) / 2, atol=None)
        spec = m.spectrum
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - m.mat) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 0)


def test_eig_deterministic():
    rng = np.random.default_rng(7)
    m = random_psd(rng, 5)
    s1 = eig_hermitian(HermitianMatrix(m, atol=None))
    s2 = eig_hermitian(HermitianMatrix(m.copy(), atol=None))
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_matrix_power_pseudo_inverse():
    m = matrix_power(HermitianMatrix(np.diag([4.0, 0.0])), -0.5)
    assert np.allclose(m.mat, np.diag([0.5, 0.0]), atol=1e-14)


def test_matrix_power_identity_map():
    rng = np.random.default_rng(11)
    m = HermitianMatrix(random_psd(rng, 3), atol=None)
    assert np.max(np.abs(matrix_power(m, 1.0).mat - m.mat)) <= 1e-12


def test_matrix_power_fractional_of_psd_matches_scalar():
    rng = np.random.default_rng(3)
    m = HermitianMatrix(random_psd(rng, 3), atol=None)
    powered = matrix_power(m, 0.3)
    expect = np.sort(m.spectrum.eigenvalues**0.3)
    assert np.allclose(np.sort(np.linalg.eigvalsh(powered.mat)), expect, atol=1e-12)


def test_matrix_power_fractional_negative_eigenvalue_rejected():
    with pytest.raises(HermitianError):
        matrix_power(HermitianMatrix(np.diag([1.0, -1.0])), 0.5)
    # integer powers act on the full spectrum
    sq = matrix_power(HermitianMatrix(np.diag([1.0, -2.0])), 2)
    assert np.allclose(sq.mat, np.diag([1.0, 4.0]))


def test_matrix_log_and_exp():
    assert np.allclose(matrix_log(identity(3)).mat, 0.0)
    rng = np.random.default_rng(5)
    m = HermitianMatrix(random_psd(rng, 3) + np.eye(3), atol=None)
    spec = matrix_log(m).spectrum
    exp_of_log = (spec.eigenvectors * np.exp(spec.eigenvalues)) @ spec.eigenvectors.conj().T
    assert np.allclose(exp_of_log, m.mat, atol=1e-10)
    with pytest.raises(HermitianError):
        matrix_log(HermitianMatrix(np.diag([1.0, -1.0])))


def test_matrix_function_commutes_with_input():
    rng = np.random.default_rng(9)
    m = HermitianMatrix(random_psd(rng, 4), atol=None)
    f = matrix_power(m, 0.7)
    assert np.max(np.abs(f.mat @ m.mat - m.mat @ f.mat)) <= 1e-9


def test_tensor_basics():
    assert np.allclose(tensor(identity(2), identity(2)).mat, np.eye(4))
    k = tensor(HermitianMatrix(np.diag([1.0, 2.0])), HermitianMatrix(np.diag([3.0, 4.0])))
    assert np.allclose(k.mat, np.diag([3.0, 4.0, 6.0, 8.0]))
    with pytest.raises(SizeCapError):
        tensor(identity(70), identity(70))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(13)
    for seed in range(10):
        a = HermitianMatrix(random_psd(rng, 3), atol=None)
        b = HermitianMatrix(random_psd(rng, 2), atol=None)
        assert abs(tensor(a, b).trace() - a.trace() * b.trace()) <= 1e-10


def test_tensor_spectrum_is_pairwise_products():
    rng = np.random.default_rng(17)
    a = HermitianMatrix(random_psd(rng, 2), atol=None)
    b = HermitianMatrix(random_psd(rng, 2), atol=None)
    got = np.sort(tensor(a, b).spectrum.eigenvalues)
    expect = np.sort(np.outer(a.spectrum.eigenvalues, b.spectrum.eigenvalues).ravel())
    assert np.allclose(got, expect, atol=1e-12)


def test_pinch_identity_and_distinct_diagonal():
    rho = HermitianMatrix([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    assert np.allclose(pinch(identity(2), rho).mat, rho.mat)
    sigma = HermitianMatrix(np.diag([1 / 3, 2 / 3]))
    x = HermitianMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(pinch(sigma, x).mat, 0.0, atol=1e-14)


def test_pinch_trace_preserving_and_idempotent():
    rng = np.random.default_rng(19)
    for seed in range(20):
        sigma = HermitianMatrix(random_psd(rng, 4), atol=None)
        rho = HermitianMatrix(random_psd(rng, 4), atol=None)
        once = pinch(sigma, rho)
        assert abs(once.trace() - rho.trace()) <= 1e-10
        twice = pinch(sigma, once)
        assert np.max(np.abs(twice.mat - once.mat)) <= 1e-10
        assert np.max(np.abs(once.mat @ sigma.mat - sigma.mat @ once.mat)) <= 1e-9


def test_pinching_inequality_seeded():
    # v * pinch(sigma, rho) - rho stays PSD across 200 seeded pairs
    count = 0
    seed = 0
    while count < 200:
        dim = 2 + seed % 5
        rng = np.random.default_rng(20000 + seed)
        sigma = HermitianMatrix(random_psd(rng, dim), atol=None)
        rho = HermitianMatrix(random_psd(rng, dim), atol=None)
        v = sigma.spectrum.distinct_count
        diff = v * pinch(sigma, rho).mat - rho.mat
        assert np.linalg.eigvalsh(diff).min() >= -1e-9
        count += 1
        seed += 1


def test_spectral_utilities():
    eye = identity(4)
    assert eye.operator_norm() == pytest.approx(1.0)
    assert eye.spectrum.distinct_count == 1

    half = HermitianMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    w = half.spectrum.eigenvalues
    assert half.spectrum.distinct_count == 2
    assert int(np.sum(w > SUPPORT_RTOL * half.operator_norm())) == 2  # support rank
    assert w[-1] == pytest.approx(0.0)

    m = identity(2)
    cube = tensor(tensor(m, m), m)
    assert HermitianMatrix(cube.mat / 8, atol=None).spectrum.distinct_count == 1


def test_cluster_count_conservative_on_near_degenerate():
    # a gap well above the clustering tolerance separates, well below merges
    spec = HermitianMatrix(np.diag([1.0, 1.0 - 1e-12, 0.5])).spectrum
    assert spec.distinct_count == 2
    spec = HermitianMatrix(np.diag([1.0, 1.0 - 1e-4, 0.5])).spectrum
    assert spec.distinct_count == 3


def test_eigh_batch_matches_single_decompositions():
    rng = np.random.default_rng(11)
    stack = np.stack([random_psd(rng, 4) for _ in range(5)])
    w, v = eigh_batch(stack)
    for a in range(5):
        spec = eig_hermitian(HermitianMatrix(stack[a], atol=None))
        assert np.array_equal(w[a], spec.eigenvalues[::-1])
        assert np.array_equal(v[a], spec.eigenvectors[:, ::-1])


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

"""Matrix reference for the scalar-to-matrix lemma checks.

Builds both difference matrices ``(I + X^s) - (I + X)^s`` and
``X^s / s - log(I + X)`` one order at a time through the spectral matrix
functions of ``qpa.hermitian`` and takes their smallest eigenvalues; the
independent oracle for the shared-eigenbasis scalars in
``qpa.verification.matrix_lemma_checks``.
"""

import numpy as np

from qpa.hermitian import eigh_batch, hermitian_entries, matrix_log, matrix_power

# (seed, dim) of the 200 matrices ``run_full_suite`` checks: 40 per dimension 2..6
SUITE_SEEDS = [(idx, 2 + idx // 40) for idx in range(200)]


def seeded_psd(seed, dim):
    """The PSD ``X = G G^dag`` that ``matrix_lemma_checks`` draws for ``seed``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_entries(g @ g.conj().T, atol=None)


def lemma_min_eigenvalues(seed, dim, s_grid):
    """Smallest eigenvalue of each difference matrix, one entry per order.

    Returns ``(power, log)``: arrays over ``s_grid`` for
    ``(I + X^s) - (I + X)^s`` and ``X^s / s - log(I + X)``.
    """
    x = seeded_psd(seed, dim)
    eye = np.eye(dim)
    one_plus_x = hermitian_entries(eye + x, atol=None)
    log_one_plus_x = matrix_log(one_plus_x)
    diffs = []
    for s in s_grid:
        s = float(s)
        x_s = matrix_power(x, s)
        diffs.append(hermitian_entries(eye + x_s - matrix_power(one_plus_x, s), atol=None))
        diffs.append(hermitian_entries(x_s / s - log_one_plus_x, atol=None))
    low = eigh_batch(np.stack(diffs))[0][:, 0]
    return low[0::2], low[1::2]

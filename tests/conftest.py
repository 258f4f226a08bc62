import numpy as np
import pytest
from hypothesis import settings

from qpa import make_cq_state, preset
from qpa.verification import default_corpus

# the same examples on every run, and no per-example deadline, which a
# loaded 2-core host misses for reasons unrelated to the code under test
settings.register_profile("qpa", deadline=None, derandomize=True)
settings.load_profile("qpa")

PRESET_NAMES = ["copy", "product", "tilted-qubit", "bb84(0.39269908169872414)", "depolarized(0.3)"]


@pytest.fixture(scope="session")
def preset_states():
    return {name: preset(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def corpus_states():
    """The verification corpus by name: presets, their in-cap 2-fold powers, 20 seeded random states."""
    return dict(default_corpus())


def random_psd(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g @ g.conj().T)


def random_kraus(rng, dim, n_ops=2):
    """Random trace-preserving Kraus set from an orthonormalized stacked matrix."""
    g = rng.normal(size=(dim * n_ops, dim)) + 1j * rng.normal(size=(dim * n_ops, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_ops)]


def pure_eve_state():
    """Every rho_a the same pure state, so rho^E has rank one in d_E = 2."""
    psi = np.array([0.6, 0.8j])
    return make_cq_state([0.3, 0.7], [np.outer(psi, psi.conj())] * 2)

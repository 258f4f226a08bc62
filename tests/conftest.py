import numpy as np
import pytest

from qpa import preset
from qpa.verification import default_corpus

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

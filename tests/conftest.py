import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qpa import make_cq_state, preset
from qpa.cqstate import load_state_json, tensor_power
from qpa.verification import default_corpus

# the same examples on every run, and no per-example deadline, which a
# loaded 2-core host misses for reasons unrelated to the code under test
settings.register_profile("qpa", deadline=None, derandomize=True)
settings.load_profile("qpa")

SRC = str(Path(__file__).resolve().parents[1] / "src")
PRESET_NAMES = ["copy", "product", "tilted-qubit", "bb84(0.39269908169872414)", "depolarized(0.3)"]


@pytest.fixture(scope="session")
def preset_states():
    return {name: preset(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def corpus_states():
    """The verification corpus by name: presets, their in-cap 2-fold powers, 20 seeded random states."""
    return dict(default_corpus())


@pytest.fixture(scope="session")
def lifted_complex_state():
    """``tests/data/complex_qubit_state.json`` lifted to its 5th power: |A| = 32, d_E = 32."""
    path = Path(__file__).resolve().parent / "data" / "complex_qubit_state.json"
    return tensor_power(load_state_json(path.read_text(encoding="utf-8")), 5)


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


def padded(state, extra):
    """The same state in a larger E: ``extra`` zero rows and columns on every eve state."""
    return make_cq_state(state.probs, [np.pad(rho, (0, extra)) for rho in state.rhos])


def half_diagonal_state():
    """Both symbols equally likely with the same eve state ``diag(1, 0)``: ``H_{1+s} = Hbar*_{1+s} = log 2``."""
    return make_cq_state([0.5, 0.5], [np.diag([1.0, 0.0])] * 2)


def run_cli(*argv, env_extra=None, timeout=330):
    """``python -m qpa.cli`` in a child process, with the checkout's ``src`` first on its ``PYTHONPATH`` and no ``QPA_THREADS``."""
    env = dict(os.environ)
    env.pop("QPA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env["PYTHONPATH"]]) if env.get("PYTHONPATH") else SRC
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qpa.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )

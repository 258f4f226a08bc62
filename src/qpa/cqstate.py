"""Classical-quantum states: a classical symbol A correlated with a quantum side system E.

A state is a distribution P over a finite alphabet together with one density
matrix per symbol; the joint operator is the block-diagonal matrix with
blocks ``P(a) * rho_a``. Includes hashing of the classical register, quantum
operations on the E side, tensor powers, presets, and seeded random states.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .hermitian import (
    DEFAULT_DIM_CAP,
    HermitianError,
    HermitianMatrix,
    SizeCapError,
    eigh_batch,
)

PROB_ATOL = 1e-10


class StateValidationError(ValueError):
    """A classical-quantum state violates one of its invariants."""

    def __init__(self, invariant: str, message: str):
        super().__init__(message)
        self.invariant = invariant


class StateFormatError(ValueError):
    """A state document is structurally malformed (not a validation failure)."""


class AlphabetMismatchError(ValueError):
    """A function or hash family does not act on this state's alphabet."""


@dataclasses.dataclass(frozen=True)
class ClassicalFunction:
    """Table-backed map from ``{0..domain_size-1}`` to ``{0..range_size-1}``."""

    domain_size: int
    range_size: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.domain_size:
            raise ValueError(f"table length {len(self.table)} != domain {self.domain_size}")
        if any(not (0 <= t < self.range_size) for t in self.table):
            raise ValueError("table entry outside the declared range")

    def __call__(self, a: int) -> int:
        return self.table[a]

    @staticmethod
    def identity(n: int) -> "ClassicalFunction":
        return ClassicalFunction(n, n, tuple(range(n)))

    @staticmethod
    def constant(n: int, value: int = 0, range_size: int = 1) -> "ClassicalFunction":
        return ClassicalFunction(n, range_size, (value,) * n)


class CQState:
    """Validated classical-quantum state.

    ``probs`` must be a finite distribution up to 1e-10 and every ``eve_state`` a
    unit-trace PSD matrix of one shared dimension. The PSD check is one
    stacked eigenproblem whose eigensystems are kept (``eve_eigh``) for the
    quantities built on the state. Instances are immutable, so ``decomposition``
    is built once, on first use, and shared by everything evaluated on the state.
    """

    __slots__ = ("_probs", "_eve_states", "_eve_eigh", "_decomposition")

    def __init__(self, probs, eve_states):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1:
            raise StateValidationError("one-dimensional probabilities", f"P has shape {p.shape}")
        states = tuple(eve_states)
        if len(states) != p.size:
            raise StateValidationError(
                "length mismatch",
                f"{p.size} probabilities but {len(states)} eve states",
            )
        if p.size == 0:
            raise StateValidationError("empty alphabet", "state needs at least one symbol")
        if not np.all(np.isfinite(p)):
            raise StateValidationError(
                "finite probabilities", f"P contains {float(p[~np.isfinite(p)][0])!r}"
            )
        if np.any(p < -PROB_ATOL):
            raise StateValidationError(
                "negative probability", f"P contains {float(p.min()):.3e} < 0"
            )
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > PROB_ATOL:
            raise StateValidationError(
                "probabilities sum to 1", f"sum(P) = {total!r} differs from 1"
            )
        if not all(isinstance(s, HermitianMatrix) for s in states):
            raise StateValidationError(
                "hermitian eve state", "eve states must be HermitianMatrix instances"
            )
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise StateValidationError(
                "eve dimension mismatch", f"eve states must share one dimension, got {sorted(dims)}"
            )
        for a, s in enumerate(states):
            if abs(s.trace() - 1.0) > PROB_ATOL:
                raise StateValidationError(
                    "unit trace", f"eve state {a} has trace {s.trace()!r}"
                )
        lam, vecs = eigh_batch(np.stack([s.mat for s in states]))
        for a in range(len(states)):
            low = float(lam[a, 0])
            if low < -PROB_ATOL:
                raise StateValidationError(
                    "positive semidefinite",
                    f"eve state {a} has eigenvalue {low:.3e}",
                )
        p = np.maximum(p, 0.0)
        p.setflags(write=False)
        lam.setflags(write=False)
        vecs.setflags(write=False)
        self._probs = p
        self._eve_states = states
        self._eve_eigh = (lam, vecs)
        self._decomposition = None

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def eve_states(self) -> tuple[HermitianMatrix, ...]:
        return self._eve_states

    @property
    def eve_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues ``(|A|, d)`` and eigenvectors ``(|A|, d, d)`` of the eve states."""
        return self._eve_eigh

    @property
    def decomposition(self):
        """The state's :class:`qpa.quantities.StateDecomposition`, built on first use."""
        if self._decomposition is None:
            from .quantities import StateDecomposition  # quantities imports this module

            self._decomposition = StateDecomposition(self)
        return self._decomposition

    @property
    def alphabet_size(self) -> int:
        return self._probs.size

    @property
    def eve_dim(self) -> int:
        return self._eve_states[0].dim

    def __repr__(self) -> str:
        return f"CQState(|A|={self.alphabet_size}, d_E={self.eve_dim})"


def make_cq_state(probs, rhos) -> CQState:
    """Build a validated state from raw probability and matrix data."""
    mats = []
    for a, r in enumerate(rhos):
        if isinstance(r, HermitianMatrix):
            mats.append(r)
        else:
            try:
                mats.append(HermitianMatrix(r))
            except HermitianError as exc:
                raise StateValidationError("hermitian eve state", f"eve state {a}: {exc}") from exc
    return CQState(probs, mats)


def joint_density(state: CQState) -> HermitianMatrix:
    """Block-diagonal joint operator with blocks ``P(a) * rho_a``."""
    d = state.eve_dim
    n = state.alphabet_size
    if n * d > DEFAULT_DIM_CAP:
        raise SizeCapError(f"joint dimension {n * d} exceeds cap {DEFAULT_DIM_CAP}")
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for a in range(n):
        out[a * d : (a + 1) * d, a * d : (a + 1) * d] = state.probs[a] * state.eve_states[a].mat
    return HermitianMatrix(out, atol=None)


def eve_marginal(state: CQState) -> HermitianMatrix:
    """Partial trace over the classical register: ``sum_a P(a) rho_a``."""
    out = np.zeros((state.eve_dim, state.eve_dim), dtype=np.complex128)
    for a in range(state.alphabet_size):
        out += state.probs[a] * state.eve_states[a].mat
    return HermitianMatrix(out, atol=None)


def apply_function(state: CQState, f: ClassicalFunction) -> CQState:
    """Push the classical register through ``f``, merging symbol blocks.

    Output symbols of probability zero carry a maximally mixed placeholder
    density; every downstream quantity weights them by zero.
    """
    if f.domain_size != state.alphabet_size:
        raise AlphabetMismatchError(
            f"function domain {f.domain_size} != alphabet {state.alphabet_size}"
        )
    d = state.eve_dim
    m = f.range_size
    sums = [np.zeros((d, d), dtype=np.complex128) for _ in range(m)]
    masses = [[] for _ in range(m)]
    for a in range(state.alphabet_size):
        i = f(a)
        sums[i] += state.probs[a] * state.eve_states[a].mat
        masses[i].append(float(state.probs[a]))
    new_p = np.array([math.fsum(ms) for ms in masses])
    new_states = []
    for i in range(m):
        if new_p[i] > 0.0:
            new_states.append(HermitianMatrix(sums[i] / new_p[i], atol=None))
        else:
            new_states.append(HermitianMatrix(np.eye(d) / d, atol=None))
    return CQState(new_p, new_states)


def apply_eve_channel(state: CQState, kraus) -> CQState:
    """Apply a trace-preserving quantum operation to every eve state."""
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    d = state.eve_dim
    total = sum(k.conj().T @ k for k in ops)
    if not np.allclose(total, np.eye(d), atol=1e-10):
        raise ValueError("Kraus operators do not sum to the identity (not trace preserving)")
    new_states = []
    for s in state.eve_states:
        out = np.zeros((d, d), dtype=np.complex128)
        for k in ops:
            out += k @ s.mat @ k.conj().T
        new_states.append(HermitianMatrix(out, atol=None))
    return CQState(state.probs, new_states)


def tensor_power(state: CQState, n: int) -> CQState:
    """The n-fold product state on alphabet ``A^n``.

    Symbol indices are little-endian in the original alphabet: joint symbol
    ``i`` has per-copy symbols ``(i // |A|**j) % |A|``, matching the digit
    convention of the hash families.
    """
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    if n == 1:
        return state
    big_a = state.alphabet_size**n
    if big_a * state.eve_dim**n > DEFAULT_DIM_CAP:
        raise SizeCapError(
            f"joint dimension {big_a * state.eve_dim ** n} exceeds cap {DEFAULT_DIM_CAP}; "
            "per-copy quantities scale additively instead"
        )
    probs = []
    states = []
    for i in range(big_a):
        digits = []
        x = i
        for _ in range(n):
            digits.append(x % state.alphabet_size)
            x //= state.alphabet_size
        p = 1.0
        mat = np.array([[1.0 + 0j]])
        for dgt in digits:
            p *= float(state.probs[dgt])
            mat = np.kron(mat, state.eve_states[dgt].mat)
        probs.append(p)
        states.append(HermitianMatrix(mat, atol=None))
    return CQState(np.array(probs), states)


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    """Kraus set of the qubit depolarizing channel ``rho -> (1-p) rho + p I/2``."""
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return [
        math.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=np.complex128),
        math.sqrt(p / 4) * sx,
        math.sqrt(p / 4) * sy,
        math.sqrt(p / 4) * sz,
    ]


def _preset_copy() -> CQState:
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    return make_cq_state([0.5, 0.5], basis)


def _preset_product() -> CQState:
    return make_cq_state([0.5, 0.5], [np.eye(2) / 2, np.eye(2) / 2])


def _preset_tilted() -> CQState:
    rho0 = np.diag([0.95, 0.05])
    plus = np.full((2, 2), 0.5)
    rho1 = 0.9 * plus + 0.1 * np.eye(2) / 2
    return make_cq_state([0.6, 0.4], [rho0, rho1])


def _preset_bb84(theta: float) -> CQState:
    """Four pure states in two bases separated by angle theta."""
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    vt = np.array([math.cos(theta), math.sin(theta)])
    vtp = np.array([math.sin(theta), -math.cos(theta)])
    rhos = [np.outer(v, v) for v in (v0, v1, vt, vtp)]
    return make_cq_state([0.25] * 4, rhos)


def _preset_depolarized(p: float) -> CQState:
    return apply_eve_channel(_preset_tilted(), depolarizing_kraus(p))


_PRESETS = {
    "copy": (_preset_copy, None),
    "product": (_preset_product, None),
    "tilted-qubit": (_preset_tilted, None),
    "bb84": (_preset_bb84, math.pi / 4),
    "depolarized": (_preset_depolarized, 0.3),
}


def preset(name: str) -> CQState:
    """Named test state; parameterized presets accept ``name(value)``."""
    base = name.strip()
    param = None
    if base.endswith(")") and "(" in base:
        base, _, rest = base.partition("(")
        try:
            param = float(rest[:-1])
        except ValueError as exc:
            raise ValueError(f"bad preset parameter in {name!r}") from exc
    if base not in _PRESETS:
        raise ValueError(f"unknown preset {base!r}; known: {sorted(_PRESETS)}")
    builder, default = _PRESETS[base]
    if default is None:
        if param is not None:
            raise ValueError(f"preset {base!r} takes no parameter")
        return builder()
    return builder(default if param is None else param)


def random_cq(seed: int, alphabet_size: int, eve_dim: int) -> CQState:
    """Seeded random state: Dirichlet-style probabilities, Wishart-style densities."""
    rng = np.random.default_rng(seed)
    raw = rng.gamma(1.0, size=alphabet_size)
    probs = raw / raw.sum()
    states = []
    for _ in range(alphabet_size):
        g = rng.normal(size=(eve_dim, eve_dim)) + 1j * rng.normal(size=(eve_dim, eve_dim))
        w = g @ g.conj().T
        states.append(HermitianMatrix(w / np.trace(w).real, atol=None))
    return CQState(probs, states)


def load_state_json(text: str) -> CQState:
    """Parse the JSON state format (or a ``{"preset": name}`` reference).

    Complex entries are ``[re, im]`` pairs:
    ``{"probs": [p0, ...], "eve_states": [[[[re, im], ...], ...], ...]}``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    if "preset" in doc:
        if not isinstance(doc["preset"], str):
            raise StateFormatError('"preset" must be a string')
        return preset(doc["preset"])
    if "probs" not in doc or "eve_states" not in doc:
        raise StateFormatError('state object needs "probs" and "eve_states" (or "preset")')
    probs = doc["probs"]
    raw_states = doc["eve_states"]
    if not isinstance(probs, list) or not isinstance(raw_states, list):
        raise StateFormatError('"probs" and "eve_states" must be arrays')
    for a, p in enumerate(probs):
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise StateFormatError(f'"probs" entry {a} must be a number, got {json.dumps(p)}')
    mats = []
    for a, rows in enumerate(raw_states):
        try:
            mat = np.array(
                [[complex(cell[0], cell[1]) for cell in row] for row in rows],
                dtype=np.complex128,
            )
        except (TypeError, IndexError, ValueError) as exc:
            raise StateFormatError(f"eve state {a}: entries must be [re, im] pairs") from exc
        mats.append(mat)
    return make_cq_state(probs, mats)


def dump_state_json(state: CQState) -> str:
    """Serialize a state to the JSON format accepted by :func:`load_state_json`."""
    doc = {
        "probs": [float(p) for p in state.probs],
        "eve_states": [
            [[[float(z.real), float(z.imag)] for z in row] for row in s.mat]
            for s in state.eve_states
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)

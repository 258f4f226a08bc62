"""Classical-quantum states: a classical symbol A correlated with a quantum side system E.

A state is a distribution P over a finite alphabet together with one density
matrix per symbol, stored as one ``(|A|, d, d)`` stack; the joint operator is
the block-diagonal matrix with blocks ``P(a) * rho_a``. Includes hashing of
the classical register, quantum operations on the E side, tensor powers,
presets, and seeded random states, each building its stack in one piece.
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
    hermitian_entries,
)

PROB_ATOL = 1e-10
ECHO_BYTES = 60  # the most UTF-8 bytes an echoed input takes in an error message, quotes aside


def clipped(value) -> str:
    """``str(value)`` for an error that echoes an input, cut to end in ``...`` where its ``!r`` echo, quotes aside,
    takes over ``ECHO_BYTES`` UTF-8 bytes (at least ``str``'s); printable ASCII is cut to that many characters."""
    text = out = str(value)
    cut = ECHO_BYTES - 3
    while len(repr(out).encode()) > ECHO_BYTES + 2:
        out, cut = text[:cut] + "...", cut - 1
    return out


class StateValidationError(ValueError):
    """A classical-quantum state violates one of its invariants."""

    def __init__(self, invariant: str, message: str):
        super().__init__(message)
        self.invariant = invariant


class StateFormatError(ValueError):
    """A state document is structurally malformed (not a validation failure)."""


class AlphabetMismatchError(ValueError):
    """A function or hash family does not act on this state's alphabet."""


def checked_states(probs: np.ndarray, rhos: np.ndarray):
    """The checks of :class:`CQState` on a stack of states: ``(p, stack, lam, vecs)``, all read-only.

    ``probs`` is ``(n, |A|)``, one state per row, and ``rhos`` the matching
    ``(n * |A|, d, d)`` stack. Each row must be a finite distribution (up to
    1e-10); the stack passes :func:`qpa.hermitian.hermitian_entries` and is
    held to unit trace and to positivity by one stacked eigenproblem, whose
    ascending eigenvalues ``lam`` and eigenvectors ``vecs`` are returned with
    the stack and the probabilities clipped at zero. Errors name the eve
    state by its index in the stack.
    """
    if not np.all(np.isfinite(probs)):
        raise StateValidationError(
            "finite probabilities", f"P contains {float(probs[~np.isfinite(probs)][0])!r}"
        )
    if np.any(probs < -PROB_ATOL):
        raise StateValidationError(
            "negative probability", f"P contains {float(probs.min()):.3e} < 0"
        )
    for row in probs.tolist():
        try:
            total = math.fsum(row)
        except OverflowError:  # finite entries whose sum exceeds the largest double
            raise StateValidationError("probabilities sum to 1", "sum(P) overflows a double") from None
        if abs(total - 1.0) > PROB_ATOL:
            raise StateValidationError("probabilities sum to 1", f"sum(P) = {total!r} differs from 1")
    try:
        stack = hermitian_entries(rhos, 3)
    except HermitianError as exc:
        raise StateValidationError("hermitian eve state", f"eve states: {exc}") from exc
    traces = np.trace(stack, axis1=1, axis2=2).real
    bad = np.flatnonzero(np.abs(traces - 1.0) > PROB_ATOL)
    if bad.size:
        raise StateValidationError("unit trace", f"eve state {bad[0]} has trace {float(traces[bad[0]])!r}")
    lam, vecs = eigh_batch(stack)
    bad = np.flatnonzero(lam[:, 0] < -PROB_ATOL)
    if bad.size:
        raise StateValidationError(
            "positive semidefinite", f"eve state {bad[0]} has eigenvalue {float(lam[bad[0], 0]):.3e}"
        )
    p = np.maximum(probs, 0.0)
    for arr in (p, lam, vecs):
        arr.setflags(write=False)
    return p, stack, lam, vecs


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
    def constant(n: int) -> "ClassicalFunction":
        return ClassicalFunction(n, 1, (0,) * n)


class CQState:
    """Validated classical-quantum state; ``make_cq_state`` is the same constructor.

    ``probs`` is a finite distribution (up to 1e-10) and ``rhos`` an
    ``(|A|, d, d)`` array or a list of ``d x d`` matrices, both checked by
    :func:`checked_states`, whose eigensystems are kept (``eve_eigh``).
    Instances are immutable, so ``decomposition`` is built once, on first
    use, and shared by everything evaluated on the state.
    """

    __slots__ = ("_probs", "_rhos", "_eve_eigh", "_eve_states", "_decomposition")

    def __init__(self, probs, rhos):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1:
            raise StateValidationError("one-dimensional probabilities", f"P has shape {p.shape}")
        try:
            stack = np.asarray(rhos, dtype=np.complex128)
        except ValueError as exc:  # numpy's message on a ragged stack runs to some 200 bytes
            raise StateValidationError("eve dimension mismatch", "eve states do not form one (|A|, d, d) stack") from exc
        if stack.ndim and len(stack) != p.size:
            raise StateValidationError("length mismatch", f"{p.size} probabilities but {len(stack)} eve states")
        if p.size == 0:
            raise StateValidationError("empty alphabet", "state needs at least one symbol")
        p, stack, lam, vecs = checked_states(p[None], stack)
        self._probs = p[0]
        self._rhos = stack
        self._eve_eigh = (lam, vecs)
        self._eve_states = None
        self._decomposition = None

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def rhos(self) -> np.ndarray:
        """The eve states as one read-only, C-contiguous ``(|A|, d, d)`` array."""
        return self._rhos

    @property
    def eve_states(self) -> tuple[HermitianMatrix, ...]:
        """The rows of ``rhos`` as :class:`HermitianMatrix` objects, built on first use, for the benchmark's tracer."""
        if self._eve_states is None:
            self._eve_states = tuple(map(HermitianMatrix, self._rhos))
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
        return self._rhos.shape[1]

    def __repr__(self) -> str:
        return f"CQState(|A|={self.alphabet_size}, d_E={self.eve_dim})"


make_cq_state = CQState


def joint_density(state: CQState) -> np.ndarray:
    """Block-diagonal joint operator with blocks ``P(a) * rho_a``, read-only, for the joint-matrix oracles."""
    d = state.eve_dim
    n = state.alphabet_size
    if n * d > DEFAULT_DIM_CAP:
        raise SizeCapError(f"joint dimension {n * d} exceeds cap {DEFAULT_DIM_CAP}")
    out = np.zeros((n, d, n, d), dtype=np.complex128)
    out[range(n), :, range(n), :] = state.probs[:, None, None] * state.rhos  # block a at (a, a)
    return hermitian_entries(out.reshape(n * d, n * d), atol=None)


def eve_marginals(probs: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """``sum_a P(a) rho_a`` per row of ``probs`` (n, |A|) and ``rhos`` (n, |A|, d, d), read-only and Hermitian."""
    out = np.zeros(rhos.shape[:1] + rhos.shape[2:], dtype=np.complex128)
    for a in range(probs.shape[1]):
        out += probs[:, a, None, None] * rhos[:, a]
    return hermitian_entries(out, 3, atol=None)


def eve_marginal(state: CQState) -> np.ndarray:
    """The partial trace over the classical register, read-only, for the joint-matrix oracles."""
    return eve_marginals(state.probs[None], state.rhos[None])[0]


def hashed_blocks(state: CQState, tables: np.ndarray, range_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The state's classical register pushed through each row of ``tables`` (n, |A|), merging symbol blocks.

    Returns the output probabilities ``(n, M)``, each the ``math.fsum`` of its
    inputs' probabilities, and the normalised blocks ``(n, M, d, d)``, each
    accumulated in symbol order. Output symbols of probability zero carry a
    maximally mixed placeholder density; every downstream quantity weights
    them by zero.
    """
    d = state.eve_dim
    rows = np.arange(len(tables))
    probs = state.probs.tolist()
    new_p = []
    for table in tables.tolist():
        inputs = [[] for _ in range(range_size)]
        for p, i in zip(probs, table):
            inputs[i].append(p)
        new_p.append(list(map(math.fsum, inputs)))
    new_p = np.array(new_p)
    sums = np.zeros((len(tables), range_size, d, d), dtype=np.complex128)
    for a in range(state.alphabet_size):  # np.add.at is ten times slower on 32 x 32 blocks
        sums[rows, tables[:, a]] += state.probs[a] * state.rhos[a]
    hit = new_p > 0.0
    sums[hit] /= new_p[hit][:, None, None]
    sums[~hit] = np.eye(d) / d
    return new_p, sums


def apply_function(state: CQState, f: ClassicalFunction) -> CQState:
    """Push the classical register through ``f``: the one-table case of :func:`hashed_blocks`."""
    if f.domain_size != state.alphabet_size:
        raise AlphabetMismatchError(
            f"function domain {f.domain_size} != alphabet {state.alphabet_size}"
        )
    new_p, sums = hashed_blocks(state, np.array([f.table]), f.range_size)
    return CQState(new_p[0], sums[0])


def apply_eve_channel(state: CQState, kraus) -> CQState:
    """Apply a trace-preserving quantum operation to every eve state."""
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    total = sum(k.conj().T @ k for k in ops)
    if not np.allclose(total, np.eye(state.eve_dim), atol=1e-10):
        raise ValueError("Kraus operators do not sum to the identity (not trace preserving)")
    out = np.zeros_like(state.rhos)
    for k in ops:
        out += k @ state.rhos @ k.conj().T
    return CQState(state.probs, out)


def tensor_power(state: CQState, n: int) -> CQState:
    """The n-fold product state on alphabet ``A^n``.

    Symbol indices are little-endian in the original alphabet: joint symbol
    ``i`` has per-copy symbols ``(i // |A|**j) % |A|``, matching the digit
    convention of the hash families. Each copy enters as the most
    significant digit: ``rho_(b + |A|^k a) = rho_b (x) rho_a``.
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
    probs, rhos = state.probs, state.rhos
    for _ in range(n - 1):
        probs = (probs[None, :] * state.probs[:, None]).reshape(-1)
        # [a, b, i, k, j, l] = rhos[b, i, j] * rho_a[k, l], i.e. kron(rhos[b], rho_a)
        rhos = rhos[None, :, :, None, :, None] * state.rhos[:, None, None, :, None, :]
        rhos = rhos.reshape(len(probs), rhos.shape[2] * rhos.shape[3], -1)
    return CQState(probs, rhos)


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
    # (default, low, high, allowed); the Kraus weights sqrt(1 - 3p/4), sqrt(p/4) need 0 <= p <= 4/3
    "bb84": (_preset_bb84, (math.pi / 4, -math.inf, math.inf, "a finite angle theta")),
    "depolarized": (_preset_depolarized, (0.3, 0.0, 4 / 3, "a finite p in [0, 4/3]")),
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
            raise ValueError(f"bad preset parameter in {clipped(name)!r}") from exc
    if base not in _PRESETS:
        raise ValueError(f"unknown preset {clipped(base)!r}; known: {sorted(_PRESETS)}")
    builder, parameter = _PRESETS[base]
    if parameter is None:
        if param is not None:
            raise ValueError(f"preset {base!r} takes no parameter")
        return builder()
    default, low, high, allowed = parameter
    value = default if param is None else param
    if not (math.isfinite(value) and low <= value <= high):
        raise ValueError(f"preset {base!r} needs {allowed}, got {value!r}")
    return builder(value)


def random_cq(seed: int, alphabet_size: int, eve_dim: int) -> CQState:
    """Seeded random state: Dirichlet-style probabilities, Wishart-style densities."""
    rng = np.random.default_rng(seed)
    raw = rng.gamma(1.0, size=alphabet_size)
    probs = raw / raw.sum()
    parts = rng.normal(size=(alphabet_size, 2, eve_dim, eve_dim))  # per symbol: real, imaginary
    g = parts[:, 0] + 1j * parts[:, 1]
    w = g @ np.conj(np.swapaxes(g, 1, 2))
    return CQState(probs, w / np.trace(w, axis1=1, axis2=2).real[:, None, None])


def _json_number(x, where: str) -> float:
    """A JSON number as a double; a bool, a non-number or an integer beyond double range is an error."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise StateFormatError(f"{where} must be a number, got an integer beyond double range") from None
    kind = {list: "an array", dict: "an object", str: "a string", bool: "true/false", type(None): "null"}[type(x)]
    raise StateFormatError(f"{where} must be a number, got {kind}")  # the type, since the value may be huge


def _json_matrix(rows, where: str) -> list[list[complex]]:
    """Rows of ``[re, im]`` cells, each part a JSON number."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise StateFormatError(f"{where}: must be an array of rows")
    if not all(isinstance(cell, list) and len(cell) == 2 for row in rows for cell in row):
        raise StateFormatError(f"{where}: entries must be [re, im] pairs")
    part = f"{where} entry"
    return [[complex(_json_number(re, part), _json_number(im, part)) for re, im in row] for row in rows]


def load_state_json(text: str) -> CQState:
    """Parse the JSON state format (or a ``{"preset": name}`` reference).

    Complex entries are ``[re, im]`` pairs:
    ``{"probs": [p0, ...], "eve_states": [[[[re, im], ...], ...], ...]}``.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise StateFormatError("document nested too deeply to parse") from None
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
    probs = [_json_number(p, f'"probs" entry {a}') for a, p in enumerate(probs)]
    mats = [_json_matrix(rows, f"eve state {a}") for a, rows in enumerate(raw_states)]
    return make_cq_state(probs, mats)


def dump_state_json(state: CQState) -> str:
    """Serialize a state to the JSON format accepted by :func:`load_state_json`."""
    doc = {
        "probs": [float(p) for p in state.probs],
        "eve_states": [
            [[[float(z.real), float(z.imag)] for z in row] for row in rho] for rho in state.rhos
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)

import json
import math

import numpy as np
import pytest

from qpa import hermitian
from qpa.cqstate import (
    AlphabetMismatchError,
    ClassicalFunction,
    CQState,
    StateFormatError,
    StateValidationError,
    apply_eve_channel,
    apply_function,
    depolarizing_kraus,
    dump_state_json,
    eve_marginal,
    joint_density,
    load_state_json,
    make_cq_state,
    preset,
    random_cq,
    tensor_power,
)
from qpa.hermitian import SizeCapError
from qpa.quantities import StateDecomposition, cond_entropy, renyi_cond

from conftest import random_kraus

LOG2 = math.log(2.0)


# frozen by explicit arithmetic: 0.6*diag(.95,.05) + 0.4*(0.9|+><+| + 0.05 I)
TILTED_EVE = np.array([[0.77, 0.18], [0.18, 0.23]])


def test_presets_valid():
    for name in ("copy", "product", "tilted-qubit", "bb84(0.5)", "depolarized(0.3)"):
        st = preset(name)
        assert abs(float(st.probs.sum()) - 1.0) <= 1e-12
    assert preset("copy").rhos[0][0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        preset("nonsense")
    with pytest.raises(ValueError):
        preset("copy(0.3)")


def test_make_cq_state_diagnostics():
    eye2 = np.eye(2) / 2
    with pytest.raises(StateValidationError, match="sum"):
        make_cq_state([0.7, 0.4], [eye2, eye2])
    with pytest.raises(StateValidationError) as err:
        make_cq_state([1.5, -0.5], [eye2, eye2])
    assert err.value.invariant == "negative probability"
    with pytest.raises(StateValidationError) as err:
        make_cq_state([0.5, 0.5], [eye2, np.eye(2)])
    assert err.value.invariant == "unit trace"
    with pytest.raises(StateValidationError) as err:
        make_cq_state([0.5, 0.5], [eye2, np.diag([1.5, -0.5])])
    assert err.value.invariant == "positive semidefinite"
    with pytest.raises(StateValidationError) as err:
        make_cq_state([0.5, 0.5], [eye2, np.eye(3) / 3])
    assert err.value.invariant == "eve dimension mismatch"
    with pytest.raises(StateValidationError) as err:
        make_cq_state([0.5, 0.5], [eye2, [[0.5, 1.0], [0.0, 0.5]]])
    assert err.value.invariant == "hermitian eve state"
    with pytest.raises(StateValidationError) as err:
        make_cq_state([1.0], [])
    assert err.value.invariant == "length mismatch"
    for bad in (math.nan, math.inf):
        with pytest.raises(StateValidationError) as err:
            make_cq_state([bad, 0.5], [eye2, eye2])
        assert err.value.invariant == "finite probabilities"


def test_joint_density_presets():
    assert np.allclose(joint_density(preset("copy")), np.diag([0.5, 0, 0, 0.5]))
    assert np.allclose(joint_density(preset("product")), np.eye(4) / 4)
    tilted = joint_density(preset("tilted-qubit"))
    assert np.trace(tilted).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(tilted) == 4


def test_eve_marginal():
    assert np.allclose(eve_marginal(preset("copy")), np.eye(2) / 2)
    assert np.allclose(eve_marginal(preset("product")), np.eye(2) / 2)
    assert np.allclose(eve_marginal(preset("tilted-qubit")), TILTED_EVE, atol=1e-15)


def test_eve_marginal_matches_partial_trace_of_joint(corpus_states):
    for name, st in corpus_states.items():
        joint = joint_density(st)
        d = st.eve_dim
        traced = sum(
            joint[a * d : (a + 1) * d, a * d : (a + 1) * d] for a in range(st.alphabet_size)
        )
        assert np.max(np.abs(traced - eve_marginal(st))) <= 1e-12, name


def test_apply_function_identity_and_constant():
    st = preset("tilted-qubit")
    same = apply_function(st, ClassicalFunction.identity(2))
    assert np.allclose(same.probs, st.probs)
    for a in range(2):
        assert np.allclose(same.rhos[a], st.rhos[a])

    collapsed = apply_function(preset("copy"), ClassicalFunction.constant(2))
    assert collapsed.alphabet_size == 1
    assert np.allclose(collapsed.rhos[0], np.eye(2) / 2)
    # with M = 1 the key is trivially uniform and carries nothing
    assert StateDecomposition(collapsed).mutual_info_variants()["I_prime"] == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(AlphabetMismatchError):
        apply_function(st, ClassicalFunction.identity(3))


def test_apply_function_xor_data_processing():
    st = tensor_power(preset("copy"), 2)
    xor = ClassicalFunction(4, 2, (0, 1, 1, 0))
    hashed = apply_function(st, xor)
    assert np.allclose(hashed.probs, [0.5, 0.5])
    assert cond_entropy(hashed) <= cond_entropy(st) + 1e-9


def test_apply_function_preserves_eve_marginal(corpus_states):
    rng = np.random.default_rng(99)
    for name, st in corpus_states.items():
        table = tuple(int(x) for x in rng.integers(0, 2, size=st.alphabet_size))
        hashed = apply_function(st, ClassicalFunction(st.alphabet_size, 2, table))
        assert np.max(np.abs(eve_marginal(hashed) - eve_marginal(st))) <= 1e-14, name


def test_data_processing_seeded():
    # H(f(A)|E) <= H(A|E) across 100 seeded state/function pairs
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        st = random_cq(3000 + seed, 4, 2)
        m = int(rng.integers(1, 4))
        table = tuple(int(x) for x in rng.integers(0, m, size=4))
        hashed = apply_function(st, ClassicalFunction(4, m, table))
        assert cond_entropy(hashed) <= cond_entropy(st) + 1e-9


def test_apply_eve_channel_identity_and_depolarizing():
    st = preset("tilted-qubit")
    same = apply_eve_channel(st, [np.eye(2)])
    for a in range(2):
        assert np.allclose(same.rhos[a], st.rhos[a])

    flat = apply_eve_channel(st, depolarizing_kraus(1.0))
    for a in range(2):
        assert np.allclose(flat.rhos[a], np.eye(2) / 2, atol=1e-12)
    assert cond_entropy(flat) == pytest.approx(StateDecomposition(st).classical_entropy(), abs=1e-10)

    with pytest.raises(ValueError):
        apply_eve_channel(st, [np.eye(2) * 0.5])


def test_channel_monotonicity():
    st = preset("tilted-qubit")
    half = apply_eve_channel(st, depolarizing_kraus(0.5))
    for s in (0.25, 0.5, 1.0):
        assert renyi_cond(half, s) >= renyi_cond(st, s) - 1e-9
    for seed in range(25):
        rng = np.random.default_rng(4000 + seed)
        base = random_cq(4000 + seed, 3, 3)
        out = apply_eve_channel(base, random_kraus(rng, 3, n_ops=3))
        for s in (0.25, 0.5, 1.0):
            assert renyi_cond(out, s) >= renyi_cond(base, s) - 1e-9
        assert cond_entropy(out) >= cond_entropy(base) - 1e-9


def test_tensor_power():
    st = preset("product")
    assert tensor_power(st, 1) is st
    sq = tensor_power(st, 2)
    assert np.allclose(joint_density(sq), np.eye(16) / 16)
    tilted = preset("tilted-qubit")
    doubled = tensor_power(tilted, 2)
    for s in (0.25, 0.5, 1.0):
        assert renyi_cond(doubled, s) == pytest.approx(2 * renyi_cond(tilted, s), abs=1e-8)
    with pytest.raises(SizeCapError):
        tensor_power(preset("bb84(0.5)"), 5)


def test_random_cq_reproducible():
    a = random_cq(7, 2, 2)
    b = random_cq(7, 2, 2)
    assert np.array_equal(a.probs, b.probs)
    for x, y in zip(a.rhos, b.rhos):
        assert np.array_equal(x, y)
    c = random_cq(8, 2, 2)
    assert not np.allclose(a.probs, c.probs)


def test_json_round_trip():
    st = preset("tilted-qubit")
    loaded = load_state_json(dump_state_json(st))
    assert np.allclose(loaded.probs, st.probs)
    for x, y in zip(loaded.rhos, st.rhos):
        assert np.allclose(x, y)
    viapreset = load_state_json('{"preset": "product"}')
    assert np.allclose(viapreset.probs, [0.5, 0.5])


def test_json_error_taxonomy():
    with pytest.raises(json.JSONDecodeError):
        load_state_json("{not json")
    with pytest.raises(StateFormatError):
        load_state_json('{"probs": [1.0]}')
    with pytest.raises(StateFormatError):
        load_state_json('{"probs": [1.0], "eve_states": [[[1.0, 0.0]]]}')  # cells not pairs
    with pytest.raises(StateValidationError):
        load_state_json('{"probs": [0.7, 0.4], "eve_states": [[[[0.5,0],[0,0]],[[0,0],[0.5,0]]],[[[0.5,0],[0,0]],[[0,0],[0.5,0]]]]}')


def test_second_symbol_not_psd_is_rejected():
    bad = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(StateValidationError) as info:
        make_cq_state([0.5, 0.5], [np.eye(2) / 2, bad])
    assert info.value.invariant == "positive semidefinite"
    assert "eve state 1" in str(info.value)


def test_validation_eigensystems_are_kept():
    st = random_cq(5, 3, 3)
    lam, vecs = st.eve_eigh
    assert lam.shape == (3, 3) and vecs.shape == (3, 3, 3)
    for a, rho in enumerate(st.rhos):
        w, v = np.linalg.eigh(rho)
        assert np.array_equal(lam[a], w)
        assert np.array_equal(vecs[a], v)


@pytest.mark.parametrize(
    "probs",
    [[[0.5], [0.5]], [True, False], ["a", 0.5], [None, 0.5], [10**400, 0.5]],
    ids=["nested-list", "bool", "string", "null", "huge-int"],
)
def test_state_document_probs_must_be_numbers(probs):
    eye = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(StateFormatError, match='"probs" entry 0 must be a number'):
        load_state_json(json.dumps({"probs": probs, "eve_states": [eye, eye]}))


@pytest.mark.parametrize(
    "cell",
    [[True, False], [0.5, 0.0, 0.0], [10**400, 0.0], [0.5, "0"], [0.5, None], [0.5], 0.5],
    ids=["bool", "three-entries", "huge-int", "string", "null", "one-entry", "bare-number"],
)
def test_state_document_cells_must_be_number_pairs(cell):
    eye = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    odd = [[[0.5, 0.0], cell], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(StateFormatError, match="^eve state 1"):
        load_state_json(json.dumps({"probs": [0.5, 0.5], "eve_states": [eye, odd]}))


def test_probs_must_be_one_dimensional():
    with pytest.raises(StateValidationError) as info:
        make_cq_state([[0.5], [0.5]], [np.eye(2) / 2, np.eye(2) / 2])
    assert info.value.invariant == "one-dimensional probabilities"
    with pytest.raises(StateValidationError):
        make_cq_state(1.0, [np.eye(2) / 2])


# -- the stacked state layer against per-symbol reference loops ---------------


def _hermitian_part(m):
    return (m + m.conj().T) / 2


def test_make_cq_state_is_the_constructor():
    assert make_cq_state is CQState
    st = make_cq_state([0.6, 0.4], np.stack([np.diag([0.9, 0.1]), np.eye(2) / 2]))
    assert st.rhos.shape == (2, 2, 2) and not st.rhos.flags.writeable
    assert np.array_equal(st.rhos[0], np.diag([0.9, 0.1]))


def test_apply_function_matches_per_symbol_loop(corpus_states):
    rng = np.random.default_rng(5)
    for name, st in corpus_states.items():
        m = int(rng.integers(1, 4)) + 1  # range sizes 2..4 leave some outputs empty
        table = tuple(int(x) for x in rng.integers(0, m, size=st.alphabet_size))
        hashed = apply_function(st, ClassicalFunction(st.alphabet_size, m, table))
        d = st.eve_dim
        sums = [np.zeros((d, d), dtype=complex) for _ in range(m)]
        masses = [[] for _ in range(m)]
        for a, i in enumerate(table):
            sums[i] += st.probs[a] * st.rhos[a]
            masses[i].append(float(st.probs[a]))
        probs = np.array([math.fsum(ms) for ms in masses])
        assert np.array_equal(hashed.probs, probs), name
        for i in range(m):
            expect = sums[i] / probs[i] if probs[i] > 0.0 else np.eye(d) / d
            assert np.array_equal(hashed.rhos[i], _hermitian_part(expect)), (name, i)


def test_tensor_power_matches_kron_chain(corpus_states):
    for name, st in corpus_states.items():
        n = 3 if st.alphabet_size == 2 and st.eve_dim == 2 else 2
        if (st.alphabet_size * st.eve_dim) ** n > 4096:
            continue
        power = tensor_power(st, n)
        size = st.alphabet_size
        for i in range(size**n):
            digits = [(i // size**j) % size for j in range(n)]  # little-endian
            p, mat = st.probs[digits[0]], st.rhos[digits[0]]
            for dgt in digits[1:]:
                p, mat = p * st.probs[dgt], np.kron(mat, st.rhos[dgt])
            assert power.probs[i] == p, (name, i)
            assert np.array_equal(power.rhos[i], _hermitian_part(mat)), (name, i)


def test_apply_eve_channel_matches_per_symbol_loop(corpus_states):
    rng = np.random.default_rng(11)
    for name, st in corpus_states.items():
        kraus = random_kraus(rng, st.eve_dim, n_ops=3)
        out = apply_eve_channel(st, kraus)
        assert np.array_equal(out.probs, st.probs), name
        for a in range(st.alphabet_size):
            expect = np.zeros_like(st.rhos[a])
            for k in kraus:
                expect += k @ st.rhos[a] @ k.conj().T
            assert np.array_equal(out.rhos[a], _hermitian_part(expect)), (name, a)


@pytest.mark.parametrize("seed, size, dim", [(0, 4, 2), (1, 4, 3), (7, 2, 2), (9, 3, 4)])
def test_random_cq_matches_per_symbol_draws(seed, size, dim):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(1.0, size=size)
    st = random_cq(seed, size, dim)
    assert np.array_equal(st.probs, raw / raw.sum())
    for a in range(size):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w = g @ g.conj().T
        assert np.array_equal(st.rhos[a], _hermitian_part(w / np.trace(w).real)), a


def test_stack_memory_order_does_not_change_the_decomposition(corpus_states):
    for name, st in corpus_states.items():
        base = make_cq_state(st.probs, np.ascontiguousarray(st.rhos))
        ref = base.decomposition
        for stack in (np.asfortranarray(st.rhos), np.conj(np.swapaxes(st.rhos, 1, 2))):
            other = make_cq_state(st.probs, stack)
            assert other.rhos.flags.c_contiguous, name
            assert np.array_equal(other.rhos, base.rhos), name
            dec = other.decomposition
            for field in ("mu", "lam", "overlap", "xi", "xi_weight"):
                assert np.array_equal(getattr(dec, field), getattr(ref, field)), (name, field)
            assert dec.mutual_info_variants() == ref.mutual_info_variants(), name
            assert dec.renyi_cond(0.4) == ref.renyi_cond(0.4), name


def test_hashing_a_state_builds_no_hermitian_matrix(monkeypatch, corpus_states):
    built = []
    original = hermitian.HermitianMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(hermitian.HermitianMatrix, "__init__", counted)
    for st in corpus_states.values():
        table = tuple(a % 2 for a in range(st.alphabet_size))
        apply_function(st, ClassicalFunction(st.alphabet_size, 2, table))
    assert built == []

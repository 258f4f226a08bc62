"""The stacked family pass of ``grouped_member_mutual_info`` against the per-member reference, exactly."""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pure_eve_state
from member_oracle import member_mutual_info_reference
from qpa import cqstate, quantities
from qpa.cli import main
from qpa.cqstate import load_state_json, make_cq_state, preset, random_cq, tensor_power
from qpa.hashing import collision_stats, make_explicit_family, make_family, parse_family
from qpa.hermitian import EigenConvergenceError, eigh_batch
import qpa.verification as vmod
from qpa.verification import default_corpus, families_for, grouped_member_mutual_info

ROOT = Path(__file__).resolve().parent.parent


def test_family_pass_equals_the_reference_on_the_suite():
    pairs = [(name, state, f) for name, state in default_corpus() for f in families_for(state.alphabet_size)]
    assert len(pairs) == 108
    for name, state, family in pairs:
        got = grouped_member_mutual_info([(state, family)])[0]
        assert got == member_mutual_info_reference(state, family), (name, family)


@pytest.mark.parametrize("seed", [0, 1])  # 1 is perfbench/run.py's default seed
def test_family_pass_equals_the_reference_on_the_lifted_benchmark_state(monkeypatch, seed):
    # |A| = 32 and d_E = 32: eigh stacks of 32 x 32 blocks, and rows of 32
    # entries, which numpy sums pairwise with unrolled partial sums
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    state = tensor_power(load_state_json(json.dumps(workloads.random_state_doc(seed, 2, 2))), 5)
    family = parse_family(workloads.LIFTED_FAMILY)
    assert grouped_member_mutual_info([(state, family)])[0] == member_mutual_info_reference(state, family)


def test_explicit_families_equal_the_reference():
    state = random_cq(43, 4, 3)
    repeated = make_explicit_family([(0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 1, 0)], 2)
    not_universal = make_explicit_family([(0, 0, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1)], 2)
    assert not collision_stats(not_universal).is_universal2
    # output 1 is never hit: probability 0 and the maximally mixed placeholder
    empty_output = make_explicit_family([(0, 2, 0, 2), (2, 2, 2, 2), (0, 1, 2, 0)], 3)
    for family in (repeated, not_universal, empty_output):
        got = grouped_member_mutual_info([(state, family)])[0]
        assert got == member_mutual_info_reference(state, family), family
        assert all(math.isfinite(v) for row in got for v in row.values())
    rows = grouped_member_mutual_info([(state, repeated)])[0]
    assert rows[0] == rows[2] == rows[3] and rows[0] is not rows[2]  # equal, but not one shared dict


def test_pure_eve_state_equals_the_reference():
    # rho^E has rank one, so every sandwich acts on a one-dimensional support
    for state in (pure_eve_state(), tensor_power(pure_eve_state(), 2)):
        for family in families_for(state.alphabet_size):
            assert grouped_member_mutual_info([(state, family)])[0] == member_mutual_info_reference(state, family)


def test_weight_outside_the_eve_support_gives_inf():
    # symbol 1 sits on an eigenvector of rho^E whose eigenvalue 1e-14 is below
    # the support cut, so the identity member leaks outside supp(rho^E)
    state = make_cq_state([1 - 1e-14, 1e-14], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    family = make_family("toeplitz", 2, 1, 1)  # the zero map and the identity
    got = grouped_member_mutual_info([(state, family)])[0]
    assert got == member_mutual_info_reference(state, family)
    assert all(math.isfinite(v) for v in got[0].values())
    assert got[1] == dict.fromkeys(("I", "I_prime", "I_bar", "I_bar_prime"), math.inf)


@given(
    seed=st.integers(0, 2**16),
    eve_dim=st.sampled_from([2, 3]),
    range_size=st.integers(1, 4),
    data=st.data(),
)
def test_random_explicit_families_equal_the_reference(seed, eve_dim, range_size, data):
    table = st.tuples(*[st.integers(0, range_size - 1)] * 4)
    tables = data.draw(st.lists(table, min_size=1, max_size=6))
    state = random_cq(seed, 4, eve_dim)
    family = make_explicit_family(tables, range_size)
    assert grouped_member_mutual_info([(state, family)])[0] == member_mutual_info_reference(state, family)


def _residual_breaking_eigh(monkeypatch, min_stack):
    """Make ``np.linalg.eigh`` return eigenvectors that do not rebuild stacks of ``min_stack`` or more matrices."""
    original = np.linalg.eigh

    def corrupted(mats, *args, **kwargs):
        w, v = original(mats, *args, **kwargs)
        return (w, 2.0 * v) if mats.ndim > 2 and len(mats) >= min_stack else (w, v)

    monkeypatch.setattr(np.linalg, "eigh", corrupted)


def test_family_pass_keeps_the_eigen_residual_check(monkeypatch, capsys):
    state = tensor_power(preset("tilted-qubit"), 2)  # every stack of its own has 4 matrices or fewer
    family = make_family("toeplitz", 2, 2, 2)  # 8 members: 32 hashed blocks in one stack
    _residual_breaking_eigh(monkeypatch, 5)
    with pytest.raises(EigenConvergenceError):
        grouped_member_mutual_info([(state, family)])[0]
    code = main(["verify", "--preset", "tilted-qubit", "--family", "toeplitz:q=2,k=2,m=2"])
    assert code == 7
    assert capsys.readouterr().err.startswith("error: internal numeric failure: eigendecomposition residual")


def test_family_pass_runs_in_bounded_chunks(monkeypatch):
    # 32 members of 4 blocks of 16 x 16: two chunks of 16 members, whose block
    # stacks hold exactly _STACK_ENTRIES entries. (Unchunked, toeplitz:q=2,k=5,m=5
    # on the lifted benchmark state would stack 512 x 32 blocks of 32 x 32: 268 MB.)
    state = tensor_power(preset("tilted-qubit"), 4)
    family = parse_family("toeplitz:q=2,k=4,m=2")
    assert (family.member_count, family.range_size, state.eve_dim) == (32, 4, 16)
    reference = member_mutual_info_reference(state, family)
    stacks = []

    def recorded(mats):
        stacks.append(mats.shape)
        return eigh_batch(mats)

    for module in (cqstate, quantities):
        monkeypatch.setattr(module, "eigh_batch", recorded)
    assert grouped_member_mutual_info([(state, family)])[0] == reference
    # per chunk: the blocks' validation, the 16 marginals and the sandwiches;
    # the state's own decomposition is never built
    assert stacks == [(64, 16, 16), (16, 16, 16), (16, 4, 16, 16)] * 2
    assert state._decomposition is None
    assert max(math.prod(shape) for shape in stacks) == vmod._STACK_ENTRIES


def test_member_results_beyond_the_bound_equal_the_reference():
    # more distinct tables than one chunk holds (1,024 at M = 4, d = 2), with
    # repeats: every table is answered, and a second pass recomputes them all
    rng = np.random.default_rng(3)
    tables = {tuple(row) for row in rng.integers(0, 4, size=(1224, 8)).tolist()}
    tables = sorted(tables)[:1124]
    assert len(tables) == 1124
    family = make_explicit_family(tables + tables[:50], 4)
    state = random_cq(9, 8, 2)
    reference = member_mutual_info_reference(state, family)
    assert grouped_member_mutual_info([(state, family)])[0] == reference
    assert grouped_member_mutual_info([(state, family)])[0] == reference

"""The stacked passes of ``run_full_suite`` against their per-item cases and references, exactly.

The family pass over many ``(state, family)`` pairs, the lemma checks over
the seeds of one dimension and the pinching checks over the states of one
shape each compute every row as if alone, so every value must equal the
one-item computation bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pure_eve_state
from lemma_oracle import SUITE_SEEDS, lemma_min_eigenvalues
from member_oracle import member_mutual_info_reference
from qpa import cqstate, quantities
from qpa.cli import main
from qpa.cqstate import CQState, random_cq, tensor_power
from qpa.hashing import make_explicit_family, make_family
from qpa.hermitian import EigenConvergenceError, eigh_batch
import qpa.verification as vmod
from qpa.verification import (
    DEFAULT_S_GRID,
    PinchReport,
    SLACK_TOL,
    default_corpus,
    families_for,
    grouped_member_mutual_info,
    grouped_pinching_checks,
    matrix_lemma_checks,
    pinching_bound_check,
    stacked_matrix_lemma_checks,
)
from test_family_pass import _residual_breaking_eigh


def _distinct_tables(seed, count, domain, range_size):
    rng = np.random.default_rng(seed)
    tables = {}
    while len(tables) < count:
        tables.setdefault(tuple(rng.integers(0, range_size, size=domain).tolist()), None)
    return list(tables)


def _suite_pairs():
    """The 108 ``(state, family)`` pairs of ``run_full_suite``, on a corpus of fresh states."""
    return [(state, f) for _, state in default_corpus() for f in families_for(state.alphabet_size)]


def test_grouped_pass_equals_the_reference_on_mixed_pairs():
    four, eight, other = random_cq(5, 4, 2), random_cq(6, 8, 2), random_cq(7, 4, 3)
    repeated = make_explicit_family([(0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 0)], 2)
    # more tables than one chunk holds (1,024 at M = 4, d = 2); the last
    # family repeats some of them
    many = _distinct_tables(0, 1100, 8, 4)
    pairs = [
        (four, make_family("toeplitz", 2, 2, 1)),
        (four, make_family("modified_toeplitz", 2, 2, 1)),  # its tables are toeplitz tables too
        (eight, make_family("toeplitz", 2, 3, 1)),  # the same (M, d) = (2, 2), a larger |A|
        (other, make_family("toeplitz", 2, 2, 2)),
        (four, repeated),  # the first state again, after another state of its group
        (eight, make_explicit_family(many, 4)),
        (eight, make_explicit_family(many[:50] + many[-3:], 4)),
    ]
    hashed = []
    original = vmod.hashed_blocks

    def counted(state, tables, range_size):
        hashed.extend((id(state), range_size, tuple(t)) for t in tables.tolist())
        return original(state, tables, range_size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vmod, "hashed_blocks", counted)
        got = grouped_member_mutual_info(pairs)
    assert len(hashed) == len(set(hashed))  # each (state, M, table) once
    for (state, family), rows in zip(pairs, got):
        assert rows == member_mutual_info_reference(state, family), family.describe()
    assert got[0][0] is not got[1][0]  # equal rows, but each member has its own dict


def test_grouped_pass_equals_the_one_pair_passes_on_the_suite():
    # two corpora, so that no state is shared between the grouped and the one-pair passes
    grouped = grouped_member_mutual_info(_suite_pairs())
    assert grouped == [vmod.member_mutual_info(state, f) for state, f in _suite_pairs()]


def test_grouped_pass_stacks_stay_bounded_across_alphabets(monkeypatch):
    # one (M, d) = (2, 2) group of |A| = 4 and |A| = 16: at 64 entries the step is
    # 64 // max(M d^2, 16) = 4 tables, so a chunk that mixes both states hashes at
    # most 4 x 16 table entries; a step from the smaller alphabet would allow 8
    monkeypatch.setattr(vmod, "_STACK_ENTRIES", 64)
    small, large = random_cq(11, 4, 2), random_cq(12, 16, 2)
    pairs = [
        (small, make_explicit_family([(0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)], 2)),
        (large, make_family("toeplitz", 2, 4, 1)),
    ]
    reference = [member_mutual_info_reference(state, f) for state, f in pairs]
    shapes, runs = [], []
    original_tables, original_blocks = vmod.member_tables, vmod.hashed_blocks

    def recorded_tables(family, start, stop):
        out = original_tables(family, start, stop)
        shapes.append(out.shape)
        return out

    def recorded_blocks(state, tables, range_size):
        shapes.append(tables.shape)
        runs.append(state.alphabet_size)
        probs, blocks = original_blocks(state, tables, range_size)
        shapes.append(blocks.shape)
        return probs, blocks

    def recorded_eigh(mats):
        shapes.append(mats.shape)
        runs.append("eigh")
        return eigh_batch(mats)

    monkeypatch.setattr(vmod, "member_tables", recorded_tables)
    monkeypatch.setattr(vmod, "hashed_blocks", recorded_blocks)
    for module in (cqstate, quantities):
        monkeypatch.setattr(module, "eigh_batch", recorded_eigh)
    assert grouped_member_mutual_info(pairs) == reference
    first, second = [i for i, run in enumerate(runs) if run != "eigh"][:2]
    assert (runs[first], runs[second]) == (4, 16) and "eigh" not in runs[first:second]  # one chunk, both states
    assert max(math.prod(shape) for shape in shapes) == 64


def test_stacked_lemma_minima_equal_the_per_seed_checks_and_the_oracle():
    for dim in range(2, 7):
        seeds = [seed for seed, d in SUITE_SEEDS if d == dim]
        assert len(seeds) == 40
        for seed, rep in zip(seeds, stacked_matrix_lemma_checks(seeds, dim)):
            assert rep == matrix_lemma_checks(seed, dim), seed
            power, log = lemma_min_eigenvalues(seed, dim, DEFAULT_S_GRID)
            assert rep.min_eig_power == pytest.approx(power.min(), abs=1e-12)
            assert rep.min_eig_log == pytest.approx(log.min(), abs=1e-12)


def test_stacked_lemma_checks_validate_the_grid():
    with pytest.raises(ValueError, match=r"s in \(0, 1\]"):
        stacked_matrix_lemma_checks(range(3), 2, (0.0, 0.5))


def _pinch_reference(state):
    """The pinching check on a pinched ``CQState`` of its own, built one state at a time."""
    dec = state.decomposition
    v = dec.eve_vectors
    projectors = [v[:, a:b] @ v[:, a:b].conj().T for a, b in dec.eve_clusters]
    info = CQState(state.probs, sum(p @ state.rhos @ p for p in projectors)).decomposition.mutual_info_variants()
    i_orig, log_v = dec.mutual_info_variants()["I"], math.log(dec.v_count)
    ok = i_orig <= info["I"] + log_v + SLACK_TOL and abs(info["I"] - info["I_bar"]) <= SLACK_TOL
    return PinchReport(i_orig, info["I"], info["I_bar"], log_v, bool(ok))


def test_stacked_pinch_reports_equal_the_per_state_ones():
    states = [state for _, state in default_corpus()]
    states += [pure_eve_state(), tensor_power(pure_eve_state(), 2)]  # rank-one rho^E
    got = grouped_pinching_checks(states)
    assert got == [_pinch_reference(state) for state in states]
    assert got == [pinching_bound_check(state) for state in states]
    assert all(rep.passed for rep in got)


SPEC = st.tuples(st.integers(0, 2**16), st.sampled_from([2, 3, 4]), st.sampled_from([2, 3]))  # seed, |A|, d


@given(specs=st.lists(SPEC, min_size=1, max_size=6))
def test_stacked_pinch_reports_equal_the_reference_on_random_states(specs):
    states = [random_cq(seed, n_sym, d) for seed, n_sym, d in specs]
    assert grouped_pinching_checks(states) == [_pinch_reference(state) for state in states]


@pytest.mark.parametrize(
    "stacked",
    [
        lambda: grouped_member_mutual_info(_suite_pairs()),
        lambda: stacked_matrix_lemma_checks(range(40), 2),
        lambda: grouped_pinching_checks([state for _, state in default_corpus()]),
    ],
    ids=["family-pass", "lemmas", "pinching"],
)
def test_stacked_passes_keep_the_eigen_residual_check(monkeypatch, stacked):
    # corpus states validate and decompose in stacks of 16 matrices or fewer,
    # and each of these calls stacks more in at least one of its eigenproblems
    _residual_breaking_eigh(monkeypatch, 17)
    with pytest.raises(EigenConvergenceError):
        stacked()


def test_full_suite_reports_a_corrupted_stacked_eigh_as_exit_7(monkeypatch, capsys):
    _residual_breaking_eigh(monkeypatch, 17)
    assert main(["verify", "--suite", "full"]) == 7
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal numeric failure: eigendecomposition residual")
    assert "Traceback" not in err and len(err.splitlines()) == 1

"""The mutual informations of states and hashed members against their 50-digit references.

``member_oracle.member_references`` evaluates ``I``, ``I'``, ``Ibar`` and
``Ibar'`` with mpmath eigensystems. Each value that the family pass or a
state's decomposition computes must lie within ``BOUND * max(1, |ref|)`` of
its reference ``ref``, and so must each golden field computed from them:
the suite corpus and the tilted lifted family live, the complex lifted
family (d_E = 32) from the stored reference of ``make_member_reference.py``.
The exponential check's right-hand sides come from ``Hbar*``, pinned to
``renyi_oracle`` under the same bound.
"""

import hashlib
import json
from pathlib import Path

import mpmath
import pytest

from make_member_reference import FAMILY, POWER, REFERENCE, STATE_FILE, tables_sha256
from conftest import half_diagonal_state, padded, pure_eve_state
from member_oracle import member_references
from qpa import preset, random_cq
from qpa.cqstate import load_state_json, tensor_power
from qpa.hashing import parse_family
from qpa.verification import (
    DEFAULT_S_GRID,
    default_corpus,
    families_for,
    grouped_member_mutual_info,
)
from renyi_oracle import DPS, renyi_references

DATA = Path(__file__).resolve().parent / "data"
BOUND = 1e-13
KEYS = ("I", "I_prime", "I_bar", "I_bar_prime")


def _close(got, ref):
    ref = float(ref)
    return abs(got - ref) <= BOUND * max(1.0, abs(ref))


def _assert_quantities(got, ref, label):
    for key in KEYS:
        assert _close(got[key], ref[key]), (label, key, got[key], float(ref[key]))


def _assert_report_fields(reports, refs, bar_refs, label):
    """The fields of ``verify``'s two reports that come from member quantities and ``Hbar*``, against references."""
    avg, exp_check = reports
    big_m = exp_check["metadata"]["M"]
    with mpmath.workdps(DPS):
        count = len(refs)
        assert _close(avg["lhs"], sum(ref["I_prime"] for ref in refs) / count), label
        assert _close(avg["metadata"]["avg_I"], sum(ref["I"] for ref in refs) / count), label
        best = avg["metadata"]["best_member_index"]
        assert _close(avg["metadata"]["best_member_I_prime"], refs[best]["I_prime"]), label
        assert _close(exp_check["metadata"]["avg_I_bar_prime"], sum(ref["I_bar_prime"] for ref in refs) / count), label
        slacks = []
        for s, bar in zip(DEFAULT_S_GRID, bar_refs, strict=True):
            order = mpmath.mpf(s)
            lhs = sum(mpmath.exp(order * ref["I_bar_prime"]) for ref in refs) / count
            rhs = 1 + mpmath.exp(order * (mpmath.log(big_m) - bar))
            assert _close(exp_check["metadata"]["lhs_by_s"][f"{s:g}"], lhs), (label, s)
            assert _close(exp_check["rhs_by_s"][f"{s:g}"], rhs), (label, s)
            slacks.append(rhs - lhs)
        assert _close(exp_check["slack"], min(slacks)), label


def test_family_pass_matches_the_50_digit_references_on_the_corpus():
    pairs = [(name, state, f) for name, state in default_corpus() for f in families_for(state.alphabet_size)]
    rows = grouped_member_mutual_info([(state, f) for _, state, f in pairs])
    for (name, state, family), members in zip(pairs, rows):
        parent, refs = member_references(state, family)
        _assert_quantities(state.decomposition.mutual_info_variants(), parent, name)
        for index, (got, ref) in enumerate(zip(members, refs, strict=True)):
            _assert_quantities(got, ref, (name, family.describe(), index))


def test_bar_star_matches_the_50_digit_reference_on_the_corpus():
    # the right-hand sides of the suite's exponential checks
    for name, state in default_corpus():
        _, bar_refs = renyi_references(state, DEFAULT_S_GRID)
        for s, ref in zip(DEFAULT_S_GRID, bar_refs):
            assert _close(state.decomposition.renyi_cond_bar_star(s), ref), (name, s)


@pytest.mark.parametrize(
    "name,build",
    [
        ("half-diagonal", half_diagonal_state),
        ("7:2,2+1", lambda: padded(random_cq(7, 2, 2), 1)),
        ("11:4,3+2", lambda: padded(random_cq(11, 4, 3), 2)),
        ("pure-eve", pure_eve_state),
    ],
)
def test_family_pass_matches_the_50_digit_references_on_singular_marginals(name, build):
    # the references take log rho^E and (rho^E)^{-1/2} on the support of rho^E, as qpa does
    state = build()
    families = families_for(state.alphabet_size)
    for family, members in zip(families, grouped_member_mutual_info([(state, f) for f in families])):
        parent, refs = member_references(state, family)
        _assert_quantities(state.decomposition.mutual_info_variants(), parent, name)
        for index, (got, ref) in enumerate(zip(members, refs, strict=True)):
            _assert_quantities(got, ref, (name, family.describe(), index))


def test_padding_leaves_the_50_digit_member_references():
    state, family = random_cq(11, 4, 3), families_for(4)[0]
    full_parent, full = member_references(state, family)
    cut_parent, cut = member_references(padded(state, 2), family)
    with mpmath.workdps(DPS):
        for a, b in zip([full_parent, *full], [cut_parent, *cut], strict=True):
            assert max(abs(a[key] - b[key]) for key in KEYS) <= mpmath.mpf("1e-40")


def test_quantities_golden_matches_the_50_digit_reference():
    parent, _ = member_references(preset("tilted-qubit"), families_for(2)[0])
    values = json.loads((DATA / "tilted_quantities_golden.json").read_text(encoding="utf-8"))["values"]
    _assert_quantities(values, parent, "tilted-qubit")


def test_tilted_lifted_family_matches_the_50_digit_references():
    state = tensor_power(preset("tilted-qubit"), 2)
    family = parse_family("toeplitz:q=2,k=2,m=1")
    parent, refs = member_references(state, family)
    _assert_quantities(state.decomposition.mutual_info_variants(), parent, "tilted-qubit^2")
    for index, (got, ref) in enumerate(zip(grouped_member_mutual_info([(state, family)])[0], refs, strict=True)):
        _assert_quantities(got, ref, index)
    _, bar_refs = renyi_references(state, DEFAULT_S_GRID)
    reports = json.loads((DATA / "tilted_lifted_verify_golden.json").read_text(encoding="utf-8"))
    _assert_report_fields(reports, refs, bar_refs, "tilted_lifted_verify_golden.json")


@pytest.fixture(scope="module")
def complex_reference():
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    with mpmath.workdps(DPS):
        for values in (doc["parent"], *doc["members"]):
            values.update((key, mpmath.mpf(text)) for key, text in values.items())
    return doc


def test_stored_complex_reference_belongs_to_its_inputs(complex_reference):
    # the reference is too slow to run live, so it must not go stale silently
    family = parse_family(FAMILY)
    assert complex_reference["state_sha256"] == hashlib.sha256((DATA / STATE_FILE).read_bytes()).hexdigest()
    assert (complex_reference["state_file"], complex_reference["power"]) == (STATE_FILE, POWER)
    assert complex_reference["family"] == FAMILY
    assert complex_reference["tables_sha256"] == tables_sha256(family)
    assert complex_reference["dps"] == DPS
    assert len(complex_reference["members"]) == family.member_count
    # the inputs of test_cli's complex lifted golden
    reports = json.loads((DATA / "complex_lifted_verify_golden.json").read_text(encoding="utf-8"))
    assert {(rep["state"], rep["family"]) for rep in reports} == {(STATE_FILE, family.describe())}


def test_complex_lifted_family_matches_the_stored_50_digit_reference(complex_reference):
    one_copy = load_state_json((DATA / STATE_FILE).read_text(encoding="utf-8"))
    state = tensor_power(one_copy, POWER)
    family = parse_family(FAMILY)
    _assert_quantities(state.decomposition.mutual_info_variants(), complex_reference["parent"], "parent")
    refs = complex_reference["members"]
    for index, (got, ref) in enumerate(zip(grouped_member_mutual_info([(state, family)])[0], refs, strict=True)):
        _assert_quantities(got, ref, index)
    # Hbar* is additive over the tensor power, so the one-copy reference gives the d_E = 32 one
    _, bar_refs = renyi_references(one_copy, DEFAULT_S_GRID)
    reports = json.loads((DATA / "complex_lifted_verify_golden.json").read_text(encoding="utf-8"))
    _assert_report_fields(reports, refs, [POWER * x for x in bar_refs], "complex_lifted_verify_golden.json")

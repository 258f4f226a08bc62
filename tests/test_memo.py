"""The per-state memo of ``StateDecomposition``: order evaluations and hashed member results.

A memoised value must be the value the state computes without the memo,
bit for bit, however the calls before it filled or evicted the memo; an
order that fails validation must fail on every call; and the memo must stay
within ``MEMO_ENTRIES``.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from member_oracle import member_mutual_info_reference
from qpa.cli import main
from qpa.cqstate import CQState, preset, random_cq
from qpa.exponents import exponent_curve
from qpa.hashing import make_explicit_family, make_family
from qpa.quantities import MEMO_ENTRIES, PHI_T_MAX, S_MAX, BoundedMemo, StateDecomposition
from qpa.verification import default_corpus, member_mutual_info, verify_hashing_bounds

CORPUS = [state for _, state in default_corpus()]
METHODS = ("renyi_cond", "renyi_cond_bar_star", "renyi_cond_moments", "phi", "phi_and_slope")


def _unmemoised(dec: StateDecomposition, method: str, order):
    """``method`` at ``order`` past the memo: through the grids, or the undecorated method."""
    if method == "renyi_cond":
        return float(dec.renyi_cond_grid([order])[0])
    if method == "renyi_cond_bar_star":
        return float(dec.renyi_cond_bar_star_grid([order])[0])
    if method == "phi":
        return float(dec.phi_grid([order])[0])
    return getattr(StateDecomposition, method).__wrapped__(dec, order)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _outcome(evaluate):
    """The bits of the value, or the type and message of the ``ValueError`` it raised."""
    try:
        return _bits(evaluate())
    except ValueError as exc:
        return type(exc), str(exc)


def _rebuilt(state: CQState) -> CQState:
    return CQState(state.probs, state.rhos)


# orders valid for every method, orders valid for some, and orders valid for none
ORDERS = hst.one_of(
    hst.sampled_from([0.0, 1e-12, 0.25, 0.5, 1.0]),
    hst.floats(0.0, PHI_T_MAX),
    hst.sampled_from([-0.1, 0.95, 2.0, S_MAX, 4.5, math.nan, math.inf]),
)
CALL = hst.tuples(hst.sampled_from(METHODS), ORDERS)
# more distinct orders than the memo holds, so later calls see evictions
FLOOD = hst.tuples(hst.just("flood"), hst.sampled_from(METHODS), hst.floats(1e-6, 0.1))
CALLS = hst.lists(hst.one_of(CALL, CALL, CALL, FLOOD), min_size=1, max_size=10)


@settings(max_examples=25)
@given(index=hst.integers(0, len(CORPUS) - 1), calls=CALLS)
def test_memoised_scalars_equal_fresh_unmemoised_evaluations(index, calls):
    memoised = _rebuilt(CORPUS[index]).decomposition
    fresh = _rebuilt(CORPUS[index]).decomposition
    for call in calls:
        if call[0] == "flood":
            _, method, lo = call
            orders = np.linspace(lo, PHI_T_MAX, MEMO_ENTRIES + 10).tolist()
            for order in orders:
                getattr(memoised, method)(order)
            orders = orders[::50]  # a sample: the first was evicted since, the rest are hits
        else:
            method, order = call
            orders = [order, order]  # a miss, then a hit or the same error
        for order in orders:
            got = _outcome(lambda: getattr(memoised, method)(order))
            assert got == _outcome(lambda: _unmemoised(fresh, method, order)), (method, order)
        assert len(memoised.memo) <= MEMO_ENTRIES


@pytest.mark.parametrize(
    "method, order",
    [
        ("renyi_cond", -0.1),
        ("renyi_cond", 4.5),
        ("renyi_cond", math.nan),
        ("renyi_cond_moments", math.inf),
        ("renyi_cond_bar_star", 0.0),
        ("renyi_cond_bar_star", 0),
        ("renyi_cond_bar_star", np.float64(0.0)),
        ("renyi_cond_bar_star", np.array(0.0)),
        ("renyi_cond_bar_star", math.nan),
        ("phi", 0.95),
        ("phi_and_slope", -0.1),
    ],
)
def test_invalid_orders_raise_on_every_call(method, order):
    dec = _rebuilt(preset("tilted-qubit")).decomposition
    with pytest.raises(ValueError) as expected:
        _unmemoised(dec, method, order)
    for _ in range(3):
        with pytest.raises(ValueError) as raised:
            getattr(dec, method)(order)
        assert str(raised.value) == str(expected.value)
    assert len(dec.memo) == 0


@pytest.mark.parametrize("method, value", [(m, 1) for m in METHODS[:3]] + [("phi", 0), ("phi_and_slope", 0)])
def test_int_numpy_and_0d_orders_share_the_float_value(method, value):
    state = random_cq(5, 4, 3)
    by_float = getattr(_rebuilt(state).decomposition, method)(float(value))
    for order in (value, np.float64(value), np.array(value), np.array(float(value))):
        # cold, where the odd order type is the one the value is computed from, then warm
        cold = getattr(_rebuilt(state).decomposition, method)(order)
        warm = getattr(state.decomposition, method)(order)
        assert _bits(cold) == _bits(warm) == _bits(by_float), (method, order)


def test_memo_evicts_the_least_recently_used_entry():
    memo = BoundedMemo()
    for key in range(MEMO_ENTRIES):
        memo.put(key, str(key))
    assert memo.get(0) == "0"  # now the most recently used
    memo.put(MEMO_ENTRIES, "new")
    assert len(memo) == MEMO_ENTRIES
    assert memo.get(1) is None and memo.get(0) == "0" and memo.get(MEMO_ENTRIES) == "new"


def test_warm_reports_equal_cold_ones():
    state = random_cq(11, 4, 3)
    for family in (make_family("toeplitz", 2, 2, 2), make_family("modified_toeplitz", 2, 2, 2)):
        cold = [rep.to_json_dict() for rep in verify_hashing_bounds(state, family, name="r")]
        warm = [rep.to_json_dict() for rep in verify_hashing_bounds(state, family, name="r")]
        assert warm == cold
        rebuilt = [rep.to_json_dict() for rep in verify_hashing_bounds(_rebuilt(state), family, name="r")]
        assert rebuilt == cold
    cold_csv = exponent_curve(state, 0.0, math.log(4), 41).to_csv_text()
    assert exponent_curve(state, 0.0, math.log(4), 41).to_csv_text() == cold_csv
    assert exponent_curve(_rebuilt(state), 0.0, math.log(4), 41).to_csv_text() == cold_csv


@pytest.mark.parametrize(
    "argv", [["verify", "--suite", "full"], ["sweep", "--preset", "tilted-qubit", "--steps", "201"]]
)
def test_command_reruns_in_one_process_print_the_same_bytes(argv):
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] and outputs[0]


def test_memo_stays_bounded_over_a_long_curve():
    state = random_cq(1, 4, 3)
    exponent_curve(state, 0.0, math.log(4), 5001)
    assert len(state.decomposition.memo) == MEMO_ENTRIES  # filled, and evicted from since


def test_member_results_beyond_the_bound_equal_the_reference():
    # more distinct tables than the memo holds, with repeats: within one pass
    # every table is answered, and a second pass recomputes the evicted ones
    rng = np.random.default_rng(3)
    tables = {tuple(row) for row in rng.integers(0, 4, size=(MEMO_ENTRIES + 200, 8)).tolist()}
    tables = sorted(tables)[: MEMO_ENTRIES + 100]
    assert len(tables) == MEMO_ENTRIES + 100
    family = make_explicit_family(tables + tables[:50], 4)
    state = random_cq(9, 8, 2)
    reference = member_mutual_info_reference(state, family)
    assert member_mutual_info(state, family) == reference
    assert len(state.decomposition.memo) == MEMO_ENTRIES
    assert member_mutual_info(state, family) == reference

"""The scalar order evaluations of ``StateDecomposition``, and reruns on one state.

An int, numpy or 0-d order must give the bits of the same float order; an
order that fails validation must fail on every call with the grid's
message; and reports, curves and command output must not depend on what
was evaluated on the state before.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from member_oracle import member_mutual_info_reference
from qpa.cli import main
from qpa.cqstate import CQState, preset, random_cq
from qpa.exponents import exponent_curve
from qpa.hashing import make_explicit_family, make_family
from qpa.quantities import StateDecomposition
from qpa.verification import member_mutual_info, verify_hashing_bounds

METHODS = ("renyi_cond", "renyi_cond_bar_star", "renyi_cond_moments", "phi", "phi_and_slope")


def _reference(dec: StateDecomposition, method: str, order):
    """``method`` at ``order`` through its grid, where it has one, else the method itself."""
    if method == "renyi_cond":
        return float(dec.renyi_cond_grid([order])[0])
    if method == "renyi_cond_bar_star":
        return float(dec.renyi_cond_bar_star_grid([order])[0])
    if method == "phi":
        return float(dec.phi_grid([order])[0])
    return getattr(dec, method)(order)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _rebuilt(state: CQState) -> CQState:
    return CQState(state.probs, state.rhos)


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
        ("phi", math.nan),
        ("phi_and_slope", -0.1),
        ("phi_and_slope", math.nan),
    ],
)
def test_invalid_orders_raise_on_every_call(method, order):
    dec = _rebuilt(preset("tilted-qubit")).decomposition
    with pytest.raises(ValueError) as expected:
        _reference(dec, method, order)
    for _ in range(3):
        with pytest.raises(ValueError) as raised:
            getattr(dec, method)(order)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("method, value", [(m, 1) for m in METHODS[:3]] + [("phi", 0), ("phi_and_slope", 0)])
def test_int_numpy_and_0d_orders_share_the_float_value(method, value):
    state = random_cq(5, 4, 3)
    by_float = getattr(_rebuilt(state).decomposition, method)(float(value))
    for order in (value, np.float64(value), np.array(value), np.array(float(value))):
        # on a fresh decomposition, and on one that has evaluated the order before
        cold = getattr(_rebuilt(state).decomposition, method)(order)
        warm = getattr(state.decomposition, method)(order)
        assert _bits(cold) == _bits(warm) == _bits(by_float), (method, order)


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
    assert member_mutual_info(state, family) == reference
    assert member_mutual_info(state, family) == reference

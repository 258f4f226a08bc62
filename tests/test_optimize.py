import collections
import functools
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as hst

from qpa.optimize import increasing_roots

from root_oracle import increasing_root


def _counted(h):
    calls = []

    def fn(x):
        calls.append(x)
        return h(x)

    return fn, calls


def _roots(fns, lo, hi):
    """``increasing_roots`` of the scalar functions ``fns``, and the number of interior evaluations of each row."""
    evaluations = collections.Counter()

    def fn(x, active):
        evaluations.update(active.tolist())
        return np.array([fns[r](xi) for xi, r in zip(x.tolist(), active.tolist())])

    f_lo, f_hi = ([f(end) for f in fns] for end in (lo, hi))
    return increasing_roots(fn, f_lo, f_hi, lo, hi).tolist(), [evaluations[r] for r in range(len(fns))]


def _one_and_all(fns, lo, hi):
    """The roots of ``fns`` as one-row calls and as one multi-row call, which must agree bit for bit."""
    alone = [_roots([f], lo, hi)[0][0] for f in fns]
    together = _roots(fns, lo, hi)[0]
    assert [x.hex() for x in together] == [x.hex() for x in alone]
    return together


def test_increasing_root_clamps_to_the_interval():
    fns = [lambda x: x + 1.0, lambda x: x - 2.0, lambda x: x, lambda x: x - 1.0]
    assert _one_and_all(fns, 0.0, 1.0) == [0.0, 1.0, 0.0, 1.0]
    # a root exactly at an endpoint is that endpoint
    assert _one_and_all([lambda x: x - 0.5, lambda x: x], 0.0, 0.5) == [0.5, 0.0]


def test_increasing_root_converges_to_rounding():
    fns = [
        lambda x: x * x - 0.5,
        # steep in the middle, flat at both ends: the Illinois halving converges with no bisection step
        lambda x: math.tanh(40.0 * (x - 0.7)),
        # flat at the root: 52 regula falsi steps here fall outside the bracket and bisect
        lambda x: (x - 0.7) ** 3,
    ]
    sqrt_half, tanh_root, cubic_root = _one_and_all(fns, 0.0, 1.0)
    assert abs(sqrt_half - math.sqrt(0.5)) <= math.ulp(sqrt_half)
    assert abs(tanh_root - 0.7) <= 4 * math.ulp(0.7)
    assert abs(cubic_root - 0.7) <= 4 * math.ulp(0.7)


def test_increasing_root_does_not_stall_on_a_convex_function():
    # every chord of x^8 lies above it, so plain regula falsi keeps the end at 1
    # and creeps up from the left; the Illinois halving moves both ends
    h = lambda x: x**8 - 1e-3
    root_ref = 1e-3 ** (1.0 / 8.0)
    a, f_a, b, f_b = 0.0, h(0.0), 1.0, h(1.0)
    for _ in range(60):
        x = a - f_a * (b - a) / (f_b - f_a)
        if h(x) < 0.0:
            a, f_a = x, h(x)
        else:
            b, f_b = x, h(x)
    assert b == 1.0 and root_ref - a > 0.1  # plain regula falsi after 60 steps
    fns = [h, lambda x: x - 0.25]
    root, _ = _one_and_all(fns, 0.0, 1.0)
    assert abs(root - root_ref) <= 2 * math.ulp(root_ref)
    assert 2 + _roots(fns, 0.0, 1.0)[1][0] <= 60  # the two ends and every step between them


# nondecreasing functions of x with one parameter c, each evaluated in plain Python floats
_SHAPES = {
    "linear": lambda x, c: x - c,  # at c = 1/2 on [-1, 2], the first regula falsi step lands on the root exactly
    "cubic": lambda x, c: (x - c) ** 3,  # at c = 0.7 on [-1, 2], 53 regula falsi steps fall outside and bisect
    "tanh": lambda x, c: math.tanh(40.0 * (x - c)),  # flat at both ends
    "power": lambda x, c: math.copysign(x**8, x) - c,  # every chord on [0, 1] lies above: the Illinois halving
    "step": lambda x, c: -1.0 if x < c else 1.0,  # at c = 0 on [-1, 2], no stop before the step cap
}


def _lockstep(rows, lo, hi):
    """``increasing_roots`` of the rows ``(shape, c)``, and the number of interior evaluations it asks of each row."""
    return _roots([functools.partial(_SHAPES[shape], c=c) for shape, c in rows], lo, hi)


def _oracle(rows, lo, hi):
    """The oracle's scalar root of each row ``(shape, c)``, and its number of interior evaluations."""
    out = []
    for shape, c in rows:
        fn, calls = _counted(functools.partial(_SHAPES[shape], c=c))
        root = increasing_root(fn, lo, hi)
        out.append((root.hex(), len(calls[2:])))  # calls[:2] are the ends, when the first does not clamp
    return out


def test_increasing_roots_rows_take_the_scalar_steps_through_every_exit():
    rows = [("linear", -2.0), ("linear", 3.0), ("linear", 0.5), ("cubic", 0.7), ("power", 1e-3), ("step", 0.0)]
    roots, evaluations = _lockstep(rows, -1.0, 2.0)
    assert list(zip((x.hex() for x in roots), evaluations)) == _oracle(rows, -1.0, 2.0)
    assert roots[:3] == [-1.0, 2.0, 0.5]  # clamped at lo, clamped at hi, an exact zero
    assert evaluations[:3] == [0, 0, 1]
    assert evaluations[5] == 200  # the step row runs to the cap


@given(
    rows=hst.lists(
        hst.tuples(
            hst.sampled_from(sorted(_SHAPES)),
            hst.one_of(hst.sampled_from([0.0, 0.5, 0.7, 1.0, 1e-3, -1.0, 2.0]), hst.floats(-0.5, 1.5)),
        ),
        max_size=12,
    ),
    bracket=hst.sampled_from([(0.0, 1.0), (0.0, 0.5), (-1.0, 2.0)]),
)
def test_increasing_roots_rows_equal_the_scalar_roots(rows, bracket):
    roots, evaluations = _lockstep(rows, *bracket)
    assert list(zip((x.hex() for x in roots), evaluations)) == _oracle(rows, *bracket)

import collections
import functools
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as hst

from qpa.optimize import increasing_root, increasing_roots


def _counted(h):
    calls = []

    def fn(x):
        calls.append(x)
        return h(x)

    return fn, calls


def test_increasing_root_clamps_to_the_interval():
    assert increasing_root(lambda x: x + 1.0, 0.0, 1.0) == 0.0
    assert increasing_root(lambda x: x - 2.0, 0.0, 1.0) == 1.0
    # a root exactly at an endpoint is that endpoint
    assert increasing_root(lambda x: x, 0.0, 1.0) == 0.0
    assert increasing_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert increasing_root(lambda x: x - 0.5, 0.0, 0.5) == 0.5


def test_increasing_root_converges_to_rounding():
    root = increasing_root(lambda x: x * x - 0.5, 0.0, 1.0)
    assert abs(root - math.sqrt(0.5)) <= math.ulp(root)
    # steep in the middle, flat at both ends: regula falsi steps leave the bracket and bisect
    root = increasing_root(lambda x: math.tanh(40.0 * (x - 0.7)), 0.0, 1.0)
    assert abs(root - 0.7) <= 4 * math.ulp(0.7)


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
    fn, calls = _counted(h)
    root = increasing_root(fn, 0.0, 1.0)
    assert abs(root - root_ref) <= 2 * math.ulp(root_ref)
    assert len(calls) <= 60


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
    fns = [functools.partial(_SHAPES[shape], c=c) for shape, c in rows]
    evaluations = collections.Counter()

    def fn(x, active):
        evaluations.update(active.tolist())
        return np.array([fns[r](xi) for xi, r in zip(x.tolist(), active.tolist())])

    f_lo, f_hi = ([fns[r](end) for r in range(len(rows))] for end in (lo, hi))
    return increasing_roots(fn, f_lo, f_hi, lo, hi), [evaluations[r] for r in range(len(rows))]


def test_increasing_roots_rows_take_the_scalar_steps_through_every_exit():
    rows = [("linear", -2.0), ("linear", 3.0), ("linear", 0.5), ("cubic", 0.7), ("power", 1e-3), ("step", 0.0)]
    roots, evaluations = _lockstep(rows, -1.0, 2.0)
    scalar = []
    for (shape, c), root, n in zip(rows, roots.tolist(), evaluations):
        fn, calls = _counted(functools.partial(_SHAPES[shape], c=c))
        scalar.append(increasing_root(fn, -1.0, 2.0))
        assert (root.hex(), n) == (scalar[-1].hex(), len(calls[2:])), (shape, c)  # calls[:2] are the ends
    assert scalar[:3] == [-1.0, 2.0, 0.5]  # clamped at lo, clamped at hi, an exact zero
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
    roots, _ = _lockstep(rows, *bracket)
    expected = [increasing_root(functools.partial(_SHAPES[shape], c=c), *bracket) for shape, c in rows]
    assert [x.hex() for x in roots.tolist()] == [x.hex() for x in expected]

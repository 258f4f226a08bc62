import math

from qpa.optimize import increasing_root


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

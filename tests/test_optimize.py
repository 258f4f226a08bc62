import math

from qpa.optimize import increasing_root


def test_increasing_root_clamps_to_the_interval():
    assert increasing_root(lambda x: (x + 1.0, 1.0), 0.0, 1.0) == 0.0
    assert increasing_root(lambda x: (x - 2.0, 1.0), 0.0, 1.0) == 1.0
    # a root exactly at an endpoint is that endpoint
    assert increasing_root(lambda x: (x, 1.0), 0.0, 1.0) == 0.0
    assert increasing_root(lambda x: (x - 1.0, 1.0), 0.0, 1.0) == 1.0


def test_increasing_root_newton_converges_to_rounding():
    root = increasing_root(lambda x: (x * x - 0.5, 2.0 * x), 0.0, 1.0)
    assert abs(root - math.sqrt(0.5)) <= math.ulp(root)


def test_increasing_root_bisects_where_the_derivative_vanishes():
    # h' reported as zero everywhere, as for a state whose Renyi slopes are all equal
    root = increasing_root(lambda x: (x - 0.3, 0.0), 0.0, 1.0)
    assert abs(root - 0.3) <= 4 * math.ulp(0.3)
    # a derivative that overshoots the bracket falls back to bisection too
    root = increasing_root(lambda x: (math.tanh(40.0 * (x - 0.7)), 1e-9), 0.0, 1.0)
    assert abs(root - 0.7) <= 4 * math.ulp(0.7)

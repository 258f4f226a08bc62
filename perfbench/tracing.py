"""Spans and counters at the public boundaries of the qpa modules.

The tracer is installed from outside the package. qpa imports with
``from .x import y``, so a wrapper must sit wherever a caller looks a name
up: every binding of a traced function in any ``qpa`` module is replaced,
constructors and methods are wrapped on their class, and
``numpy.linalg.eigh``/``eigvalsh`` are wrapped on ``numpy.linalg`` itself.
Uninstalling restores every original binding.

A span's self time is its duration minus the time covered by spans it
opened on the same thread. The thread pool's tasks run on worker threads,
so a span that waits on ``map_ordered`` counts the pool's wall time as a
child, not as its own work.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, kind, value from a Tracer). "count" metrics come from one
# operation and must repeat exactly; "time" and "ratio" metrics are medians
# over the traced operations. Times are totals over a span's calls, except
# the "(self)" ones: verification.bound_s, verification.suite_s,
# exponents.row_s, exponents.curve_s and cli.main_s.
LAYER_METRICS = [
    ("numpy.eigh_calls", "count", "count", lambda t: t.calls["numpy.eigh"]),
    ("numpy.eigh_s", "s", "time", lambda t: t.total["numpy.eigh"]),
    ("numpy.eigh_dim3_sum", "count", "count", lambda t: t.counts["numpy.eigh_dim3_sum"]),
    ("hermitian.eig_calls", "count", "count", lambda t: t.calls["hermitian.eig"]),
    ("hermitian.eig_s", "s", "time", lambda t: t.total["hermitian.eig"]),
    ("cqstate.states_built", "count", "count", lambda t: t.calls["cqstate.build"]),
    ("cqstate.build_s", "s", "time", lambda t: t.total["cqstate.build"]),
    ("cqstate.validation_eig_calls", "count", "count", lambda t: t.counts["cqstate.validation_eig_calls"]),
    ("cqstate.apply_function_calls", "count", "count", lambda t: t.calls["cqstate.apply_function"]),
    ("cqstate.apply_function_s", "s", "time", lambda t: t.total["cqstate.apply_function"]),
    ("cqstate.tensor_power_s", "s", "time", lambda t: t.total["cqstate.tensor_power"]),
    ("quantities.decomp_calls", "count", "count", lambda t: t.calls["quantities.decomp"]),
    ("quantities.decomp_s", "s", "time", lambda t: t.total["quantities.decomp"]),
    ("quantities.decomp_unique_ratio", "ratio", "count", lambda t: _ratio(len(t.decomp_keys), t.calls["quantities.decomp"])),
    ("quantities.renyi_evals", "count", "count", lambda t: t.calls["quantities.renyi"]),
    ("quantities.renyi_s", "s", "time", lambda t: t.total["quantities.renyi"]),
    ("quantities.grid_points", "count", "count", lambda t: t.counts["quantities.grid_points"]),
    ("quantities.grid_s", "s", "time", lambda t: t.total["quantities.grid"]),
    ("quantities.mutual_info_calls", "count", "count", lambda t: t.calls["quantities.mutual_info"]),
    ("quantities.mutual_info_s", "s", "time", lambda t: t.total["quantities.mutual_info"]),
    ("hashing.members_enumerated", "count", "count", lambda t: t.calls["hashing.member_function"]),
    ("hashing.member_function_s", "s", "time", lambda t: t.total["hashing.member_function"]),
    ("hashing.collision_diffs", "count", "count", lambda t: t.counts["hashing.collision_diffs"]),
    ("hashing.collision_s", "s", "time", lambda t: t.total["hashing.collision"]),
    ("verification.bound_checks", "count", "count", lambda t: t.calls["verification.bound"]),
    ("verification.bound_s", "s", "time", lambda t: t.self_s["verification.bound"]),
    ("verification.lemma_s", "s", "time", lambda t: t.total["verification.lemma"]),
    ("verification.pinch_s", "s", "time", lambda t: t.total["verification.pinch"]),
    ("verification.suite_s", "s", "time", lambda t: t.self_s["verification.suite"]),
    ("exponents.rows", "count", "count", lambda t: t.calls["exponents.row"]),
    ("exponents.row_s", "s", "time", lambda t: t.self_s["exponents.row"]),
    ("exponents.curve_s", "s", "time", lambda t: t.self_s["exponents.curve"]),
    ("optimize.golden_calls", "count", "count", lambda t: t.calls["optimize.golden"]),
    ("optimize.objective_evals", "count", "count", lambda t: t.counts["optimize.objective_evals"]),
    ("optimize.golden_s", "s", "time", lambda t: t.total["optimize.golden"]),
    ("parallel.workers", "count", "count", lambda t: t.counts["parallel.workers"]),
    ("parallel.map_calls", "count", "count", lambda t: t.calls["parallel.map"]),
    ("parallel.map_wall_s", "s", "time", lambda t: t.total["parallel.map"]),
    ("parallel.speedup", "ratio", "ratio", lambda t: _ratio(t.counts["parallel.task_s"], t.total["parallel.map"])),
    ("cli.main_s", "s", "time", lambda t: t.self_s["cli.main"]),
]


class Tracer:
    """Per-operation span totals and counters, safe across pool threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.decomp_keys: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, args, kwargs):
        stack = self._stack()
        frame = [name, 0.0]  # [span name, seconds covered by child spans]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            with self._lock:
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += dt - frame[1]

    def add(self, key: str, n: int | float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def raise_to(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], n)

    def saw_state(self, key: bytes) -> None:
        with self._lock:
            self.decomp_keys.add(key)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def exclude(self, seconds: float) -> None:
        """Keep the tracer's own bookkeeping out of the enclosing span's self time."""
        stack = self._stack()
        if stack:
            stack[-1][1] += seconds

    def metrics(self) -> dict[str, float]:
        """The layer metrics of everything recorded since the last reset."""
        return {name: value(self) for name, _, _, value in LAYER_METRICS}


def _state_key(state) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(state.probs).tobytes())
    for rho in state.eve_states:
        h.update(np.ascontiguousarray(rho.mat).tobytes())
    return h.digest()


def _wrap(tracer: Tracer, name: str, fn, pre=None, skip_under: str | None = None):
    """Span ``name`` around ``fn``; ``pre(args, kwargs)`` may count and return new args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or (skip_under is not None and tracer.innermost() == skip_under):
            return fn(*args, **kwargs)
        if pre is not None:
            t0 = perf_counter()
            args = pre(args, kwargs)
            tracer.exclude(perf_counter() - t0)
        return tracer.span(name, fn, args, kwargs)

    return wrapper


def _hooks(tracer: Tracer):
    """Counting hooks, keyed by span name."""
    from qpa import _parallel

    def eigh(args, kwargs):
        shape = np.shape(args[0] if args else kwargs["a"])
        tracer.add("numpy.eigh_dim3_sum", math.prod(shape[:-2]) * shape[-1] ** 3)
        return args

    def eig(args, kwargs):
        if tracer.inside("cqstate.build"):
            tracer.add("cqstate.validation_eig_calls")
        return args

    def decomp(args, kwargs):
        tracer.saw_state(_state_key(args[1] if len(args) > 1 else kwargs["state"]))
        return args

    def grid(args, kwargs):
        values = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        tracer.add("quantities.grid_points", int(np.size(values)))
        return args

    def collision(args, kwargs):
        family = args[0] if args else kwargs["family"]
        if family.tables is not None:
            tracer.add("hashing.collision_diffs", family.domain_size * (family.domain_size - 1) // 2)
        else:
            tracer.add("hashing.collision_diffs", family.domain_size - 1)
        return args

    def golden(args, kwargs):
        f = args[0]

        def objective(x):
            tracer.add("optimize.objective_evals")
            return f(x)

        return (objective,) + tuple(args[1:])

    def pool_map(args, kwargs):
        fn, items = args[0], list(args[1])
        n = _parallel.worker_count()
        workers = n if n > 1 and len(items) > 1 else 1
        tracer.raise_to("parallel.workers", workers)

        def task(x):
            t0 = perf_counter()
            try:
                return fn(x)
            finally:
                tracer.add("parallel.task_s", perf_counter() - t0)

        return (task, items)

    return {
        "numpy.eigh": eigh,
        "hermitian.eig": eig,
        "quantities.decomp": decomp,
        "quantities.grid": grid,
        "hashing.collision": collision,
        "optimize.golden": golden,
        "parallel.map": pool_map,
    }


# (module, function, span name) for module-level functions
FUNCTIONS = [
    ("qpa.hermitian", "eig_hermitian", "hermitian.eig"),
    ("qpa.cqstate", "apply_function", "cqstate.apply_function"),
    ("qpa.cqstate", "tensor_power", "cqstate.tensor_power"),
    ("qpa.cqstate", "load_state_json", "cqstate.load"),
    ("qpa.hashing", "member_function", "hashing.member_function"),
    ("qpa.hashing", "collision_stats", "hashing.collision"),
    ("qpa.verification", "verify_avg_leak_bound", "verification.bound"),
    ("qpa.verification", "verify_exp_leak_bound", "verification.bound"),
    ("qpa.verification", "matrix_lemma_checks", "verification.lemma"),
    ("qpa.verification", "pinching_bound_check", "verification.pinch"),
    ("qpa.verification", "run_full_suite", "verification.suite"),
    ("qpa.exponents", "exponent_row", "exponents.row"),
    ("qpa.exponents", "exponent_curve", "exponents.curve"),
    ("qpa.optimize", "golden_max", "optimize.golden"),
    ("qpa._parallel", "map_ordered", "parallel.map"),
    ("qpa.cli", "main", "cli.main"),
]

# (module, class, method, span name) for methods, wrapped on the class
METHODS = [
    ("qpa.cqstate", "CQState", "__init__", "cqstate.build"),
    ("qpa.quantities", "StateDecomposition", "__init__", "quantities.decomp"),
    ("qpa.quantities", "StateDecomposition", "renyi_cond", "quantities.renyi"),
    ("qpa.quantities", "StateDecomposition", "renyi_cond_bar_star", "quantities.renyi"),
    ("qpa.quantities", "StateDecomposition", "phi", "quantities.renyi"),
    ("qpa.quantities", "StateDecomposition", "renyi_cond_grid", "quantities.grid"),
    ("qpa.quantities", "StateDecomposition", "renyi_cond_bar_star_grid", "quantities.grid"),
    ("qpa.quantities", "StateDecomposition", "phi_grid", "quantities.grid"),
    ("qpa.quantities", "StateDecomposition", "mutual_info_variants", "quantities.mutual_info"),
]


class installed:
    """Context manager that binds the tracer's wrappers and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        hooks = _hooks(tracer)
        for modname in {entry[0] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(modname)
        qpa_modules = [m for n, m in list(sys.modules.items()) if n == "qpa" or n.startswith("qpa.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = _wrap(tracer, name, original, hooks.get(name))
            for module in qpa_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            skip = "quantities.renyi" if name == "quantities.grid" else None
            self._set(cls, attr, _wrap(tracer, name, cls.__dict__[attr], hooks.get(name), skip))
        for attr in ("eigh", "eigvalsh"):
            self._set(np.linalg, attr, _wrap(tracer, "numpy.eigh", getattr(np.linalg, attr), hooks["numpy.eigh"]))
        tracer.active = True
        return tracer

    def __exit__(self, *exc) -> None:
        self.tracer.active = False
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

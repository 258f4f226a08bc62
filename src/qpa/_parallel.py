"""Serial stand-ins for the worker pool that qpa no longer has.

Every qpa computation runs serially: with the interpreter lock and many
tiny numpy calls, threads made the checks slower, not faster. Nothing in
the package imports this module. It stays because the benchmark harness
(``perfbench/run.py`` and ``perfbench/tracing.py``) imports ``worker_count``
and ``map_ordered``; it can go once the harness no longer does.
"""

from __future__ import annotations


def worker_count() -> int:
    """Always 1: qpa runs on the calling thread."""
    return 1


def map_ordered(fn, items):
    """``[fn(x) for x in items]``."""
    return [fn(x) for x in items]

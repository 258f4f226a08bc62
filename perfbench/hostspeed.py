"""How fast the host runs right now, from a fixed kernel that does not touch qpa.

The reference host is a 2-vCPU VM shared with other tenants, and its speed
drifts by up to 2.5x within minutes. ``HostSpeed`` times a pure-Python
kernel in the gaps between operations, at the same moment in this process
and in a helper process, so that it sees both vCPUs as the program's
2-worker pool does. ``scale`` then reports each operation's time at the
speed of the reference host.

Run as a script, this file is the helper: it times the kernel once for
every line it reads and prints the seconds.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter


def kernel() -> float:
    """Seconds for a fixed interpreter-bound loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - t0


class HostSpeed:
    """Kernel times in gaps between operations, and times rescaled by them.

    ``sample`` times the kernel in one gap: at least once, and for about
    SHARE of the previous operation's time. ``scale`` divides an operation's
    time by the mean of the kernel's median time in the gaps on either side
    of it, over REFERENCE_S, the kernel's time on the reference host.
    """

    REFERENCE_S = 0.016
    SHARE = 0.1

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.gaps: list[list[float]] = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()

    def _pair(self) -> float:
        """The kernel's time, run at once here and in the helper; the mean of both."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        mine = kernel()
        return (mine + float(self._helper.stdout.readline())) / 2

    def sample(self, last_op_s: float = 0.0) -> None:
        gap = []
        while not gap or math.fsum(gap) < self.SHARE * last_op_s:
            gap.append(self._pair())
        self.gaps.append(gap)

    def scale(self, durations: list[float], first_gap: int = 0) -> list[float]:
        """``durations[i]`` ran between gaps ``first_gap + i`` and ``first_gap + i + 1``."""
        medians = [statistics.median(gap) for gap in self.gaps]
        return [
            d * 2 * self.REFERENCE_S / (medians[first_gap + i] + medians[first_gap + i + 1])
            for i, d in enumerate(durations)
        ]

    def slowdown(self) -> float:
        """The run's median kernel time over the reference time."""
        return statistics.median(t for gap in self.gaps for t in gap) / self.REFERENCE_S


if __name__ == "__main__":
    for _ in sys.stdin:
        print(kernel(), flush=True)

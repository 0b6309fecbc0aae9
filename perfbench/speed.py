"""The host's speed, from a fixed reference task timed between work items.

The benchmark's host is a virtual machine shared with other guests; the
speed at which it runs pure Python swings by up to 1.9x within seconds, and
slow stretches can last minutes. A time measured there says as much about
the neighbours as about sphfn. So the benchmark times this task, which uses
only the standard library, between its work items, and rescales every time
to the reference speed: a time t measured where the task took c nanoseconds
is reported as t * REFERENCE_NS / c.

The task resembles the program's own work (Fraction arithmetic, tuple
building, dict counting) so that the host's swings slow both alike; it
never calls sphfn, so a change to the program does not change it.

Items that run on `verify`'s thread pool are rescaled by `pooled` instead:
the same task, POOL_TASKS times over a pool of the same size. Their time
depends on both virtual CPUs and on how fast the pool's threads hand the
interpreter lock to each other, which one thread alone does not see.
"""
from __future__ import annotations

import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

# The task's time at the reference speed: about its fastest on a 2-vCPU
# Intel Xeon virtual machine with Python 3.11.
REFERENCE_NS = 1_000_000
_SHUFFLE = (3, 7, 1, 0, 9, 11, 2, 5, 4, 10, 6, 8)
# Tasks per pooled sample: about 0.3 s, long enough to span many lock
# hand-overs.
POOL_TASKS = 150


def _task():
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i * i - 3, i + 7) * Fraction(2 * i + 1, 3)
    perm = tuple(range(12))
    counts: dict = {}
    for _ in range(400):
        perm = tuple(perm[j] for j in _SHUFFLE)
        key = tuple(sorted(perm[:5], reverse=True))
        counts[key] = counts.get(key, 0) + 1
    return acc, counts


def sample() -> int:
    """Nanoseconds of one run of the reference task."""
    t0 = time.perf_counter_ns()
    _task()
    return time.perf_counter_ns() - t0


def pooled() -> float:
    """Nanoseconds per task of POOL_TASKS runs of the reference task on a
    pool of os.cpu_count() threads, as `verify` makes by default."""
    t0 = time.perf_counter_ns()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for _ in pool.map(lambda _: _task(), range(POOL_TASKS)):
            pass
    return (time.perf_counter_ns() - t0) / POOL_TASKS


def local(samples: list[int], lo: int, hi: int) -> float:
    """Median of samples[lo:hi], clipped to the list."""
    return statistics.median(samples[max(0, lo):max(1, min(len(samples), hi))])

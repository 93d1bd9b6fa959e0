"""A fixed calibration suite: how fast the host runs Python right now.

On a shared host the speed of one core drifts by tens of percent over
minutes, as other tenants come and go.  A run that lands in a slow phase
reads slow whatever the simulator does.  Each repetition therefore times
this suite just before and just after its work, and the benchmark scales
its timings by ``REFERENCE_S / suite time``: host seconds on a host where
the suite takes ``REFERENCE_S``.

The suite mixes the operations the simulator spends its time on —
integer arithmetic, dict lookups, attribute updates on slotted objects,
heap pushes and pops and generator resumption.  It lives in the
benchmark, not in the code under test, so no change to the simulator
can move it.  Its tables live only while it is timed; memory the
allocator keeps after freeing them can add a few MB to a repetition's
peak memory, the same amount on every version of the simulator.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import List

#: About the suite's median time on the 2-core x86-64 host (Python 3.11)
#: this benchmark was built on; only the scale of the timings depends on it.
REFERENCE_S = 0.03

_TABLE_SIZE = 50_000
_LOOKUPS = 50_000
_OBJECTS = 30_000
_HEAP_ITEMS = 6_000


class _Slot:
    __slots__ = ("value", "total")

    def __init__(self, value: int):
        self.value = value
        self.total = 0


def _ticks(count: int):
    for tick in range(count):
        yield tick


class Suite:
    """The calibration data, built once per process, and its timer."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._table = {key: key for key in range(_TABLE_SIZE)}
        self._keys = [rng.randrange(_TABLE_SIZE) for _ in range(_LOOKUPS)]
        self._slots = [_Slot(value) for value in range(_OBJECTS)]

    def _work(self) -> int:
        acc = 0
        for k in range(40_000):
            acc += k * k % 7
        table = self._table
        for key in self._keys:
            acc += table[key]
        for slot in self._slots:
            slot.total = slot.value + slot.total
        heap: List[tuple] = []
        for item in range(_HEAP_ITEMS):
            heapq.heappush(heap, (item * 7919 % 1000, item))
            for _ in _ticks(2):
                acc += 1
        while heap:
            acc += heapq.heappop(heap)[1]
        return acc

    def time_once(self) -> float:
        started = time.perf_counter()
        self._work()
        return time.perf_counter() - started



def sample(rounds: int) -> List[float]:
    """Time the suite ``rounds`` times; its tables are freed on return."""
    suite = Suite()
    return [suite.time_once() for _ in range(rounds)]


def scale(seconds: float, suite_s: float) -> float:
    """``seconds`` measured while the suite took ``suite_s``, expressed on
    the reference host."""
    return seconds * REFERENCE_S / suite_s

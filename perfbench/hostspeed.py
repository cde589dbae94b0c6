"""Host-speed correction for host-time metrics on a shared machine.

On a host shared with other tenants, the speed at which this process
executes Python drifts by up to 1.8x over minutes (on a 2-core host with
Python 3.11, 87 identical 60 s ``dash_hetero`` videos in a row took
1.28-2.19 s, with CPU time tracking wall time).  The drift is slow and
hits all interpreter-bound code alike, so
the benchmark times a fixed, program-independent reference loop around
every round of passes and scales the round's host times by
``NOMINAL_S / reference time``.  Values are then "host seconds at the
speed where the reference loop takes ``NOMINAL_S``"; on an idle host of
that speed they equal raw host seconds.  Over 94 alternating rounds the
correction cut the interquartile spread of 10-video medians from 15% to
4.5%.

The loop exercises what the simulator's hot path does -- slotted
objects, bound-method calls, a binary heap of tuples, dict stores and
float arithmetic -- and imports nothing from the program, so no change
to the program can change its speed.
"""

from __future__ import annotations

import heapq
import time

#: Reference-loop seconds that define nominal host speed.
NOMINAL_S = 0.16
_ROUNDS = 170_000


class _Event:
    __slots__ = ("t", "n", "acc")

    def __init__(self, t: float, n: int) -> None:
        self.t = t
        self.n = n
        self.acc = 0.0

    def fire(self, table: dict) -> int:
        self.acc += self.t * 0.5
        table[self.n & 63] = self.acc
        return self.n + 1


def _reference_loop() -> int:
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(_ROUNDS):
        event = _Event(i * 0.001 + (i % 13) * 0.01, i)
        heapq.heappush(heap, (event.t, i, event))
        if len(heap) > 32:
            total += heapq.heappop(heap)[2].fire(table)
    return total


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


class SpeedCorrection:
    """Brackets rounds of work with reference timings.

    Create it just before the first round; :meth:`close_round` after each
    round returns the factor that converts the round's host seconds to
    nominal-speed seconds, from the mean of the reference timings taken
    just before and just after the round.
    """

    def __init__(self) -> None:
        self._before = reference_seconds()

    def close_round(self) -> float:
        after = reference_seconds()
        factor = NOMINAL_S / ((self._before + after) / 2)
        self._before = after
        return factor

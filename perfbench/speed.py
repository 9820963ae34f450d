"""Host-speed correction: host seconds expressed at a reference speed.

On a shared host the same CPU-bound code runs at different speeds from
one minute to the next (co-tenants, frequency changes): on the 2-vCPU
KVM host this benchmark was written on, a cell's wall time switches
between two levels about 1.75x apart, for stretches of seconds to
minutes.  Plain wall time then measures the host, not the program.

The benchmark therefore times a fixed calibration loop (:func:`calibrate`,
measured in thread CPU time) next to the work and reports every time at
the reference speed, at which the loop takes :data:`CAL_REF_S`::

    seconds_at_reference = wall_seconds * CAL_REF_S / loop_seconds

A change to the program moves this figure exactly as it moves wall
time at a fixed host speed; a change in host speed moves the loop and
the work together and cancels out.  The loop mixes what the simulator
does: interpreter-bound dict updates and integer arithmetic, gathers
and scatters over arrays larger than L1, and many numpy calls on small
arrays, in time shares of about 1:1:2.  That mix was chosen on the host
above by timing each part next to the paper cells for six minutes: it
kept the spread of 30-second medians to about 2 % while raw times
drifted by 23 %; the interpreter part alone gave 5 %, a numpy sort 11 %.

The driver times the loop in its own thread between units of work
(:class:`StepTimer`): between in-process cells, between set-up steps,
and before and after each grid pass, whose cells run in pool workers.
"""

from __future__ import annotations

import statistics
import time
from typing import Tuple

import numpy as np

#: Thread CPU seconds of one :func:`calibrate` loop at the reference
#: speed: a round figure near the loop's time on the host above.  It
#: only sets the scale of the reported times.
CAL_REF_S = 0.005
#: Iterations of each part of the calibration loop.
CAL_ITERATIONS = 4_000
CAL_GATHERS = 3
CAL_SMALL_CALLS = 400
_RNG = np.random.default_rng(0)
_VALUES = _RNG.integers(0, 1 << 20, 1 << 16)
_INDEX = _RNG.integers(0, 1 << 16, 1 << 16)
_GATHERED = np.empty_like(_VALUES)
_SCRATCH = np.empty_like(_VALUES)
_SMALL = _VALUES[:64]


def _loop() -> float:
    began = time.thread_time()
    table: dict = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i * 7 % 13
    for _ in range(CAL_GATHERS):
        # into preallocated arrays: a large temporary would make the
        # loop's time depend on the allocator's state in this process
        np.take(_VALUES, _INDEX, out=_GATHERED)
        np.add(_GATHERED, 1, out=_GATHERED)
        _SCRATCH[_INDEX] = _GATHERED
    for _ in range(CAL_SMALL_CALLS):
        bumped = _SMALL + 1
        int(bumped[bumped > 3].sum())
    return time.thread_time() - began


def calibrate(loops: int = 1) -> float:
    """Thread CPU seconds of the calibration loop (median of ``loops``)."""
    return statistics.median(_loop() for _ in range(loops))


def at_reference(seconds: float, loop_seconds: float) -> float:
    """``seconds`` of host time, taken while the loop took
    ``loop_seconds``, expressed at the reference speed."""
    return seconds * CAL_REF_S / loop_seconds


class StepTimer:
    """Host seconds of consecutive steps, each at the reference speed.

    Calibration loops run when the timer starts and after every step;
    a step is corrected by the mean of the loops before and after it.
    """

    def __init__(self, loops: int) -> None:
        self.loops = loops
        #: Sum of the steps so far, at the reference speed.
        self.seconds = 0.0
        self._loop = calibrate(loops)
        self._began = time.perf_counter()

    def step(self) -> Tuple[float, float]:
        """End a step; returns its wall seconds and reference seconds."""
        wall = time.perf_counter() - self._began
        loop = calibrate(self.loops)
        seconds = at_reference(wall, (self._loop + loop) / 2)
        self.seconds += seconds
        self._loop = loop
        self._began = time.perf_counter()
        return wall, seconds

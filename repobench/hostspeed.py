"""Host speed, sampled while the benchmark runs, and times scaled by it.

On a shared virtual machine the same single-threaded job runs up to ~1.7x
faster or slower from one stretch of seconds to the next, with CPU time
equal to wall time: the host changes the guest's speed, not the scheduler.
A median over one run cannot remove that, because a slow stretch can cover
the whole run.

:class:`HostSpeed` times a fixed reference kernel from a ``SIGALRM`` handler
every :data:`INTERVAL_S` seconds of wall time, also in the middle of a long
job.  The kernel is the program's kind of work without the program: a walk
along a random cycle too large for the private caches, dict updates, float
arithmetic and small numpy arrays.  Its arrays hold no Python objects, so the
cyclic garbage collector never visits them and the program's collections
cost what they cost without the meter.  :meth:`HostSpeed.scaled` turns a
measured interval into seconds at the reference speed: its wall time, minus
the kernel runs inside it, times :data:`REFERENCE_KERNEL_S` over the
kernel's mean duration around it.  The kernel does not call the program, so
a faster program reads faster and a slower host does not read slower.

On a 2-vCPU Xeon guest, ti:1000 jobs run back to back for 90 s spread with
a coefficient of variation of 5.2% raw and 3.0% scaled in a calm stretch,
and of 19% raw and 5-6% scaled in a noisy one (with earlier versions of
the kernel: a walk over linked objects, and the dict and numpy part alone).
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from typing import Any, List, Optional, Tuple

import numpy as np

#: Wall time between two kernel runs.
INTERVAL_S = 0.1
#: Kernel runs are averaged over this much wall time on either side of an
#: interval, so a 2 ms lookup still sees ~10 of them.
WINDOW_S = 0.5
#: The kernel's median duration inside a run (~1.9 ms; 1.56 ms with warm
#: caches) on the 2-vCPU Xeon guest the benchmark was written on, rounded;
#: scaled times read in seconds at that speed.
REFERENCE_KERNEL_S = 0.002
#: Slots in the walked cycle (2 x 8 MB, outside the collector's view) and
#: slots walked per kernel run.
CYCLE_SLOTS = 1 << 20
WALK_STEPS = 3000

now = time.perf_counter


def _cycle() -> Tuple[array, array]:
    """Successor indices of one cycle through every slot in shuffled order, and
    a value per slot, from a fixed seed."""
    rng = np.random.default_rng(0)
    order = rng.permutation(CYCLE_SLOTS)
    successors = np.empty(CYCLE_SLOTS, dtype=np.int64)
    successors[order] = np.roll(order, -1)
    return array("q", successors.tobytes()), array("d", rng.random(CYCLE_SLOTS).tobytes())


class HostSpeed:
    """Runs the reference kernel every :data:`INTERVAL_S` while started."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        #: ``totals[i]`` is the sum of the first ``i`` durations.
        self.totals: List[float] = [0.0]
        self._successors, self._values = _cycle()
        self._slot = 0
        self._array = np.linspace(0.0, 1.0, 1024)
        self._previous: Optional[Any] = None

    def kernel(self) -> float:
        """A fixed amount of work: the same steps on every call."""
        successors, values, slot = self._successors, self._values, self._slot
        total = 0.0
        for _ in range(WALK_STEPS):
            total += values[slot]
            slot = successors[slot]
        self._slot = slot
        table: dict = {}
        for index in range(600):
            key = index & 31
            table[key] = table.get(key, 0.0) + index * 0.5
            total += (index % 7) * 1.5
        values = self._array
        for _ in range(16):
            values = np.sqrt(values * 1.0001 + 1.0)
        return total + float(values[0])

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum: int, frame: object) -> None:
        began = now()
        self.kernel()
        duration = now() - began
        self.starts.append(began)
        self.durations.append(duration)
        self.totals.append(self.totals[-1] + duration)

    def _sum(self, start: float, end: float) -> Tuple[float, int]:
        """Total duration and number of the kernel runs begun in ``[start, end)``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return self.totals[last] - self.totals[first], last - first

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end)`` would take at the reference speed."""
        inside, _ = self._sum(start, end)
        around, runs = self._sum(start - WINDOW_S, end + WINDOW_S)
        if runs == 0:
            raise RuntimeError("no host-speed sample near a timed interval")
        return (end - start - inside) * REFERENCE_KERNEL_S * runs / around

    def median_kernel_s(self) -> float:
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2] if ordered else 0.0

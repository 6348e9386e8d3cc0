"""Host-speed reference: puts wall times measured in slow host phases on one scale.

On the reference host (a 2-vCPU microVM on shared hardware) the speed of
the same code moves by up to 2x within seconds: a fixed loop ran 4.1 ms
in fast phases and 7.6 ms in slow ones, and a joint live-session step
0.45 ms against 0.99 ms, both in step.  Medians over passes do not remove
this, because a phase can cover a whole run.

So every timed quantity is also referenced: a fixed kernel of this file
(numpy array updates plus dictionary work, like a simulator slot; none of
the program's code) is timed at the boundaries of the work, 0.1-2 s
apart, and each measured duration ``d`` is reported as
``d * NOMINAL / r``, where ``r`` averages the reference timings taken just
before and just after it.  ``NOMINAL`` is the kernel's time in the
reference host's fast phases, so values read as wall time on that host
when it runs fast.  A change in the program moves ``d`` and not ``r``.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Seconds the reference kernel takes on the reference host when it runs fast.
NOMINAL = 0.0042
#: Kernel runs per reference timing (the median is kept).
REPEATS = 5


def kernel() -> float:
    """A fixed mix of small numpy updates and dictionary work."""
    ages = np.arange(640, dtype=float).reshape(32, 20) % 9.0 + 1.0
    table = {}
    total = 0.0
    for step in range(400):
        advanced = np.minimum(ages + 1.0, 9.0)
        total += float(np.sum(advanced / ages))
        for j in range(20):
            table[(step * 7 + j) % 101] = table.get(j, 0.0) + total
        ages = np.where(advanced > 5.0, 1.0, advanced)
    return total


class HostSpeed:
    """Reference timings taken along a run, and the scale they imply."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> None:
        """Time the kernel now."""
        runs = []
        for _ in range(REPEATS):
            began = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - began)
        self.stamps.append(time.perf_counter())
        self.seconds.append(statistics.median(runs))

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL / r`` for work done between *start* and *end*.

        ``r`` averages the last timing at or before *start* and the first at
        or after *end* (either alone at the ends of the run).
        """
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        picked = [
            self.seconds[index]
            for index in (before, after)
            if 0 <= index < len(self.seconds)
        ]
        return NOMINAL / statistics.mean(picked)

    def referenced(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Referenced durations of ``(start, end)`` intervals."""
        return [(end - start) * self.scale(start, end) for start, end in spans]

    def factor(self) -> float:
        """Median ``NOMINAL / r`` over the run (1.0 = the fast phase)."""
        return NOMINAL / statistics.median(self.seconds)

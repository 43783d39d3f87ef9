"""The machine's speed at a moment, from fixed probes.

The benchmark shares a few cores of a host with other work, and the host's
speed drifts for seconds to minutes at a stretch.  On the 2-core baseline
machine, the 5-second medians of a fixed loop of ``Fraction`` arithmetic
ranged over a factor of 1.7 in four minutes, and its 30-second medians had
an interquartile range of 13% of their median: more than a third of a 25%
bound, whatever the code does.  In a busy hour, ten 30-second runs of the
cli workload spread by 0.33 to 0.49 in measured seconds.

So the end-to-end times are reported in reference seconds.  A round probes
the machine between tasks, at least every ``PROBE_EVERY_S``; the probes cut
it into segments, and a segment's measured seconds count the probe's
reference time over the mean probe time at its two ends.  The in-process
workloads use ``probe``, a loop of the library's kind of arithmetic; the
cli workload and the setup time, which are mostly interpreter starts, use
the time of a bare interpreter start.  Neither probe uses the library, so a
change to the library moves reference seconds as it moves measured ones.
The run's record line keeps the measured seconds too.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Callable

# The probes' median times on the baseline machine (2-core Xeon virtual
# machine, Python 3.11.7), so that reference seconds read about as measured
# seconds there.
REFERENCE_PROBE_S = 0.010
REFERENCE_START_S = 0.070
PROBE_REPS = 3
PROBE_EVERY_S = 0.3  # a round probes at least this often between tasks


def _kernel() -> dict:
    # The library's own mix: dicts keyed by tuples holding Fractions.
    terms: dict = {}
    for i in range(2000):
        key = (i % 13, i % 7)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i, 7)
    return terms


def probe() -> float:
    """Median seconds of ``PROBE_REPS`` runs of the arithmetic probe."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Meter:
    """The probes of one round, taken between its tasks.

    ``probe`` returns seconds that read ``reference`` on the baseline
    machine.  Make the meter just before the first task, call
    ``before_task`` before each task and ``finish`` after the last.
    """

    def __init__(
        self, probe: Callable[[], float] = probe, reference: float = REFERENCE_PROBE_S
    ) -> None:
        self._probe, self._reference = probe, reference
        probe()  # the first probe in a process pays for warming up
        self.samples: list[float] = []
        self._marks: list[tuple[float, float]] = []  # start and end of each probe
        self._task_segments: list[int] = []
        self._take()

    def _take(self) -> None:
        start = time.perf_counter()
        self.samples.append(self._probe())
        self._marks.append((start, time.perf_counter()))

    def before_task(self) -> None:
        """Probe if the last probe is ``PROBE_EVERY_S`` old."""
        if time.perf_counter() - self._marks[-1][1] >= PROBE_EVERY_S:
            self._take()
        self._task_segments.append(len(self.samples) - 1)

    def factors(self) -> list[float]:
        """Reference seconds per measured second, for each segment."""
        return [2 * self._reference / (a + b) for a, b in zip(self.samples, self.samples[1:])]

    def seconds(self) -> list[float]:
        """Measured seconds of each segment, without its probes."""
        return [b[0] - a[1] for a, b in zip(self._marks, self._marks[1:])]

    def finish(self) -> dict:
        """Probe a last time; return the loop's time in measured and in
        reference seconds, and each task's factor."""
        self._take()
        factors, seconds = self.factors(), self.seconds()
        return {
            "wall_s": sum(seconds),
            "ref_wall_s": sum(t * f for t, f in zip(seconds, factors)),
            "task_factors": [factors[j] for j in self._task_segments],
        }

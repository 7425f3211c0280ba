"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes (on the 2-core host where the benchmark was defined,
the probe below took from 0.2 ms to 0.4 ms within five seconds, and one
``check-cwl --complete 5 --t 3`` pass from 6 s to 11 s within an hour),
and the drift moves every timing with it.
``Pace`` measures that speed while the workload runs: a profiling timer
(``SIGPROF``, every ``INTERVAL_S`` of this process's CPU time) interrupts
the workload between two bytecodes and times a fixed probe, a small GF(2)
Betti computation by the harness's own reference code, which runs the same
kind of interpreter work as the measured code.  ``SIGPROF`` leaves
``SIGALRM`` to the program, whose sweep uses it for row budgets.

A timed interval is reported in *nominal seconds*: the interval's own time
minus the probes that ran inside it, times the mean of ``NOMINAL_PROBE_S``
over the probe's time at each tick inside it (the nearest tick when none
is).  That is the time the interval would take on a machine where the
probe takes ``NOMINAL_PROBE_S``, which is close to this host's fast phases.
The speed moves within a second, so each interval takes its own ticks: the
ratio of an item's times in two passes of one process had an interquartile
range of 0.3 when scaled by the mean of its pass, and of 0.12 when scaled
by its own ticks.  The probe calls no ``coverideals`` code, so a change to
the program moves the nominal time and a change of machine speed does not.
The tracking is not exact: the probe and the program slow down by slightly
different factors, which leaves a few percent of spread.
"""

from __future__ import annotations

import bisect
import signal
import time

from workloads import reference_betti_f2

NOMINAL_PROBE_S = 0.2e-3
INTERVAL_S = 0.02
# the edge ideal of a 4-cycle with one chord
PROBE_IDEAL = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0)]


def probe() -> None:
    reference_betti_f2(PROBE_IDEAL)


class Pace:
    """Probe ticks of one run: ``start`` installs the timer, ``stop``
    removes it, and ``nominal`` converts a timed interval."""

    def __init__(self):
        self.at: list[float] = []  # tick start times, increasing
        self.probe_s: list[float] = []  # the probe's own time
        self.cost_s: list[float] = []  # the whole handler, probe included
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        enter = time.perf_counter()
        probe()
        done = time.perf_counter()
        self.at.append(enter)
        self.probe_s.append(done - enter)
        self.cost_s.append(time.perf_counter() - enter)

    def start(self) -> None:
        for _ in range(3):  # warm the probe before its first timed tick
            probe()
        self._tick(None, None)  # so that every interval has a nearest tick
        self._old_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._old_handler is None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler)
        self._old_handler = None

    def _ticks(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end))

    def busy(self, start: float, end: float) -> float:
        """Seconds of [start, end) not spent in probe ticks."""
        return end - start - sum(self.cost_s[k] for k in self._ticks(start, end))

    def scale(self, start: float, end: float) -> float:
        """Nominal seconds per second over [start, end): the mean of
        NOMINAL_PROBE_S / probe time over the ticks in it, or the tick
        nearest to it when the interval is too short to hold one."""
        ticks = self._ticks(start, end)
        if not ticks:
            k = min(ticks.start, len(self.at) - 1)
            if k > 0 and start - self.at[k - 1] < self.at[k] - end:
                k -= 1
            ticks = range(k, k + 1)
        return sum(NOMINAL_PROBE_S / self.probe_s[k] for k in ticks) / len(ticks)

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of [start, end)."""
        return self.busy(start, end) * self.scale(start, end)

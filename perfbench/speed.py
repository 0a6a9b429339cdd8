"""Host speed probe, and timings scaled to a reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes in
phases that last from seconds to minutes: a fixed pure-Python loop takes
anywhere between 0.6 and 1.1 times its usual time, and a phase can cover a
whole run.  No summary of raw timings over one run removes that, so every
reported time is scaled to a reference speed:

    scaled = raw * REF_PROBE_S / probe

where probe is the time of the loop below measured next to the timed work.
The loop is a modular multiply-add on 634-bit integers, the kind of
arithmetic hexatile's determinants spend their time in, but it runs no
hexatile code, so it moves with the host and not with the program.  Over
150 s of a noisy phase, with work timed between probes, the spread (IQR over
median) of 2-s windows of hexatile calls fell from 0.31-0.39 raw to
0.04 scaled; a small-int loop as the probe only got it to 0.10-0.16.  Raw
times are kept in the run's meta line.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_ITERS = 8_000
_PROBE_X = 3 ** 400
# The probe's time at the reference speed: a host on which the loop below
# takes 2 ms (a 2-vCPU x86-64 VM with CPython 3.11, in a typical phase).
REF_PROBE_S = 0.002


def probe() -> tuple:
    """(start, end) of one run of the fixed loop, in perf_counter seconds."""
    x, m = _PROBE_X, _PROBE_X + 7
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, PROBE_ITERS + 1):
        acc = (acc + x * i) % m
    return t0, time.perf_counter()


class Timeline:
    """Probes taken every PROBE_EVERY_S of a pass, also in the middle of a call.

    start() takes a probe and arms a one-shot SIGALRM timer; its handler runs
    in the main thread between two bytecodes of whatever is running, takes a
    probe and re-arms the timer, so no probe ever overlaps another or runs
    next to the work.  Work between two consecutive probes is scaled by the
    mean of the two.  Probe time is never counted as work: a call that a
    probe interrupted is timed without it.
    """

    def __init__(self, every: float):
        self.every = every
        self.starts: list = []
        self.ends: list = []
        self.active = False

    def probe(self) -> None:
        s, e = probe()
        self.starts.append(s)
        self.ends.append(e)

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self.probe()
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def start(self) -> None:
        self.probe()
        self.active = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every)

    def stop(self) -> None:
        # the handler stays installed: a signal already raised finds it inactive
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()

    def _factor(self, k: int) -> float:
        mean = ((self.ends[k] - self.starts[k]) + (self.ends[k + 1] - self.starts[k + 1])) / 2
        return REF_PROBE_S / mean

    def work(self, a: float, b: float) -> tuple:
        """(raw, scaled) seconds of work in [a, b], probes left out."""
        raw = scaled = 0.0
        k = max(0, bisect.bisect_right(self.ends, a) - 1)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                raw += hi - lo
                scaled += (hi - lo) * self._factor(k)
            k += 1
        return raw, scaled

    def wall(self) -> tuple:
        """(raw, scaled) seconds of work from the first probe to the last."""
        return self.work(self.ends[0], self.starts[-1])

    def probe_ms(self) -> list:
        return [(e - s) * 1e3 for s, e in zip(self.starts, self.ends)]

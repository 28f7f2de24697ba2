"""Timing in reference seconds: CPU time scaled by a host-speed probe.

The benchmark runs on shared hosts whose speed for the same code drifts
by up to 1.7 times over seconds to minutes, so raw times of two runs of
the same commit differ by more than any useful regression bound.
`SpeedClock.measure` removes that drift from a timed call:

- it times the call in CPU time (`time.thread_time`), so the time the
  process waits for a CPU does not count;
- while the call runs, a SIGPROF timer fires every INTERVAL_S of CPU
  time and runs `probe_work`, a fixed pure-Python loop of the kind the
  library spends its time in (tuples, sorting, dict look-ups, sign
  products); three probes also run just before and just after the call;
- the call's CPU time, without the probes, is scaled by PROBE_REF_S over
  the probes' mean CPU time.

The result is the time the call would have taken on a host where the
probe takes PROBE_REF_S. A change to the program moves it as it moves
CPU time; the host's speed of the moment cancels out, because the probe
runs on the same core, interleaved with the call. The probes cost about
2% of the timed CPU.
"""

from __future__ import annotations

import itertools
import signal
import time

PROBE_REF_S = 0.001  # the probe's CPU time on an unloaded 2-vCPU Xeon guest
INTERVAL_S = 0.05
BRACKET = 3

_SIGNS = {c: (-1) ** sum(c) for c in itertools.combinations(range(9), 3)}


def probe_work() -> int:
    """A fixed amount of pure-Python work; the result only keeps it live."""
    signs = _SIGNS
    odd = 0
    for x in range(3):
        rest = [e for e in range(9) if e != x]
        for a, b, c, d in itertools.combinations(rest, 4):
            t1 = signs[tuple(sorted((a, b, x)))] * signs[tuple(sorted((c, d, x)))]
            t2 = signs[tuple(sorted((a, c, x)))] * signs[tuple(sorted((b, d, x)))]
            terms = (t1, -t2)
            odd += any(t > 0 for t in terms) != any(t < 0 for t in terms)
    return odd


class SpeedClock:
    def __init__(self, wrap=lambda fn: fn):
        """`wrap` may wrap each probe, for instance in a tracing span."""
        self.probes: list[float] = []
        self._busy = False
        self._timed_probe = wrap(self._timed_probe)

    def _timed_probe(self) -> None:
        start = time.thread_time()
        probe_work()
        self.probes.append(time.thread_time() - start)

    def _probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        self._timed_probe()
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        self._probe()

    def measure(self, fn):
        """Run fn(); return (result, reference seconds, wall seconds).

        Wall seconds exclude the probes and are reported for reference
        only.
        """
        self.probes = []
        for _ in range(BRACKET):
            self._probe()
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            result = fn()
        finally:
            cpu = time.thread_time() - cpu
            wall = time.perf_counter() - wall
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        inner = sum(self.probes[BRACKET:])
        for _ in range(BRACKET):
            self._probe()
        mean_probe = sum(self.probes) / len(self.probes)
        return result, (cpu - inner) * PROBE_REF_S / mean_probe, wall - inner

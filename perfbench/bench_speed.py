"""CPU time at a nominal machine speed, for timing on a shared host.

On a virtual machine whose host is shared, the same work takes a varying
amount of CPU time: the speed the guest sees changes within a second.  While
an operation runs, a SIGPROF timer interrupts it every INTERVAL_S of process
CPU time and times a fixed probe loop.  Python runs the handler only between
bytecodes, so a long numpy call delays the probe and merges the ticks it
spans; each probe is therefore weighted by the CPU time since the one before.
The weighted mean probe time is the operation's mean slowness, so its CPU
time, less the probes, times NOMINAL_PROBE_S over that mean is the CPU time
it would take at the nominal speed.

This module imports only the standard library, so that it can run before
numpy and fksim are imported (the set-up probe uses it too).
"""

import signal
import time

INTERVAL_S = 0.02
PROBE_STEPS = 1000
NOMINAL_PROBE_S = 4.0e-4   # median probe time on the reference machine


def _probe():
    table, x = {}, 0.0
    for i in range(PROBE_STEPS):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0.0) + x
        x = 0.5 * x + (i & 3)


class SpeedSampler:
    """Context manager: ``nominal_s`` is the CPU time spent inside it at the
    nominal speed, probes excluded; ``cpu_s`` is the raw CPU time."""

    def __init__(self):
        self.probe_s = 0.0     # CPU time spent in probes
        self.weighted = 0.0    # sum of probe time x CPU time it stands for
        self.weight = 0.0
        self.cpu_s = 0.0
        self._last = 0.0

    def _handler(self, signum, frame):
        now = time.process_time()
        start = time.thread_time()
        _probe()
        probe = time.thread_time() - start
        self.probe_s += probe
        self.weighted += probe * (now - self._last)
        self.weight += now - self._last
        self._last = now + probe

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        self._start = self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s = time.process_time() - self._start
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def nominal(self, cpu_s):
        """``cpu_s`` (which holds the probes) at the nominal speed."""
        work = cpu_s - self.probe_s
        if not self.weight:
            return work
        return work * NOMINAL_PROBE_S * self.weight / self.weighted

    @property
    def nominal_s(self):
        return self.nominal(self.cpu_s)

"""The speed sampler: its scaling formula, and that it leaves no timer or
handler behind."""

import signal
import time

import pytest

import bench_speed


def test_nominal_scales_by_weighted_probe_time():
    s = bench_speed.SpeedSampler()
    assert s.nominal(1.0) == 1.0          # no probes: raw CPU time
    # Probes took 0.1 s in all, at twice the nominal probe time on average.
    s.probe_s, s.weight = 0.1, 1.0
    s.weighted = 2 * bench_speed.NOMINAL_PROBE_S * s.weight
    assert s.nominal(1.1) == pytest.approx(0.5)


def test_sampler_probes_busy_code_and_cleans_up():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGPROF, previous)
    try:
        with bench_speed.SpeedSampler() as s:
            end = time.process_time() + 0.3
            while time.process_time() < end:
                pass
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGPROF, old)
    assert s.weight > 0.2 and s.probe_s > 0
    assert 0 < s.nominal_s < 10 * s.cpu_s

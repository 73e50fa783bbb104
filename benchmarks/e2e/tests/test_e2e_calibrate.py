"""The calibration probe: one child process per CPU sampling the host's speed."""

import os
import time

from benchmarks.e2e import calibrate


def test_probe_samples_every_cpu_while_the_workload_runs_and_stops_with_it(tmp_path):
    with calibrate.Probe(tmp_path) as probe:
        start = time.monotonic()
        time.sleep(0.6)
        end = time.monotonic()
        assert 0.1 < probe.speed(start, end) < 20.0
        samples = probe.samples()
        assert len(samples) == len(os.sched_getaffinity(0))
        for per_cpu in samples:
            assert len([t for t, _ in per_cpu if start <= t <= end]) >= 3
        # An interval too short for any sample is judged over the samples
        # before it, not by waiting for more.
        began = time.monotonic()
        assert probe.speed(end, end) > 0
        assert time.monotonic() - began < calibrate.MIN_WINDOW_S / 2
    assert all(p.returncode is not None for p in probe.procs)

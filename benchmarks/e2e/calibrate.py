"""Machine-speed calibration, so CPU-bound timings compare across runs.

The benchmark shares its host with other tenants, and the host's speed
drifts between runs and within them.  Over ten runs of one workload, the
same instrumented Table V pass took from 7.4 s to 16.3 s, while its
ratio to the uninstrumented pass run next to it (``slowdown``) stayed
within a few percent.  So every end-to-end time is reported scaled to a
reference speed.

A :class:`Probe` runs one sampler process per CPU the benchmark may use,
each pinned to its CPU.  Every :data:`PROBE_EVERY_S` a sampler times a
short fixed pure-Python kernel.  The host's speed over an interval is
the mean kernel time of every sampler in it over :data:`REFERENCE_S`,
and a time is divided by it.  The mean, because a burst of contention
slows the measured work for as long as it lasts, and the samples are
spread evenly over that time.  One sampler per CPU, because the two
CPUs of a small virtual machine slow down independently over seconds:
their one-second speeds hardly correlate, and a process may run on
either.  An interval shorter than :data:`MIN_WINDOW_S` is judged over
that much time around its middle, because a few samples say more about
the sampler than about the host.  The kernel lives here, not in
:mod:`repro`, so no change to the system under test moves it.

``python calibrate.py FILE CPU`` is one sampler: pinned to ``CPU``, it
appends ``<time> <kernel seconds>`` lines to ``FILE`` until its parent
exits or it is terminated.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Median kernel time on the host the benchmark was defined on (Intel
#: Xeon, 2 vCPUs, Python 3.11).  Any constant would do: it only fixes
#: the scale the normalized numbers are read on.
REFERENCE_S = 0.0022
KERNEL_SIZE = 5_000
#: One ~2 ms sample every 0.1 s keeps each sampler to about 2% of its CPU.
PROBE_EVERY_S = 0.1
MIN_WINDOW_S = 4.0


def _kernel(n: int) -> int:
    table: dict[int, int] = {}
    items = []
    for i in range(n):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort()
    return len(items) + sum(table.values())


def sample() -> float:
    """One kernel run, in seconds."""
    began = time.perf_counter()
    _kernel(KERNEL_SIZE)
    return time.perf_counter() - began


class Probe:
    """The kernel, sampled on every CPU while a workload runs."""

    def __init__(self, directory: Path):
        self.paths = []
        self.procs = []
        for cpu in sorted(os.sched_getaffinity(0)):
            path = directory / f"probe-{cpu}.txt"
            path.touch()
            self.paths.append(path)
            self.procs.append(subprocess.Popen([sys.executable, __file__, str(path), str(cpu)]))

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            proc.wait()

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def samples(self) -> list[list[tuple[float, float]]]:
        """Per sampler, ``(CLOCK_MONOTONIC time, kernel seconds)`` so far."""
        out = []
        for path in self.paths:
            lines = path.read_text().split("\n")[:-1]  # the last may be half written
            out.append([(float(t), float(s)) for t, s in (line.split() for line in lines)])
        return out

    def speed(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over
        ``[start, end]``: above 1 when slower.  Waits for every sampler
        to sample past ``end``; a window widened past the latest sample
        is moved back instead."""
        deadline = time.monotonic() + 10 * PROBE_EVERY_S + 5.0
        while True:
            samples = self.samples()
            if all(per_cpu and per_cpu[-1][0] >= end for per_cpu in samples):
                break
            if any(p.poll() is not None for p in self.procs) or time.monotonic() > deadline:
                raise RuntimeError("the calibration probe stopped sampling")
            time.sleep(PROBE_EVERY_S / 2)
        width = max(end - start, MIN_WINDOW_S)
        high = min(max(end, (start + end + width) / 2), min(s[-1][0] for s in samples))
        low = min(start, high - width)
        inside = [s for per_cpu in samples for t, s in per_cpu if low <= t <= high]
        return statistics.mean(inside) / REFERENCE_S


def _probe(path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(path, "a", encoding="utf-8") as out:
        while os.getppid() == parent:
            began = time.monotonic()
            seconds = sample()
            out.write(f"{began + seconds / 2!r} {seconds!r}\n")
            out.flush()
            time.sleep(PROBE_EVERY_S)


if __name__ == "__main__":
    _probe(sys.argv[1], int(sys.argv[2]))

"""Ablations beyond the paper: thresholds, machine model, channels.

The paper tuned its thresholds on 23 programs and fixed one machine;
these benches sweep both to show (a) the published thresholds sit on a
stable plateau of the detection response, and (b) the speedup
conclusions are robust across the machine-model parameters.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.events import (
    AccessKind,
    BatchingChannel,
    EventCollector,
    OperationKind,
    StructureKind,
    SynchronousChannel,
    collecting,
)
from repro.parallel import MachineConfig, SimulatedMachine
from repro.usecases import Thresholds, UseCaseEngine
from repro.usecases.rules import PARALLEL_RULES
from repro.workloads import GPdotNET, Mandelbrot

from .conftest import save_result

SCALE = 0.2


def _profiles_for(workload, scale=SCALE):
    with collecting() as session:
        workload.run_tracked(scale=scale)
    return session.profiles()


@pytest.fixture(scope="module")
def gpdotnet_profiles():
    return _profiles_for(GPdotNET())


class TestThresholdAblation:
    def test_li_phase_threshold_sweep(self, benchmark, gpdotnet_profiles, results_dir):
        """Use-case count vs the Long-Insert phase threshold.

        GPdotNET's insert phases are either ~110 events (selection) or
        >=350 (population): the published threshold of 100 sits on the
        plateau below both; pushing past the phase sizes drops them.
        """

        def sweep():
            rows = []
            for phase in (10, 50, 100, 200, 500, 2000, 10_000):
                th = dataclasses.replace(Thresholds(), li_long_phase=phase)
                engine = UseCaseEngine(thresholds=th, rules=PARALLEL_RULES)
                report = engine.analyze(gpdotnet_profiles)
                li = sum(
                    1 for u in report.use_cases if u.kind.abbreviation == "LI"
                )
                rows.append((phase, li, len(report.use_cases)))
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        save_result(
            results_dir,
            "ablation_li_threshold.txt",
            "phase_threshold li_count total_use_cases\n"
            + "\n".join(f"{p:>8} {li:>3} {total:>3}" for p, li, total in rows),
        )
        counts = dict((p, li) for p, li, _ in rows)
        assert counts[50] == counts[100] == 2  # the plateau
        assert counts[2000] < counts[100]  # threshold bites eventually
        # Detection response is monotone non-increasing in the threshold.
        li_series = [li for _, li, _ in rows]
        assert li_series == sorted(li_series, reverse=True)

    def test_flr_pattern_threshold_sweep(self, gpdotnet_profiles, results_dir):
        rows = []
        for min_patterns in (1, 5, 10, 20, 50, 200):
            th = dataclasses.replace(Thresholds(), flr_min_patterns=min_patterns)
            engine = UseCaseEngine(thresholds=th, rules=PARALLEL_RULES)
            report = engine.analyze(gpdotnet_profiles)
            flr = sum(
                1 for u in report.use_cases if u.kind.abbreviation == "FLR"
            )
            rows.append((min_patterns, flr))
        save_result(
            results_dir,
            "ablation_flr_threshold.txt",
            "min_patterns flr_count\n"
            + "\n".join(f"{p:>8} {f:>3}" for p, f in rows),
        )
        counts = dict(rows)
        assert counts[5] == counts[10] == 3  # the published plateau
        assert counts[200] == 0
        series = [f for _, f in rows]
        assert series == sorted(series, reverse=True)

    def test_insert_fraction_threshold(self, gpdotnet_profiles):
        """The 30% runtime-share knob separates the population (33%
        inserts) from the scan-heavy structures."""
        strict = dataclasses.replace(Thresholds(), li_insert_fraction=0.45)
        engine = UseCaseEngine(thresholds=strict, rules=PARALLEL_RULES)
        report = engine.analyze(gpdotnet_profiles)
        li_labels = {
            u.profile.label
            for u in report.use_cases
            if u.kind.abbreviation == "LI"
        }
        assert "population" not in li_labels  # 33% < 45%


class TestMachineAblation:
    def test_core_count_sweep(self, benchmark, results_dir):
        """Total Mandelbrot speedup vs core count: monotone, saturating
        toward the Amdahl limit of its 9.09% sequential fraction."""
        decomposition = Mandelbrot().decomposition(scale=SCALE)

        def sweep():
            return [
                (cores, decomposition.speedup(SimulatedMachine(MachineConfig(cores=cores))))
                for cores in (1, 2, 4, 8, 16, 32, 64)
            ]

        rows = benchmark(sweep)
        save_result(
            results_dir,
            "ablation_cores.txt",
            "cores speedup\n" + "\n".join(f"{c:>4} {s:.3f}" for c, s in rows),
        )
        speedups = [s for _, s in rows]
        assert speedups == sorted(speedups)
        assert speedups[0] == pytest.approx(1.0, abs=0.01)
        limit = 1 / decomposition.sequential_fraction
        assert speedups[-1] < limit

    def test_overhead_sweep(self, results_dir):
        """Fork/join overhead decides where parallelization stops
        paying: small regions flip from winner to loser as it grows."""
        small_work, big_work = 500.0, 500_000.0
        rows = []
        for overhead in (0, 50, 200, 1000, 5000, 50_000):
            machine = SimulatedMachine(
                MachineConfig(cores=8, fork_join_overhead=overhead)
            )
            rows.append(
                (
                    overhead,
                    machine.data_parallel_speedup(small_work),
                    machine.data_parallel_speedup(big_work),
                )
            )
        save_result(
            results_dir,
            "ablation_overhead.txt",
            "overhead small(500) big(500k)\n"
            + "\n".join(f"{o:>7} {s:>10.3f} {b:>10.3f}" for o, s, b in rows),
        )
        by_overhead = {o: (s, b) for o, s, b in rows}
        assert by_overhead[0][0] > 1.0  # free forks: small region pays
        assert by_overhead[5000][0] < 1.0  # expensive forks: it doesn't
        assert by_overhead[5000][1] > 4.0  # big region still pays


class TestChannelAblation:
    def _drive(self, channel_factory, n=20_000) -> float:
        collector = EventCollector(channel=channel_factory())
        iid = collector.register_instance(StructureKind.LIST)
        start = time.perf_counter()
        for i in range(n):
            collector.record(iid, OperationKind.INSERT, AccessKind.WRITE, i, i + 1)
        elapsed = time.perf_counter() - start
        assert len(collector.finish()[iid]) == n
        return elapsed

    def test_sync_vs_batching_recording(self, benchmark, results_dir):
        """The paper argues for asynchronous collection to decouple the
        producer; the batching channel's drainer thread is that
        decoupling.  Both must deliver every event."""
        sync = self._drive(SynchronousChannel)
        batching = benchmark.pedantic(
            lambda: self._drive(BatchingChannel), rounds=1, iterations=1
        )
        save_result(
            results_dir,
            "ablation_channel.txt",
            f"sync record {sync * 1e3:.1f} ms; batching record "
            f"{batching * 1e3:.1f} ms for 20k events",
        )
        assert sync > 0 and batching > 0


class TestContentionAblation:
    def test_contention_closes_the_speedup_gap(self, benchmark, results_dir):
        """DESIGN.md's missing ingredient, quantified: sweeping memory
        intensity moves the evaluation workloads' simulated total
        speedups from their Amdahl-ish ceilings down into the paper's
        measured 1.2-3.0 band (the AMD FX's shared memory interface)."""
        from repro.parallel import (
            ContendedMachine,
            ContentionConfig,
            MachineConfig,
        )
        from repro.workloads import EVALUATION_WORKLOADS

        def sweep():
            rows = []
            for intensity in (0.0, 0.2, 0.45, 0.7):
                machine = ContendedMachine(
                    ContentionConfig(
                        machine=MachineConfig(cores=8),
                        memory_intensity=intensity,
                        memory_lanes=2,
                    )
                )
                speedups = {
                    w.name: w.decomposition(scale=0.3).speedup(machine)
                    for w in EVALUATION_WORKLOADS
                }
                rows.append((intensity, speedups))
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        lines = ["intensity " + " ".join(f"{w.name[:9]:>10}" for w in EVALUATION_WORKLOADS)]
        for intensity, speedups in rows:
            lines.append(
                f"{intensity:>9.2f} "
                + " ".join(f"{s:>10.2f}" for s in speedups.values())
            )
        save_result(results_dir, "ablation_contention.txt", "\n".join(lines))

        paper = {w.name: w.paper.speedup for w in EVALUATION_WORKLOADS}
        by_intensity = dict(rows)

        def mean_error(speedups):
            return sum(
                abs(speedups[name] - paper[name]) for name in paper
            ) / len(paper)

        assert mean_error(by_intensity[0.45]) < mean_error(by_intensity[0.0])
        # At the tuned point, every workload sits in the paper's band.
        for name, speedup in by_intensity[0.45].items():
            assert 1.0 <= speedup <= 3.5, (name, speedup)

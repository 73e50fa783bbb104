"""Profiles store raw records; ``AccessEvent`` is an on-demand view.

Every check compares a profile against a kept reference: one
``materialize(seq, raw)`` per channel tuple, grouped by instance -- the
event-object assembly the collector used to perform eagerly.  The views
(``events``, iteration, indexing, numpy arrays), mid-session assembly,
wall-time capture, the sampled analysis path, merging, splitting,
slicing and the JSONL archive must all agree with it, on the seven
Table V workloads and on seeded synthetic traces.  A guard test checks
that the default ``dsspy analyze`` path builds no ``AccessEvent`` at
all.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.events import collecting
from repro.events.collector import EventCollector
from repro.events.event import AccessEvent, materialize
from repro.events.merge import merge_profiles
from repro.events.profile import NO_POSITION, RuntimeProfile
from repro.events.sampling import Burst, Decimate
from repro.events.serialize import dump_profiles, load_profiles, save_profiles
from repro.parallel.machine import MachineConfig, SimulatedMachine
from repro.testing.traces import generate_trace
from repro.usecases import UseCaseEngine, format_summary, format_table_v
from repro.usecases.engine import evaluate_rules
from repro.usecases.features import InstanceFold
from repro.whatif import annotate_report, rank_report, workspans_from_profiles
from repro.workloads import EVALUATION_WORKLOADS

from .reference_analysis import reference_feed

SCALE = 0.25
SEEDS = range(12)


# -- the reference: event-object assembly -------------------------------------


def reference_assembly(collector: EventCollector) -> dict[int, list[AccessEvent]]:
    """Instance id -> materialized events, from the channel's raw tuples."""
    streams: dict[int, list[AccessEvent]] = {i: [] for i in collector.finish()}
    for seq, raw in enumerate(collector.channel.snapshot()):
        if raw[0] in streams:
            streams[raw[0]].append(materialize(seq, raw))
    return streams


def reference_arrays(events: list[AccessEvent]) -> dict[str, np.ndarray]:
    return {
        "seqs": np.array([e.seq for e in events], dtype=np.int64),
        "ops": np.array([int(e.op) for e in events], dtype=np.int8),
        "kinds": np.array([int(e.kind) for e in events], dtype=np.int8),
        "positions": np.array(
            [NO_POSITION if e.position is None else e.position for e in events],
            dtype=np.int64,
        ),
        "sizes": np.array([e.size for e in events], dtype=np.int64),
        "threads": np.array([e.thread_id for e in events], dtype=np.int64),
    }


def reference_features(profile: RuntimeProfile, events: list[AccessEvent], config):
    """The fold fed from ``AccessEvent`` attributes."""
    fold = InstanceFold(
        profile.instance_id, profile.kind, profile.site, profile.label, config.max_gap
    )
    for e in events:
        reference_feed(fold, e.op, e.kind, e.position, e.size, e.thread_id)
    return fold.features(config)


def reference_dump(profiles: list[RuntimeProfile], streams) -> str:
    """The JSONL archive written from event objects."""
    out = io.StringIO()
    for profile in profiles:
        header = {
            "type": "profile",
            "version": 1,
            "instance_id": profile.instance_id,
            "kind": profile.kind.value,
            "label": profile.label,
            "events": len(streams[profile.instance_id]),
        }
        if profile.site is not None:
            header["site"] = {
                "filename": profile.site.filename,
                "lineno": profile.site.lineno,
                "function": profile.site.function,
                "variable": profile.site.variable,
            }
        out.write(json.dumps(header) + "\n")
        for e in streams[profile.instance_id]:
            record = [e.seq, int(e.op), int(e.kind), e.position, e.size, e.thread_id]
            out.write(json.dumps(record) + "\n")
    return out.getvalue()


def assert_matches(profile: RuntimeProfile, expected: list[AccessEvent]) -> None:
    """Every view of ``profile`` equals the reference event list."""
    assert len(profile) == len(expected)
    assert list(profile.events) == expected
    assert [e.wall_time for e in profile.events] == [e.wall_time for e in expected]
    assert list(profile) == expected
    assert [materialize(seq, raw) for seq, raw in profile.records()] == expected
    assert list(profile.raws) == [raw for _, raw in profile.records()]
    for i in range(len(expected)):
        assert profile[i] == expected[i]
    if expected:
        assert profile[-1] == expected[-1]
        assert profile[1:4] == expected[1:4]
    for name, array in reference_arrays(expected).items():
        view = getattr(profile, name)
        assert view.dtype == array.dtype, name
        assert np.array_equal(view, array), name


# -- captures ------------------------------------------------------------------


def capture_workload(workload, **kwargs) -> EventCollector:
    with collecting(**kwargs) as collector:
        workload.run_tracked(scale=SCALE)
    return collector


def capture_trace(seed: int, assemble_at: int | None = None) -> EventCollector:
    """Post a seeded trace's tuples through a collector, optionally
    assembling (and touching every cached view) mid-stream."""
    trace = generate_trace(seed)
    collector = EventCollector()
    ids = {
        inst.instance_id: collector.register_instance(inst.kind, label=inst.label)
        for inst in trace.instances
    }
    post = collector.channel.post
    for index, raw in enumerate(trace.events):
        if index == assemble_at:
            for profile in collector.assemble().values():
                profile.events
                profile.positions
        post((ids[raw[0]], *raw[1:]))
    collector.finish()
    return collector


@pytest.fixture(scope="module")
def workload_captures():
    return {w.name: capture_workload(w) for w in EVALUATION_WORKLOADS}


WORKLOAD_NAMES = [w.name for w in EVALUATION_WORKLOADS]


# -- views ---------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_table_v_views_match_reference(workload_captures, name):
    collector = workload_captures[name]
    streams = reference_assembly(collector)
    assert sum(map(len, streams.values())) == len(collector.channel.snapshot())
    for profile in collector.profiles():
        assert_matches(profile, streams[profile.instance_id])


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_trace_views_match_reference(seed):
    collector = capture_trace(seed)
    streams = reference_assembly(collector)
    for profile in collector.profiles():
        assert_matches(profile, streams[profile.instance_id])


def test_event_views_are_cached_until_the_next_append():
    collector = capture_trace(0)
    profile = max(collector.profiles(), key=len)
    events = profile.events
    positions = profile.positions
    assert profile.events is events
    assert profile.positions is positions
    extra = materialize(10**6, (profile.instance_id, 0, 0, 0, 1, 0, None))
    profile.append(extra)
    assert profile.events is not events
    assert profile.events[-1] == extra
    assert len(profile.positions) == len(positions) + 1


# -- mid-session assembly ---------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_assemble_then_finish_equals_one_finish(seed):
    once = capture_trace(seed)
    trace_len = len(once.channel.snapshot())
    twice = capture_trace(seed, assemble_at=trace_len // 2)
    streams = reference_assembly(once)
    for a, b in zip(once.profiles(), twice.profiles()):
        assert_matches(b, streams[b.instance_id])
        assert a.events == b.events


def test_table_v_assemble_then_finish_equals_one_finish():
    first, second = EVALUATION_WORKLOADS[0], EVALUATION_WORKLOADS[1]
    with collecting() as split:
        first.run_tracked(scale=SCALE)
        for profile in split.assemble().values():
            profile.events
            profile.sizes
        second.run_tracked(scale=SCALE)
    with collecting() as whole:
        first.run_tracked(scale=SCALE)
        second.run_tracked(scale=SCALE)
    streams = reference_assembly(split)
    assert [len(p) for p in split.profiles()] == [len(p) for p in whole.profiles()]
    for a, b in zip(whole.profiles(), split.profiles()):
        assert_matches(b, streams[b.instance_id])
        assert a.events == b.events


# -- wall time -------------------------------------------------------------------


def test_wall_time_survives_as_recorded():
    collector = capture_workload(EVALUATION_WORKLOADS[0], capture_wall_time=True)
    streams = reference_assembly(collector)
    walls = [e.wall_time for p in collector.profiles() for e in p.events]
    assert walls and all(isinstance(w, float) for w in walls)
    for profile in collector.profiles():
        assert_matches(profile, streams[profile.instance_id])


# -- the sampled analysis path -----------------------------------------------------


@pytest.mark.parametrize(
    "policy",
    [lambda: Burst(keep=200, n=8, seed=3), lambda: Decimate(8, seed=3)],
    ids=["burst", "decimate"],
)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_sampled_analysis_matches_reference(name, policy):
    workload = next(w for w in EVALUATION_WORKLOADS if w.name == name)
    collector = capture_workload(workload, sampling=policy())
    sampling = collector.sampling
    engine = UseCaseEngine()
    sampled = UseCaseEngine.for_sampling(sampling)
    streams = reference_assembly(collector)
    expected = []
    for profile in collector.profiles():
        events, used = streams[profile.instance_id], engine
        if not sampling.is_exact(profile.instance_id):
            events = events[sampling.exact_prefix(profile.instance_id) :]
            used = sampled
        features = reference_features(profile, events, used.detector.config)
        for rule, evidence in evaluate_rules(features, used.thresholds, used.rules):
            expected.append((profile.instance_id, rule.kind, evidence))
    report = engine.analyze_collector(collector)
    assert [(u.instance_id, u.kind, u.evidence) for u in report.use_cases] == expected
    assert report.instances_analyzed == len(streams)


# -- merge, split, slice -----------------------------------------------------------


def test_merge_matches_reference(workload_captures):
    groups = [
        workload_captures[WORKLOAD_NAMES[0]].profiles(),
        capture_trace(1).profiles(),
        capture_workload(EVALUATION_WORKLOADS[2], capture_wall_time=True).profiles(),
    ]
    merged = merge_profiles(groups)
    expected: list[tuple[RuntimeProfile, list[AccessEvent]]] = []
    offset = 0
    for group in groups:
        max_thread = -1
        for profile in group:
            new_id = len(expected)
            events = []
            for e in profile.events:
                max_thread = max(max_thread, e.thread_id)
                events.append(
                    AccessEvent(
                        seq=e.seq,
                        kind=e.kind,
                        op=e.op,
                        position=e.position,
                        size=e.size,
                        thread_id=e.thread_id + offset,
                        instance_id=new_id,
                        wall_time=e.wall_time,
                    )
                )
            expected.append((profile, events))
        offset += max_thread + 1
    assert len(merged) == len(expected)
    for index, (got, (source, events)) in enumerate(zip(merged, expected)):
        assert got.instance_id == index
        assert (got.kind, got.site, got.label) == (source.kind, source.site, source.label)
        assert_matches(got, events)


@pytest.mark.parametrize("seed", SEEDS)
def test_split_and_slice_match_reference(seed):
    collector = capture_trace(seed)
    streams = reference_assembly(collector)
    for profile in collector.profiles():
        events = streams[profile.instance_id]
        threads = sorted({e.thread_id for e in events})
        parts = profile.split_by_thread()
        assert sorted(parts) == threads
        for tid, part in parts.items():
            assert_matches(part, [e for e in events if e.thread_id == tid])
            assert part.label == (f"{profile.label}[t{tid}]" if profile.label else "")
        n = len(events)
        for start, stop in [(0, n), (n // 3, n), (1, n // 2), (n, n)]:
            assert_matches(profile.slice(start, stop), events[start:stop])


# -- the JSONL archive --------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_archive_is_byte_identical_to_reference(workload_captures, name, tmp_path):
    collector = workload_captures[name]
    profiles = collector.profiles()
    streams = reference_assembly(collector)
    reference = reference_dump(profiles, streams)
    path = save_profiles(profiles, tmp_path / "capture.jsonl")
    assert path.read_bytes() == reference.encode("utf-8")
    loaded = list(load_profiles(io.StringIO(reference)))
    assert [p.instance_id for p in loaded] == [p.instance_id for p in profiles]
    for original, back in zip(profiles, loaded):
        assert (back.kind, back.site, back.label) == (
            original.kind,
            original.site,
            original.label,
        )
        assert_matches(back, streams[original.instance_id])


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_archive_is_byte_identical_to_reference(seed):
    collector = capture_trace(seed)
    profiles = collector.profiles()
    out = io.StringIO()
    dump_profiles(profiles, out)
    assert out.getvalue() == reference_dump(profiles, reference_assembly(collector))


def test_archive_rejects_unknown_operation():
    header = {"type": "profile", "version": 1, "instance_id": 0, "kind": "list", "events": 1}
    text = json.dumps(header) + "\n[0, 99, 0, 0, 1, 0]\n"
    with pytest.raises(ValueError, match="bad op/kind"):
        list(load_profiles(io.StringIO(text)))


# -- guard: the default analyze path builds no AccessEvent --------------------------


@pytest.fixture
def no_access_events(monkeypatch):
    """Make ``AccessEvent`` construction raise and record each attempt
    (recorded too, in case a fail-open layer swallows the raise)."""
    built: list[tuple] = []

    def refuse(self, *args, **kwargs):
        built.append((args, kwargs))
        raise AssertionError("AccessEvent built on the analyze path")

    monkeypatch.setattr(AccessEvent, "__init__", refuse)
    return built


def test_default_analyze_calls_build_no_access_event(no_access_events):
    machine = SimulatedMachine(MachineConfig(cores=8))
    for workload in EVALUATION_WORKLOADS:
        collector = capture_workload(workload)
        profiles = collector.profiles()
        report = UseCaseEngine().analyze_collector(collector)
        spans = workspans_from_profiles(profiles)
        report = rank_report(annotate_report(report, machine, spans))
        assert format_table_v(report, title=workload.name)
        assert format_summary(report, name=workload.name)
        assert report.instances_analyzed == len(profiles)
    assert no_access_events == []


def test_dsspy_analyze_builds_no_access_event(no_access_events, tmp_path, capsys):
    program = tmp_path / "prog.py"
    program.write_text(
        "def main():\n"
        "    xs = []\n"
        "    for i in range(3000):\n"
        "        xs.append(i)\n"
        "    total = 0\n"
        "    for i in range(len(xs)):\n"
        "        total += xs[i]\n"
        "    return total\n"
    )
    archive = tmp_path / "prog.jsonl"
    assert main(["analyze", str(program), "--entry", "main", "--save", str(archive)]) == 0
    assert "Long-Insert" in capsys.readouterr().out
    assert no_access_events == []

"""The batched analysis fold against the former per-event fold.

:meth:`repro.usecases.features.InstanceFold.fold_raws` folds a batch of
raw tuples in one loop with its state in locals.
:func:`tests.reference_analysis.reference_fold_raws` is the per-event
chain it replaced (``InstanceFold.feed`` → ``LaneSummary.feed`` +
``RunSegmenter.feed``), kept verbatim.  Fed the same events, both must
leave byte-identical checkpoint JSON (``InstanceFold.to_dict``) and
equal features, patterns and work/span — whether the batched fold gets
a whole profile at once, random window splits down to single events,
or interleaved multi-instance windows through
:meth:`~repro.service.streaming.StreamingUseCaseEngine.feed_window`.
"""

import json
import random

import pytest

from repro.events import collecting
from repro.events.types import StructureKind
from repro.patterns import DetectorConfig
from repro.service.streaming import StreamingUseCaseEngine
from repro.testing.traces import generate_trace
from repro.usecases.features import InstanceFold, features_of
from repro.workloads import EVALUATION_WORKLOADS

from .reference_analysis import reference_fold_raws

CONFIGS = [
    DetectorConfig(),
    DetectorConfig(max_gap=3, min_run_length=3, keep_unclassified=False),
]


def _new_fold(instance_id, kind, config):
    return InstanceFold(instance_id, kind, None, f"#{instance_id}", config.max_gap)


def _checkpoint(fold: InstanceFold) -> str:
    return json.dumps(fold.to_dict())


def _assert_same_fold(batched: InstanceFold, reference: InstanceFold, config) -> None:
    assert _checkpoint(batched) == _checkpoint(reference)
    features = batched.features(config)
    expected = reference.features(config)
    assert features == expected
    assert features.patterns == expected.patterns
    assert features.workspan == expected.workspan


def _splits(rng: random.Random, raws: list, max_window: int) -> list[list]:
    """Random consecutive windows covering ``raws``, 1-event ones included."""
    windows = []
    start = 0
    while start < len(raws):
        width = 1 if rng.random() < 0.2 else rng.randint(1, max_window)
        windows.append(raws[start : start + width])
        start += width
    return windows


def _check_streams(streams: dict, kinds: dict, seed: int) -> None:
    rng = random.Random(seed)
    for config in CONFIGS:
        for instance_id, raws in streams.items():
            kind = kinds[instance_id]
            reference = reference_fold_raws(_new_fold(instance_id, kind, config), raws)

            whole = _new_fold(instance_id, kind, config)
            whole.fold_raws(raws)
            _assert_same_fold(whole, reference, config)

            windowed = _new_fold(instance_id, kind, config)
            for window in _splits(rng, raws, 97):
                windowed.fold_raws(window)
            _assert_same_fold(windowed, reference, config)

            single = _new_fold(instance_id, kind, config)
            for raw in raws[:500]:
                single.fold_raws([raw])
            _assert_same_fold(
                single,
                reference_fold_raws(_new_fold(instance_id, kind, config), raws[:500]),
                config,
            )


@pytest.fixture(scope="module")
def table_v_captures():
    captures = {}
    for workload in EVALUATION_WORKLOADS:
        with collecting() as collector:
            workload.run_tracked(scale=0.5)
        captures[workload.name] = collector.profiles()
    return captures


@pytest.mark.parametrize("name", [w.name for w in EVALUATION_WORKLOADS])
def test_table_v_batched_fold_equals_per_event_fold(table_v_captures, name):
    profiles = table_v_captures[name]
    streams = {p.instance_id: list(p.raws) for p in profiles}
    kinds = {p.instance_id: p.kind for p in profiles}
    _check_streams(streams, kinds, seed=len(name))


@pytest.mark.parametrize("name", [w.name for w in EVALUATION_WORKLOADS])
def test_table_v_features_of_equals_per_event_fold(table_v_captures, name):
    for profile in table_v_captures[name]:
        for config in CONFIGS:
            reference = reference_fold_raws(
                InstanceFold(
                    profile.instance_id, profile.kind, profile.site, profile.label, config.max_gap
                ),
                profile.raws,
            )
            features = features_of(profile, config)
            expected = reference.features(config)
            assert features == expected
            assert features.workspan == expected.workspan
            assert features.max_size == profile.max_size


def _trace_streams(seed: int):
    trace = generate_trace(seed)
    kinds = {inst.instance_id: inst.kind for inst in trace.instances}
    streams: dict[int, list] = {iid: [] for iid in kinds}
    for raw in trace.events:
        streams[raw[0]].append(raw)
    return trace, kinds, streams


@pytest.mark.parametrize("seed", range(40))
def test_seeded_traces_batched_fold_equals_per_event_fold(seed):
    _, kinds, streams = _trace_streams(seed)
    _check_streams(streams, kinds, seed)


@pytest.mark.parametrize("seed", range(40))
def test_streaming_windows_equal_per_event_fold(seed):
    """Interleaved multi-instance windows through ``feed_window``; unknown
    instances are dropped and counted."""
    trace, kinds, streams = _trace_streams(seed)
    rng = random.Random(1000 + seed)
    stray = (999_999, 0, 0, 0, 1, 0, None)
    for config in CONFIGS:
        engine = StreamingUseCaseEngine(detector_config=config)
        for instance_id, kind in kinds.items():
            engine.register_instance(instance_id, kind, None, f"#{instance_id}")
        events = list(trace.events)
        events.insert(rng.randrange(len(events) + 1), stray)
        for window in _splits(rng, events, 64):
            engine.feed_window(window)
        assert engine.unknown_instance_events == 1
        assert engine.events_folded == len(trace.events)
        for instance_id, kind in kinds.items():
            reference = reference_fold_raws(
                _new_fold(instance_id, kind, config), streams[instance_id]
            )
            _assert_same_fold(engine._folds[instance_id], reference, config)


def test_one_event_feed_equals_window_feed():
    trace, kinds, _ = _trace_streams(3)
    by_event = StreamingUseCaseEngine()
    by_window = StreamingUseCaseEngine()
    for engine in (by_event, by_window):
        for instance_id, kind in kinds.items():
            engine.register_instance(instance_id, kind)
    for raw in trace.events:
        by_event.feed(raw)
    by_window.feed_window(list(trace.events))
    assert {i: _checkpoint(f) for i, f in by_event._folds.items()} == {
        i: _checkpoint(f) for i, f in by_window._folds.items()
    }


def test_empty_batch_leaves_fold_untouched():
    fold = _new_fold(1, StructureKind.LIST, CONFIGS[0])
    before = _checkpoint(fold)
    fold.fold_raws([])
    assert _checkpoint(fold) == before
    assert fold.max_size == 0


def test_max_size_is_tracked_but_not_checkpointed():
    config = CONFIGS[0]
    fold = InstanceFold(0, StructureKind.LIST, None, "", config.max_gap)
    fold.fold_raws([(0, 1, 1, 0, 5, 0, None), (0, 1, 1, 1, 3, 0, None)])
    assert fold.features(config).max_size == 5
    restored = InstanceFold.from_dict(json.loads(json.dumps(fold.to_dict())), config.max_gap)
    assert "max_size" not in fold.to_dict()
    restored.fold_raws([(0, 1, 1, 2, 9, 0, None)])
    # A restored fold cannot know the sizes before the checkpoint.
    assert restored.features(config).max_size is None

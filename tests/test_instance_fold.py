"""The one analysis fold against the independent numpy reference.

:func:`repro.usecases.features.features_of` runs
:class:`~repro.usecases.features.InstanceFold` over a batch profile;
:func:`tests.reference_analysis.reference_features` computes the same
scalars with whole-profile numpy masks.  They must agree on real
workloads, on seeded synthetic traces, on fine-grained thread
interleavings, and on the end conventions of empty and one-element
structures.
"""

import random

import pytest

from repro.events import collecting
from repro.events.event import materialize
from repro.events.profile import RuntimeProfile
from repro.events.types import AccessKind, OperationKind, StructureKind
from repro.patterns import DetectorConfig, PatternType, detect
from repro.testing.traces import generate_trace
from repro.usecases.features import InstanceFold, features_of
from repro.workloads import EVALUATION_WORKLOADS

from .conftest import make_profile
from .reference_analysis import reference_features

OP = OperationKind

CONFIGS = [
    DetectorConfig(),
    DetectorConfig(max_gap=3, min_run_length=3, keep_unclassified=False),
]


def _assert_matches_reference(profile: RuntimeProfile, config: DetectorConfig):
    expected = reference_features(detect(profile, config))
    assert features_of(profile, config) == expected, repr(profile)


def _profiles_of(raws, kinds=None) -> list[RuntimeProfile]:
    """Per-instance profiles of a raw stream, kinds default to list."""
    kinds = kinds or {}
    by_id: dict[int, RuntimeProfile] = {}
    for seq, raw in enumerate(raws):
        profile = by_id.get(raw[0])
        if profile is None:
            kind = kinds.get(raw[0], StructureKind.LIST)
            profile = by_id[raw[0]] = RuntimeProfile(raw[0], kind=kind)
        profile.append(materialize(seq, raw))
    return list(by_id.values())


@pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
def test_table_v_workloads_match_reference(workload):
    with collecting() as collector:
        workload.run_tracked(scale=0.5)
    for profile in collector.profiles():
        for config in CONFIGS:
            _assert_matches_reference(profile, config)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_traces_match_reference(seed):
    trace = generate_trace(seed)
    kinds = {inst.instance_id: inst.kind for inst in trace.instances}
    for profile in _profiles_of(trace.events, kinds):
        for config in CONFIGS:
            _assert_matches_reference(profile, config)


@pytest.mark.parametrize("seed", range(25))
def test_interleaved_threads_match_reference(seed):
    """Every event on a random thread, every operation kind, sizes
    down to zero: runs of different threads overlap event by event."""
    rng = random.Random(seed)
    raws = []
    size = rng.randrange(0, 4)
    for _ in range(rng.randrange(1, 300)):
        op = rng.choice(list(OperationKind))
        kind = AccessKind.READ if op.is_read_like else AccessKind.WRITE
        if op in (OP.READ, OP.WRITE, OP.INSERT, OP.DELETE) and rng.random() < 0.9:
            step = rng.choice((-1, 0, 1, 1, 1))
            position = max(0, min(size, (raws[-1][3] or 0) + step if raws else 0))
        else:
            position = None
        if op is OP.INSERT:
            size += 1
        elif op is OP.DELETE and size:
            size -= 1
        elif op is OP.CLEAR:
            size = 0
        raws.append((7, int(op), int(kind), position, size, rng.randrange(4), None))
    (profile,) = _profiles_of(raws)
    for config in CONFIGS:
        _assert_matches_reference(profile, config)


class TestEndConventions:
    def test_one_element_counts_as_both_ends(self):
        profile = make_profile([(OP.INSERT, 0, 1), (OP.READ, 0, 1), (OP.DELETE, 0, 1)])
        features = features_of(profile, DetectorConfig())
        assert (features.insert_front, features.insert_back) == (1, 1)
        assert (features.read_front, features.read_back) == (1, 1)
        assert (features.delete_front, features.delete_back) == (1, 1)
        assert features.end_events == 3
        _assert_matches_reference(profile, DetectorConfig())

    def test_size_zero_is_a_back_for_counters_not_for_runs(self):
        # position >= size - 1 holds at size 0, so the end counters see
        # a back hit; the segmenter's targets_back excludes size 0, so
        # this stationary insert run is not an insert-back run.
        profile = make_profile([(OP.INSERT, 1, 0)] * 3)
        features = features_of(profile, DetectorConfig())
        assert features.insert_back == 3 and features.insert_front == 0
        assert features.end_events == 3
        (pattern,) = features.patterns
        assert pattern.length == 3
        assert pattern.pattern_type is PatternType.UNCLASSIFIED
        _assert_matches_reference(profile, DetectorConfig())

    def test_empty_profile(self):
        profile = RuntimeProfile(3, kind=StructureKind.QUEUE)
        features = features_of(profile, DetectorConfig())
        assert features.total_events == 0 and features.patterns == ()
        _assert_matches_reference(profile, DetectorConfig())


def test_streaming_feed_and_checkpoint_equal_batch_fold():
    """The fold fed raw fields, checkpointed half-way and restored,
    ends in the same features as :func:`features_of`."""
    trace = generate_trace(11, max_threads=3)
    config = DetectorConfig()
    for profile in _profiles_of(trace.events):
        fold = InstanceFold(profile.instance_id, profile.kind, None, "", config.max_gap)
        half = len(profile) // 2
        for index, event in enumerate(profile.events):
            if index == half:
                fold = InstanceFold.from_dict(fold.to_dict(), config.max_gap)
            fold.fold_raws([
                (profile.instance_id, int(event.op), int(event.kind), event.position,
                 event.size, event.thread_id, None)
            ])
        assert fold.features(config) == features_of(profile, config)

"""Access-event substrate: events, profiles, channels, collectors.

This package implements the data-collection half of DSspy (§IV of the
paper): every interaction with an instrumented data structure becomes an
:class:`AccessEvent`, events stream over a :class:`Channel` to an
:class:`EventCollector`, and post-mortem assembly yields one
:class:`RuntimeProfile` per data structure instance.

Recording is one tuple path: :meth:`EventCollector.record` applies the
firewall and the optional event sampling (:class:`SamplingPolicy` and
friends), then hands the raw tuple to one of two channels — the
default :class:`SynchronousChannel`, or the drainer-threaded
:class:`BatchingChannel` (optionally spilling to a binary file via
:mod:`~repro.events.spill`, and the base of the service layer's
``RemoteChannel``).
"""

from .batching import BatchingChannel
from .channel import Channel, SynchronousChannel
from .collector import (
    EventCollector,
    collecting,
    get_collector,
    pop_collector,
    push_collector,
    reset_ambient,
)
from .event import AccessEvent, materialize
from .merge import merge_archives, merge_profiles
from .profile import NO_POSITION, AllocationSite, RuntimeProfile
from .sampling import (
    RECORD_ALL,
    Burst,
    Decimate,
    RecordAll,
    SamplingPolicy,
    parse_sampling,
)
from .serialize import (
    dump_profiles,
    load_profiles,
    read_profiles,
    save_collector,
    save_profiles,
)
from .spill import (
    RECORD_SIZE,
    SpillWriter,
    iter_spill_events,
    iter_spill_raw,
    pack_record,
    read_spill_events,
    read_spill_raw,
    record_is_plausible,
    unpack_record,
    unpack_records,
)
from .types import FRONT, AccessKind, OperationKind, StructureKind, end_of

__all__ = [
    "AccessEvent",
    "AccessKind",
    "AllocationSite",
    "BatchingChannel",
    "Burst",
    "Channel",
    "Decimate",
    "EventCollector",
    "FRONT",
    "NO_POSITION",
    "OperationKind",
    "RECORD_ALL",
    "RECORD_SIZE",
    "RecordAll",
    "RuntimeProfile",
    "SamplingPolicy",
    "SpillWriter",
    "StructureKind",
    "SynchronousChannel",
    "collecting",
    "dump_profiles",
    "end_of",
    "get_collector",
    "iter_spill_events",
    "iter_spill_raw",
    "load_profiles",
    "materialize",
    "merge_archives",
    "merge_profiles",
    "pack_record",
    "parse_sampling",
    "pop_collector",
    "push_collector",
    "read_profiles",
    "read_spill_events",
    "read_spill_raw",
    "record_is_plausible",
    "reset_ambient",
    "unpack_record",
    "unpack_records",
    "save_collector",
    "save_profiles",
]

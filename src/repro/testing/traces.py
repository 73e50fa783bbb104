"""Seed-reproducible synthetic event traces.

The differential check needs inputs that exercise the whole analysis
vocabulary — all eight primitive access patterns, the compound access
types, multiple instances, multiple threads, interleaving — while
staying perfectly reproducible from a single integer seed.  Recording
real workloads gives realism but couples the test to instrumentation
details; :func:`generate_trace` instead emits the raw event tuples
directly, the same ``(instance_id, op, kind, position, size,
thread_id, wall_time)`` shape the channels transport, so every layer
from the wire protocol down to the rules sees production-shaped data.

A trace is built from *segments*: one instance running one pattern for
a stretch of events (a forward read scan, an append run, a burst of
compound ops ...).  Per-instance segments are generated with a
consistent size evolution (reads stay in bounds, deletes shrink,
inserts grow), then the per-instance streams are interleaved into one
global stream with seeded round-robin bursts — per-instance order is
preserved (the convergence contract requires nothing more) while the
global stream exhibits the cross-instance mixing a real multi-client
capture has.

Determinism contract: ``generate_trace(seed)`` is a pure function of
its arguments.  Two calls with the same seed produce identical traces
on any platform (only ``random.Random``, no global RNG, no time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..events.event import RawEvent
from ..events.types import AccessKind, OperationKind, StructureKind

_READ = int(AccessKind.READ)
_WRITE = int(AccessKind.WRITE)


@dataclass(frozen=True)
class TraceInstance:
    """Identity of one synthetic data-structure instance."""

    instance_id: int
    kind: StructureKind
    label: str

    def registration(self) -> dict:
        """REGISTER-payload entry for the wire protocol."""
        return {
            "id": self.instance_id,
            "kind": self.kind.value,
            "site": None,
            "label": self.label,
        }


@dataclass
class Trace:
    """One generated event stream plus the identities behind it."""

    seed: int
    instances: list[TraceInstance]
    events: list[RawEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def events_of(self, instance_id: int) -> list[RawEvent]:
        return [raw for raw in self.events if raw[0] == instance_id]

    def describe(self) -> str:
        per_instance = ", ".join(
            f"#{inst.instance_id}:{len(self.events_of(inst.instance_id))}"
            for inst in self.instances
        )
        return (
            f"trace(seed={self.seed}, {len(self.instances)} instances, "
            f"{len(self.events)} events; {per_instance})"
        )


# -- segment emitters --------------------------------------------------------
#
# Each emitter appends events of one pattern to `out`, reading and
# updating the instance's current size.  They return the new size.


def _scan(out, iid, op, kind, size, length, thread_id, forward):
    if size == 0:
        return size
    positions = range(size) if forward else range(size - 1, -1, -1)
    emitted = 0
    while emitted < length:
        for pos in positions:
            if emitted >= length:
                break
            out.append((iid, op, kind, pos, size, thread_id, None))
            emitted += 1
    return size


def _insert_back(out, iid, size, length, thread_id):
    for _ in range(length):
        out.append((iid, int(OperationKind.INSERT), _WRITE, size, size + 1, thread_id, None))
        size += 1
    return size


def _insert_front(out, iid, size, length, thread_id):
    for _ in range(length):
        size += 1
        out.append((iid, int(OperationKind.INSERT), _WRITE, 0, size, thread_id, None))
    return size


def _delete_back(out, iid, size, length, thread_id):
    for _ in range(min(length, max(size - 1, 0))):
        out.append((iid, int(OperationKind.DELETE), _WRITE, size - 1, size, thread_id, None))
        size -= 1
    return size


def _delete_front(out, iid, size, length, thread_id):
    for _ in range(min(length, max(size - 1, 0))):
        out.append((iid, int(OperationKind.DELETE), _WRITE, 0, size, thread_id, None))
        size -= 1
    return size


def _compound_burst(out, rng, iid, size, length, thread_id):
    """Whole-structure compound ops plus scattered point accesses."""
    whole = (
        OperationKind.SEARCH,
        OperationKind.COPY,
        OperationKind.FORALL,
        OperationKind.REVERSE,
        OperationKind.SORT,
    )
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            op = rng.choice(whole)
            kind = _READ if op.is_read_like else _WRITE
            out.append((iid, int(op), kind, None, size, thread_id, None))
        elif roll < 0.75 and size:
            out.append(
                (iid, int(OperationKind.READ), _READ, rng.randrange(size), size, thread_id, None)
            )
        elif size:
            out.append(
                (iid, int(OperationKind.WRITE), _WRITE, rng.randrange(size), size, thread_id, None)
            )
    return size


def _random_noise(out, rng, iid, size, length, thread_id):
    """Unstructured point accesses — the anti-pattern filler."""
    for _ in range(length):
        if size == 0:
            size = _insert_back(out, iid, size, 1, thread_id)
            continue
        if rng.random() < 0.6:
            out.append(
                (iid, int(OperationKind.READ), _READ, rng.randrange(size), size, thread_id, None)
            )
        else:
            out.append(
                (iid, int(OperationKind.WRITE), _WRITE, rng.randrange(size), size, thread_id, None)
            )
    return size


_SEGMENT_KINDS = (
    "read_forward",
    "write_forward",
    "read_backward",
    "write_backward",
    "insert_back",
    "insert_front",
    "delete_back",
    "delete_front",
    "sort_after_insert",
    "compound",
    "noise",
)

_LINEAR_KINDS = (
    StructureKind.LIST,
    StructureKind.ARRAY_LIST,
    StructureKind.STACK,
    StructureKind.QUEUE,
    StructureKind.LINKED_LIST,
)


def _emit_segment(out, rng, iid, segment, size, length, thread_id):
    read, write = int(OperationKind.READ), int(OperationKind.WRITE)
    if segment == "read_forward":
        return _scan(out, iid, read, _READ, size, length, thread_id, True)
    if segment == "write_forward":
        return _scan(out, iid, write, _WRITE, size, length, thread_id, True)
    if segment == "read_backward":
        return _scan(out, iid, read, _READ, size, length, thread_id, False)
    if segment == "write_backward":
        return _scan(out, iid, write, _WRITE, size, length, thread_id, False)
    if segment == "insert_back":
        return _insert_back(out, iid, size, length, thread_id)
    if segment == "insert_front":
        return _insert_front(out, iid, size, length, thread_id)
    if segment == "delete_back":
        return _delete_back(out, iid, size, length, thread_id)
    if segment == "delete_front":
        return _delete_front(out, iid, size, length, thread_id)
    if segment == "sort_after_insert":
        size = _insert_back(out, iid, size, length, thread_id)
        out.append((iid, int(OperationKind.SORT), _WRITE, None, size, thread_id, None))
        return size
    if segment == "compound":
        return _compound_burst(out, rng, iid, size, length, thread_id)
    return _random_noise(out, rng, iid, size, length, thread_id)


def generate_trace(
    seed: int,
    *,
    max_instances: int = 5,
    max_segments: int = 6,
    max_segment_events: int = 120,
    max_threads: int = 3,
) -> Trace:
    """Build one randomized, seed-reproducible trace.

    The mix is biased toward rule-triggering shapes (long inserts,
    long scans, sort-after-insert) so most traces flag at least one
    use case — a differential test on permanently empty reports would
    be vacuous.  Roughly one instance in eight is registered but never
    touched, checking that all three analysis paths count silent
    instances identically.
    """
    rng = random.Random(seed)
    n_instances = rng.randint(1, max_instances)
    instances: list[TraceInstance] = []
    streams: list[list[RawEvent]] = []
    for i in range(n_instances):
        iid = 100 + i
        instances.append(
            TraceInstance(iid, rng.choice(_LINEAR_KINDS), f"gen-{seed}-{i}")
        )
        stream: list[RawEvent] = []
        if rng.random() < 0.125:
            streams.append(stream)  # registered, never touched
            continue
        size = 0
        # Opening fill so scans have something to walk.
        size = _insert_back(stream, iid, size, rng.randint(8, 40), rng.randrange(max_threads))
        for _ in range(rng.randint(1, max_segments)):
            segment = rng.choice(_SEGMENT_KINDS)
            length = rng.randint(4, max_segment_events)
            thread_id = rng.randrange(max_threads)
            size = _emit_segment(stream, rng, iid, segment, size, length, thread_id)
        streams.append(stream)

    # Interleave per-instance streams into one global stream with
    # seeded bursts; per-instance order is preserved.
    cursors = [0] * len(streams)
    merged: list[RawEvent] = []
    live = [i for i, s in enumerate(streams) if s]
    while live:
        idx = rng.choice(live)
        take = rng.randint(1, 16)
        start = cursors[idx]
        merged.extend(streams[idx][start : start + take])
        cursors[idx] = start + take
        if cursors[idx] >= len(streams[idx]):
            live.remove(idx)
    return Trace(seed=seed, instances=instances, events=merged)


__all__ = ["Trace", "TraceInstance", "generate_trace"]

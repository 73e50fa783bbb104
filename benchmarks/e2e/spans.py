"""Reading span files and turning spans into per-layer times.

Two ways to charge time to spans, both defined here:

* :func:`self_times` -- a span's duration minus the part of it its
  child spans cover (overlapping children are counted once).  Used for
  the daemon and fleet processes, whose threads work concurrently.
* :func:`exclusive_times` -- every instant of an interval goes to exactly
  one open span, the deepest (latest started on a tie).  Used for one
  ``dsspy analyze`` process, so that its layers add up to its wall time;
  it equals :func:`self_times` whenever no two children of a span
  overlap, and otherwise splits the overlap instead of counting it twice.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

#: Span name -> per-layer metric that holds its self time.
LAYER_OF_SPAN = {
    "cli.main": "cli.self_s",
    "instrument.rewrite": "instrument.rewrite_s",
    "record.run": "record.self_s",
    "events.finish": "events.finish_s",
    "usecases.analyze": "usecases.analyze_self_s",
    "patterns.detect": "patterns.detect_s",
    "usecases.features": "usecases.features_s",
    "usecases.rules": "usecases.rules_s",
    "usecases.format": "usecases.format_s",
    "whatif.workspans": "whatif.workspans_s",
    "whatif.rank": "whatif.rank_s",
    "client.connect": "client.connect_s",
    "client.register": "client.register_s",
    "client.send": "client.send_s",
    "protocol.encode": "protocol.encode_s",
    "client.fin_wait": "client.fin_wait_s",
    "client.drain": "client.drain_s",
    "protocol.decode": "protocol.decode_s",
    "session.ingest": "session.ingest_self_s",
    "session.submit_wait": "session.submit_wait_s",
    "session.finish": "session.finish_s",
    "journal.append": "journal.append_s",
    "journal.checkpoint": "journal.checkpoint_s",
    "streaming.fold": "streaming.fold_s",
    "streaming.report": "streaming.report_s",
}

#: Count metrics: ``metric -> (span name, attribute or None to count spans)``.
COUNT_OF_SPAN = {
    "events.instances": ("events.finish", "instances"),
    "usecases.flagged": ("usecases.analyze", "flagged"),
    "client.windows": ("client.send", None),
    "client.bytes": ("protocol.encode", "bytes"),
    "client.reconnects": ("client.drain", "reconnects"),
    "journal.bytes": ("journal.append", "bytes"),
    "journal.checkpoints": ("journal.checkpoint", None),
    "streaming.windows": ("streaming.fold", None),
}

#: Spans of observability queries the benchmark itself makes; their
#: subtrees are not load and are left out of every layer.
EXCLUDED_ROOTS = ("daemon.stats",)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    session: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    header: dict
    spans: list[Span]

    @property
    def pid(self) -> int:
        return self.header["pid"]


def from_rows(header: dict, rows: list[list]) -> Trace:
    return Trace(
        header,
        [Span(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] or {}) for r in rows],
    )


def load(path: Path) -> Trace:
    lines = path.read_text(encoding="utf-8").splitlines()
    return from_rows(json.loads(lines[0]), [json.loads(line) for line in lines[1:]])


def _clip(span: Span, lo: float, hi: float) -> tuple[float, float]:
    return max(span.start, lo), min(span.end, hi)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``span id -> duration minus the union of its children``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            start, end = _clip(span, parent.start, parent.end)
            if end > start:
                children[parent.id].append((start, end))
    return {s.id: s.duration - union_length(children[s.id]) for s in spans}


def exclusive_times(spans: list[Span], lo: float, hi: float) -> dict[int, float]:
    """Charge every instant of ``[lo, hi]`` to the deepest open span."""
    by_id = {s.id: s for s in spans}
    depth: dict[int, int] = {}

    def depth_of(span: Span) -> int:
        if span.id not in depth:
            parent = by_id.get(span.parent) if span.parent is not None else None
            depth[span.id] = 0 if parent is None else depth_of(parent) + 1
        return depth[span.id]

    edges = []
    for span in spans:
        start, end = _clip(span, lo, hi)
        if end > start:
            edges.append((start, 1, span.id))
            edges.append((end, 0, span.id))
    edges.sort()
    heap: list[tuple[int, float, int]] = []
    open_ids: set[int] = set()
    out: dict[int, float] = defaultdict(float)
    previous = None
    for time, is_start, sid in edges:
        if previous is not None and time > previous:
            while heap and heap[0][2] not in open_ids:
                heapq.heappop(heap)
            if heap:
                out[heap[0][2]] += time - previous
        if is_start:
            span = by_id[sid]
            open_ids.add(sid)
            heapq.heappush(heap, (-depth_of(span), -max(span.start, lo), sid))
        else:
            open_ids.discard(sid)
        previous = time
    return dict(out)


def without_excluded(spans: list[Span]) -> list[Span]:
    """Drop the subtrees rooted at :data:`EXCLUDED_ROOTS` spans."""
    by_id = {s.id: s for s in spans}
    excluded: dict[int, bool] = {}

    def is_excluded(span: Span) -> bool:
        if span.id not in excluded:
            parent = by_id.get(span.parent) if span.parent is not None else None
            excluded[span.id] = span.name in EXCLUDED_ROOTS or (
                parent is not None and is_excluded(parent)
            )
        return excluded[span.id]

    return [s for s in spans if not is_excluded(s)]


def layer_totals(spans: list[Span], times: dict[int, float]) -> dict[str, float]:
    """Sum ``times`` per layer metric, and the count metrics."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        metric = LAYER_OF_SPAN.get(span.name)
        if metric is not None:
            out[metric] += times.get(span.id, 0.0)
        if span.attrs.get("error"):
            out["trace.span_errors"] += 1
    for metric, (name, attr) in COUNT_OF_SPAN.items():
        for span in spans:
            if span.name == name:
                out[metric] += 1 if attr is None else span.attrs.get(attr, 0)
    return dict(out)


def cli_breakdown(trace: Trace, wall_s: float) -> dict[str, float]:
    """Layers of one traced ``dsspy analyze`` process.

    ``cli.import_s`` runs from launch to ``repro.cli.main``,
    ``cli.atexit_s`` from the return of ``main`` to the span dump (the
    exit handlers), and ``cli.unattributed_s`` is what the wall time
    leaves over (interpreter teardown and the dump itself).  Together
    with the exclusive self times of the spans under ``main`` they add
    up to ``wall_s`` exactly."""
    roots = [s for s in trace.spans if s.name == "cli.main"]
    if len(roots) != 1 or trace.header.get("launch") is None:
        raise ValueError(f"pid {trace.pid}: expected one cli.main span and a launch time")
    root = roots[0]
    out = layer_totals(trace.spans, exclusive_times(trace.spans, root.start, root.end))
    out["cli.wall_s"] = wall_s
    out["cli.import_s"] = root.start - trace.header["launch"]
    out["cli.atexit_s"] = trace.header["dump_start"] - root.end
    out["cli.unattributed_s"] = (
        wall_s - out["cli.import_s"] - root.duration - out["cli.atexit_s"]
    )
    return out


def service_totals(traces: list[Trace], lo: float, hi: float) -> dict[str, float]:
    """Busy time per layer over the spans of service processes that
    started inside ``[lo, hi]``."""
    out: dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = [s for s in without_excluded(trace.spans) if lo <= s.start <= hi]
        for metric, value in layer_totals(spans, self_times(spans)).items():
            out[metric] += value
    return dict(out)


def fin_split(client: list[Span], service: list[Span]) -> tuple[float, float]:
    """Split the clients' FIN waits into the time service spans of the
    same session were running and the rest (router, wire, scheduling)."""
    by_session: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in service:
        if span.session is not None:
            by_session[span.session].append((span.start, span.end))
    worker = other = 0.0
    for fin in client:
        if fin.name != "client.fin_wait":
            continue
        inside = [
            (max(a, fin.start), min(b, fin.end))
            for a, b in by_session.get(fin.session, [])
            if min(b, fin.end) > max(a, fin.start)
        ]
        covered = union_length(inside)
        worker += covered
        other += fin.duration - covered
    return worker, other

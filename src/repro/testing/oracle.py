"""The three analysis paths the differential check compares.

One generated trace (:mod:`~repro.testing.traces`) reaches the analysis
three independent ways:

1. **Batch** — per-instance :class:`~repro.events.profile.RuntimeProfile`
   objects through the paper's :class:`~repro.usecases.UseCaseEngine`,
   which folds each finished profile in one pass
   (:func:`run_batch_path`).
2. **Streaming** — the same events window-fed straight into a
   :class:`~repro.service.streaming.StreamingUseCaseEngine`, no network
   (:func:`run_streaming_path`).
3. **Daemon round trip** — a protocol client ships the events through a
   fault-injecting proxy into a live daemon and takes its FIN report
   (:func:`~repro.testing.chaos.ship_trace`, driven by
   :class:`~repro.testing.chaos.ChaosSoak`).

All three end in the same :class:`~repro.usecases.features.InstanceFold`
and must produce the identical flagged use-case set — same
``(instance, kind)`` pairs — *and* identical evidence dicts
(:func:`summarize_report`, :func:`diff_summaries`).  Any divergence is
a real bug in what lies between the events and the fold: profile
assembly, windowing, checkpoint/restore, the wire protocol,
resume/dedup, or the ingest pipeline.  The fold's own arithmetic is
checked against an independent numpy reference in the test suite.
"""

from __future__ import annotations

from typing import Any

from ..events.event import materialize
from ..events.profile import RuntimeProfile
from ..service.streaming import StreamingUseCaseEngine
from ..usecases.engine import UseCaseEngine
from ..usecases.json_export import report_to_dict
from .traces import Trace

#: Mixed into the trace seed to derive the fault-plan seed, so trace
#: content and fault schedule vary independently but reproducibly.
FAULT_SEED_SALT = 0x5EED_FA17


# -- the in-process paths ----------------------------------------------------


def run_batch_path(trace: Trace) -> dict[str, Any]:
    """Per-instance profiles, each folded whole by the batch engine."""
    streams: dict[int, list] = {inst.instance_id: [] for inst in trace.instances}
    for seq, raw in enumerate(trace.events):
        streams[raw[0]].append(materialize(seq, raw))
    profiles = []
    for inst in trace.instances:
        profile = RuntimeProfile(inst.instance_id, kind=inst.kind, label=inst.label)
        profile.extend(streams[inst.instance_id])
        profiles.append(profile)
    return report_to_dict(UseCaseEngine().analyze(profiles))


def run_streaming_path(trace: Trace, window: int = 64) -> dict[str, Any]:
    """Direct feed into the streaming engine, windowed like the wire."""
    engine = StreamingUseCaseEngine()
    for inst in trace.instances:
        engine.register_instance(inst.instance_id, inst.kind, label=inst.label)
    for offset in range(0, len(trace.events), window):
        engine.feed_window(trace.events[offset : offset + window])
    return report_to_dict(engine.report())


# -- comparison --------------------------------------------------------------


def summarize_report(report: dict[str, Any]) -> dict[str, Any]:
    """Canonical comparable form: flagged set + evidence, order-free."""
    return {
        "instances_analyzed": report["instances_analyzed"],
        "flagged": {
            (uc["instance_id"], uc["abbreviation"]): dict(uc["evidence"])
            for uc in report["use_cases"]
        },
    }


def diff_summaries(name_a: str, a: dict, name_b: str, b: dict) -> list[str]:
    """Human-readable mismatch lines; empty when identical."""
    out: list[str] = []
    if a["instances_analyzed"] != b["instances_analyzed"]:
        out.append(
            f"instances_analyzed: {name_a}={a['instances_analyzed']} "
            f"{name_b}={b['instances_analyzed']}"
        )
    fa, fb = a["flagged"], b["flagged"]
    for key in sorted(fa.keys() - fb.keys()):
        out.append(f"{key}: flagged by {name_a} only (evidence {fa[key]})")
    for key in sorted(fb.keys() - fa.keys()):
        out.append(f"{key}: flagged by {name_b} only (evidence {fb[key]})")
    for key in sorted(fa.keys() & fb.keys()):
        if fa[key] != fb[key]:
            out.append(
                f"{key}: evidence differs — {name_a}={fa[key]} {name_b}={fb[key]}"
            )
    return out


__all__ = [
    "FAULT_SEED_SALT",
    "diff_summaries",
    "run_batch_path",
    "run_streaming_path",
    "summarize_report",
]

"""Correctness tooling for the profiling service.

``repro.testing`` makes every failure mode of the recording → wire →
ingest → analysis path reproducible on demand:

- :mod:`~repro.testing.clock` — a :class:`~repro.testing.clock.Clock`
  protocol the service's policy timers run on; tests swap in a
  :class:`~repro.testing.clock.SimClock` and advance virtual time
  instead of sleeping.
- :mod:`~repro.testing.traces` — seed-reproducible synthetic event
  streams mixing all primitive patterns and compound access types.
- :mod:`~repro.testing.faults` — a scripted man-in-the-middle
  :class:`~repro.testing.faults.FaultProxy` injecting resets,
  duplicates, reorders, corrupt records, stalls, and partial frames.
- :mod:`~repro.testing.oracle` — the batch and streaming analysis
  paths and the report comparison the differential check is built on.
- :mod:`~repro.testing.chaos` — the one seeded trial runner (``dsspy
  chaos``): each trial ships a trace through faults with
  :func:`~repro.testing.chaos.ship_trace`, asserts batch ≡ streaming ≡
  daemon, and checks the no-silent-loss ledger under network, disk,
  storm and upgrade faults.
- :mod:`~repro.testing.shrink` — delta-debugging minimization of
  failing traces.
- :mod:`~repro.testing.hostile` — client-side injected faults (raising
  collector, raising/hanging channel) for the fail-open firewall of
  :mod:`repro.runtime`.

Despite the name this package is shipped, not test-only: the ``dsspy
chaos`` command runs the soak against the installed code, and the
clock module is imported by the service itself.

Only :mod:`~repro.testing.clock` is imported eagerly — it is what the
service layer needs and it has no dependencies back into ``repro``.
Everything else resolves lazily (PEP 562) because :mod:`faults`,
:mod:`oracle` and :mod:`chaos` import the service package, which
itself imports this package for the clock; eager imports here would
make that a cycle.
"""

from .clock import SYSTEM_CLOCK, Clock, SimClock, SystemClock

_LAZY = {
    "ChaosSoak": "chaos",
    "ChaosTrialResult": "chaos",
    "InvariantMonitor": "chaos",
    "ship_trace": "chaos",
    "FAULT_KINDS": "faults",
    "Fault": "faults",
    "FaultFS": "faults",
    "FaultPlan": "faults",
    "FaultProxy": "faults",
    "CLIENT_FAULT_KINDS": "hostile",
    "HangingChannel": "hostile",
    "HostileCollector": "hostile",
    "ProfilerBug": "hostile",
    "RaisingChannel": "hostile",
    "make_hostile_collector": "hostile",
    "diff_summaries": "oracle",
    "run_batch_path": "oracle",
    "run_streaming_path": "oracle",
    "summarize_report": "oracle",
    "shrink_trace": "shrink",
    "Trace": "traces",
    "TraceInstance": "traces",
    "generate_trace": "traces",
}

__all__ = [
    "Clock",
    "SYSTEM_CLOCK",
    "SimClock",
    "SystemClock",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value

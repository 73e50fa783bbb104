"""Recording-overhead benchmark core and CI perf-ratchet.

Measures the per-event cost of every transport at its hot-path
producer API — ``post`` for the synchronous channel, the cached
:meth:`~repro.events.BatchingChannel.producer` callable for the
batched pipeline and the networked transports built on it — timed over
a full capture (post loop *plus* terminal drain, so a drainer thread
cannot hide work), and of the record hook itself
(``EventCollector.record`` and ``TrackedList.append``).  These are
record-hook-layer numbers; the end-to-end cost of ``dsspy analyze``
lives in the ``benchmarks/e2e`` ledger.  Emits one JSON document
consumed by the CI perf-ratchet (``dsspy bench --check``).

Absolute nanoseconds vary wildly across machines, so every gated
metric is *normalized*: a per-event cost divided by a bare
``list.append`` measured on the same machine in the same process.
The ratchet enforces two kinds of bound against the checked-in
baseline (``benchmarks/baselines/overhead_baseline.json``):

- **relative**: no metric in :data:`GATED_METRICS` may regress by more
  than ``--max-regression`` (CI uses 10%) against the baseline value;
- **absolute**: a ``gates`` object in the baseline pins hard ceilings
  that hold regardless of what the baseline measured.

Metric map (all under ``derived``):

``batching_vs_plain``
    The batched tuple pipeline's producer callable.
``record_batching_vs_plain``
    The realistic ``EventCollector.record`` hook into a batching
    channel (informational).
``remote_vs_plain`` / ``journal_vs_plain``
    The networked transport against a loopback daemon, without and
    with the write-ahead journal.
``guard_vs_plain``
    The full structure hot path — ``TrackedList.append`` through
    ``EventCollector.record`` — under an armed fail-open firewall.

With ``--fleet`` the document additionally carries a ``fleet`` section:
a many-producer ingestion load (default 1000 sessions) replayed
against fleets of 1/2/4/8 sharded workers (client-side sharding — the
production ``fleet_run`` data path), yielding ``fleet_4w_vs_1w`` under
``derived`` and a ``floors`` object.  Floors are the dual of gates:
hard *minimums* (``fleet_4w_vs_1w`` ≥ 2.5× is the fleet scaling
acceptance bound).  Because scaling is physically bounded by core
count, :func:`check` enforces floors only when the current document
was measured on at least :data:`FLEET_FLOOR_MIN_CORES` cores — a
1-core curve is committed honestly and skipped loudly, CI's 4-vCPU
runner enforces for real.

With ``--whatif`` (schema 7) the document carries a ``whatif`` section:
the causal profiler's measured-vs-predicted differential on all 7
Table V workloads (:func:`repro.eval.run_whatif_validation` — the
top-ranked recommendation per workload is *executed* on a thread pool
and its accounted schedule compared to the analytic prediction).  The
derived ``whatif_within_band`` metric is the fraction of workloads
whose measured speedup landed inside the committed tolerance band, and
its embedded hard floor of 1.0 is enforced under the same ≥4-core rule
as the fleet floor (``--whatif-only`` skips the overhead suite for a
fast accuracy-gate run).

Run via the CLI (``dsspy bench``) or directly::

    PYTHONPATH=src python -m repro.bench --events 100000 -o overhead.json
    PYTHONPATH=src python -m repro.bench --input overhead.json --check
    PYTHONPATH=src python -m repro.bench --fleet --fleet-producers 1000 \
        --fleet-curve benchmarks/results/scaling_fleet.txt
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from .cli import configure_bench_parser

SCHEMA_VERSION = 8

#: The machine-normalized metrics the ratchet enforces relatively
#: (``current <= baseline * (1 + max_regression)``).
GATED_METRICS = (
    "batching_vs_plain",
    "remote_vs_plain",
    "journal_vs_plain",
    "guard_vs_plain",
)

#: Hard minimums — the dual of a baseline's ``gates`` ceilings —
#: embedded in every document that measured the fleet benchmark.
#: Enforced by :func:`check` only when the current document was
#: measured on at least :data:`FLEET_FLOOR_MIN_CORES` cores (scaling is
#: physically bounded by core count; a 1-core machine cannot speak to it).
ABSOLUTE_FLOORS = {
    "fleet_4w_vs_1w": 2.5,
    # Every Table V workload's measured speedup must land inside the
    # committed tolerance band of its what-if prediction (fraction, so
    # 1.0 = all seven).
    "whatif_within_band": 1.0,
}

#: Minimum measured-section ``cpu_count`` for floor enforcement (both
#: the fleet scaling floor and the what-if accuracy floor follow the
#: same rule: commit honestly on small boxes, enforce on >= 4 cores).
FLEET_FLOOR_MIN_CORES = 4

#: Which document section carries the ``cpu_count`` that gates each
#: floor metric's enforcement.
_FLOOR_CORES_SECTION = {
    "fleet_4w_vs_1w": "fleet",
    "whatif_within_band": "whatif",
}

#: A representative raw event (list read at position 5 of 1000).
_RAW = (0, 1, 0, 5, 1000, 0, None)


# -- measurement ------------------------------------------------------------


def _time_channel(factory, events: int) -> float:
    """Seconds to push ``events`` raw tuples through a channel's hot
    path and drain it."""
    channel = factory()
    produce = channel.producer() if hasattr(channel, "producer") else channel.post
    raw = _RAW
    start = time.perf_counter()
    for _ in range(events):
        produce(raw)
    channel.drain()
    return time.perf_counter() - start


def _time_record(factory, events: int, sampling=None) -> float:
    """Seconds for the realistic path: ``EventCollector.record`` per
    event, then the channel drained (profiles not materialized — that
    cost is post-mortem analysis, not recording)."""
    from .events import AccessKind, EventCollector, OperationKind, StructureKind

    collector = EventCollector(channel=factory(), sampling=sampling)
    iid = collector.register_instance(StructureKind.LIST)
    record = collector.record
    op = OperationKind.READ
    kind = AccessKind.READ
    start = time.perf_counter()
    for i in range(events):
        record(iid, op, kind, i % 1000, 1000)
    collector.channel.drain()
    return time.perf_counter() - start


def _time_tracked_append(events: int, guard=None) -> float:
    """Seconds for the full structure hot path — ``TrackedList.append``
    through the collector's record hook into a batching channel —
    optionally under an armed (healthy) firewall."""
    from .events import BatchingChannel, EventCollector
    from .structures import TrackedList

    channel = BatchingChannel()
    collector = EventCollector(channel=channel)
    xs = TrackedList(collector=collector)
    append = xs.append
    if guard is not None:
        guard.__enter__()
    try:
        start = time.perf_counter()
        for _ in range(events):
            append(1)
        channel.drain()
        return time.perf_counter() - start
    finally:
        if guard is not None:
            guard.__exit__(None, None, None)


def _time_plain_append(events: int) -> float:
    """The uninstrumented floor: a bare bound ``list.append`` loop."""
    xs: list = []
    append = xs.append
    raw = _RAW
    start = time.perf_counter()
    for _ in range(events):
        append(raw)
    return time.perf_counter() - start


def _best_round_robin(measures: dict, repeats: int) -> dict:
    """Minimum over ``repeats`` runs of each measure — the standard
    noise filter — taken round-robin: every round runs each measure
    once, so a slow spell of a shared host falls on every configuration
    instead of on one configuration's back-to-back repeats."""
    best = {name: float("inf") for name in measures}
    for _ in range(repeats):
        for name, measure in measures.items():
            best[name] = min(best[name], measure())
    return best


def run_overhead_benchmark(events: int = 100_000, repeats: int = 3) -> dict:
    """Measure every transport and sampling tier; return the JSON doc."""
    from .events import BatchingChannel, Burst, Decimate, SynchronousChannel
    from .runtime import RuntimeGuard
    from .service import ProfilingDaemon, RemoteChannel

    channels = {
        "sync": lambda: SynchronousChannel(),
        "batching": lambda: BatchingChannel(),
    }
    recorders = {
        "sync": (lambda: SynchronousChannel(), None),
        "batching": (lambda: BatchingChannel(), None),
        "batching_decimate10": (lambda: BatchingChannel(), lambda: Decimate(10)),
        "batching_burst1000_10": (lambda: BatchingChannel(), lambda: Burst(1000, 10)),
    }

    def per_event(total_s: float) -> dict:
        return {"total_s": total_s, "per_event_ns": total_s / events * 1e9}

    def channel_measure(factory):
        return lambda: _time_channel(factory, events)

    def record_measure(factory, make_policy):
        return lambda: _time_record(
            factory, events, sampling=make_policy() if make_policy else None
        )

    measures = {("plain", ""): lambda: _time_plain_append(events)}
    for name, factory in channels.items():
        measures[("channels", name)] = channel_measure(factory)
    for name, (factory, make_policy) in recorders.items():
        measures[("recording", name)] = record_measure(factory, make_policy)
    # The firewall hot path: a healthy armed guard on the tracked-append
    # loop, against the identical loop with no guard armed (seed mode).
    measures[("structures", "tracked_append")] = lambda: _time_tracked_append(events)
    measures[("structures", "tracked_append_guarded")] = lambda: _time_tracked_append(
        events, guard=RuntimeGuard(budget=25)
    )
    # The networked transport: same producer hot path as "batching",
    # plus loopback shipping to a live daemon (one daemon reused across
    # repeats; every repeat is a fresh session, and drain() includes the
    # FIN handshake so the full capture cost is measured).  The same
    # transport against a durable daemon journals every window before it
    # is acknowledged, with periodic checkpoints.
    with (
        tempfile.TemporaryDirectory(prefix="dsspy-bench-state-") as state_dir,
        ProfilingDaemon(port=0, session_linger=0.1) as daemon,
        ProfilingDaemon(
            port=0,
            session_linger=0.1,
            state_dir=state_dir,
            checkpoint_every=max(events // 2, 10_000),
        ) as durable,
    ):
        for name, address in (
            ("remote", daemon.address),
            ("remote_journal", durable.address),
        ):
            measures[("channels", name)] = channel_measure(
                lambda address=address: RemoteChannel(address)
            )
        best = _best_round_robin(measures, repeats)

    doc: dict = {
        "schema": SCHEMA_VERSION,
        "events": events,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "plain_append_ns": best.pop(("plain", "")) / events * 1e9,
        "channels": {},
        "recording": {},
        "structures": {},
    }
    for (section, name), total_s in best.items():
        doc[section][name] = per_event(total_s)

    plain_ns = doc["plain_append_ns"]
    batching_ns = doc["channels"]["batching"]["per_event_ns"]
    structures = doc["structures"]
    doc["derived"] = {
        # Machine-normalized cost multiples — the CI-gated metrics.
        "batching_vs_plain": batching_ns / plain_ns,
        "remote_vs_plain": doc["channels"]["remote"]["per_event_ns"] / plain_ns,
        "journal_vs_plain": doc["channels"]["remote_journal"]["per_event_ns"]
        / plain_ns,
        # The record hook into a batching channel, informational.
        "record_batching_vs_plain": doc["recording"]["batching"]["per_event_ns"]
        / plain_ns,
        # Firewall cost, gated: full guarded tracked-append vs a bare
        # append — and, informational, vs the same path unguarded.
        "guard_vs_plain": structures["tracked_append_guarded"]["per_event_ns"]
        / plain_ns,
        "guard_overhead": structures["tracked_append_guarded"]["total_s"]
        / structures["tracked_append"]["total_s"],
    }
    return doc


# -- fleet scaling ----------------------------------------------------------


def fleet_producer_main(argv: list[str] | None = None) -> int:
    """Subprocess entry for one fleet-benchmark producer process.

    Reads a JSON spec (addresses, session count, events per session,
    thread concurrency, session-id prefix) from ``argv[0]``, replays
    its sessions against the fleet with client-side sharding, and
    prints one JSON line — wall-clock start/end (``time.time``, so
    timestamps are comparable across processes) and the event total.

    The collector stack is process-global, which is exactly why this
    runs as a subprocess: each producer process owns its collectors
    outright, and the parent only aggregates timestamps.
    """
    import concurrent.futures

    from .events import AccessKind, EventCollector, OperationKind, StructureKind
    from .service import RemoteChannel
    from .service.router import shard_for

    spec = json.loads(sys.argv[1] if argv is None else argv[0])
    addresses: list[str] = spec["addresses"]
    events: int = spec["events"]

    def one_session(index: int) -> int:
        session_id = f"{spec['prefix']}-s{index:04d}"
        address = addresses[shard_for(session_id, len(addresses))]
        channel = RemoteChannel(address, session_id=session_id, give_up_after=30.0)
        collector = EventCollector(channel=channel)
        iid = collector.register_instance(StructureKind.LIST)
        record = collector.record
        op = OperationKind.READ
        kind = AccessKind.READ
        for i in range(events):
            record(iid, op, kind, i % 1000, 1000)
        channel.drain()
        return events

    start = time.time()
    total = 0
    with concurrent.futures.ThreadPoolExecutor(
        max_workers=spec["concurrency"]
    ) as pool:
        for n in pool.map(one_session, range(spec["sessions"])):
            total += n
    end = time.time()
    print(json.dumps({"start": start, "end": end, "events": total}))
    return 0


def _run_fleet_config(
    n_workers: int,
    producers: int,
    events_per_producer: int,
    procs: int,
    concurrency: int,
) -> dict:
    """Throughput of one fleet size: ``producers`` sessions spread over
    ``procs`` producer processes against ``n_workers`` sharded workers."""
    import subprocess

    from .service.fleet import FleetSupervisor, _repro_env

    with tempfile.TemporaryDirectory(prefix="dsspy-bench-fleet-") as state_dir:
        with FleetSupervisor(
            n_workers, state_dir, heartbeat_timeout=120.0
        ) as supervisor:
            addresses = supervisor.worker_addresses()
            per_proc = [producers // procs] * procs
            for i in range(producers % procs):
                per_proc[i] += 1
            children = []
            for index, sessions in enumerate(p for p in per_proc if p):
                spec = {
                    "addresses": addresses,
                    "sessions": sessions,
                    "events": events_per_producer,
                    "concurrency": concurrency,
                    "prefix": f"bench-w{n_workers}-p{index}",
                }
                children.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-c",
                            "from repro.bench import fleet_producer_main; "
                            "import sys; sys.exit(fleet_producer_main())",
                            json.dumps(spec),
                        ],
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        text=True,
                        env=_repro_env(),
                    )
                )
            results = []
            for child in children:
                out, err = child.communicate(timeout=1800)
                if child.returncode != 0:
                    raise RuntimeError(
                        f"fleet benchmark producer failed "
                        f"(rc={child.returncode}): {err.strip()[-500:]}"
                    )
                results.append(json.loads(out.strip().splitlines()[-1]))
    wall_s = max(r["end"] for r in results) - min(r["start"] for r in results)
    events = sum(r["events"] for r in results)
    return {
        "workers": n_workers,
        "events": events,
        "wall_s": wall_s,
        "throughput_eps": events / wall_s if wall_s > 0 else float("inf"),
    }


def run_fleet_benchmark(
    producers: int = 1000,
    events_per_producer: int = 200,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    procs: int = 4,
    concurrency: int = 16,
) -> dict:
    """The many-producer scaling curve: total ingestion throughput
    (events/s over the union wall-clock of all producer processes) for
    each fleet size.  Sessions shard client-side with the same hash the
    router and supervisor use, so this measures the production
    ``fleet_run`` data path — no router hop in the middle."""
    section: dict = {
        "producers": producers,
        "events_per_producer": events_per_producer,
        "producer_processes": procs,
        "producer_concurrency": concurrency,
        "cpu_count": os.cpu_count() or 1,
        "workers": {},
    }
    for n in worker_counts:
        result = _run_fleet_config(
            n, producers, events_per_producer, procs, concurrency
        )
        section["workers"][str(n)] = result
        print(
            f"fleet: {n} worker(s): {result['events']} events in "
            f"{result['wall_s']:.2f}s = {result['throughput_eps']:,.0f} ev/s",
            file=sys.stderr,
        )
    return section


def fleet_derived(section: dict) -> dict:
    """Scaling ratios from a ``fleet`` section (NxW throughput over
    1-worker throughput) for every measured fleet size."""
    workers = section.get("workers", {})
    if "1" not in workers:
        return {}
    base = float(workers["1"]["throughput_eps"])
    return {
        f"fleet_{n}w_vs_1w": float(cfg["throughput_eps"]) / base
        for n, cfg in sorted(workers.items(), key=lambda kv: int(kv[0]))
        if n != "1" and base > 0
    }


def format_fleet_curve(doc: dict) -> str:
    """The committed scaling-curve artifact
    (``benchmarks/results/scaling_fleet.txt``)."""
    section = doc["fleet"]
    derived = doc.get("derived", {})
    lines = [
        "Fleet ingestion scaling: total throughput vs worker count",
        f"schema {doc.get('schema', '?')} | python {doc.get('python', '?')} | "
        f"cpu_count {section['cpu_count']}",
        f"{section['producers']} producer sessions x "
        f"{section['events_per_producer']} events, "
        f"{section['producer_processes']} producer processes x "
        f"{section['producer_concurrency']} threads, client-side sharding",
        "",
        f"{'workers':>7}  {'events':>9}  {'wall_s':>8}  "
        f"{'events/s':>10}  {'vs 1w':>6}",
    ]
    for n, cfg in sorted(section["workers"].items(), key=lambda kv: int(kv[0])):
        ratio = derived.get(f"fleet_{n}w_vs_1w")
        lines.append(
            f"{n:>7}  {cfg['events']:>9}  {cfg['wall_s']:>8.2f}  "
            f"{cfg['throughput_eps']:>10,.0f}  "
            f"{'  1.00' if n == '1' else f'{ratio:>6.2f}' if ratio else '     ?'}"
        )
    lines.append("")
    floor = ABSOLUTE_FLOORS.get("fleet_4w_vs_1w")
    cores = section["cpu_count"]
    if cores < FLEET_FLOOR_MIN_CORES:
        lines.append(
            f"floor fleet_4w_vs_1w >= {floor} NOT ENFORCED: measured on "
            f"{cores} core(s) (needs >= {FLEET_FLOOR_MIN_CORES}); scaling is "
            "physically bounded by core count on this machine."
        )
    else:
        lines.append(f"floor fleet_4w_vs_1w >= {floor} (enforced by --check)")
    return "\n".join(lines) + "\n"


# -- what-if prediction accuracy --------------------------------------------


def run_whatif_benchmark(cores: int = 8, scale: float = 1.0) -> dict:
    """The measured-vs-predicted differential as a bench section.

    Deterministic given (cores, scale): the prediction is analytic and
    the measured side accounts the real executed chunk schedule on the
    machine model, so the numbers are reproducible anywhere — only the
    *enforcement* of the floor is core-gated (the real thread execution
    underneath needs actual cores to be a meaningful rehearsal).
    """
    from .eval.speedup_eval import WHATIF_TOLERANCE, run_whatif_validation
    from .parallel.machine import MachineConfig, SimulatedMachine

    machine = SimulatedMachine(MachineConfig(cores=cores))
    rows = run_whatif_validation(machine=machine, scale=scale)
    return {
        "cpu_count": os.cpu_count() or 1,
        "model_cores": cores,
        "tolerance": WHATIF_TOLERANCE,
        "rows": [
            {
                "workload": r.workload,
                "use_case": r.use_case,
                "predicted": r.predicted,
                "measured": r.measured,
                "relative_error": r.relative_error,
                "matches_sequential": r.matches_sequential,
                "within_band": r.within_band,
                "note": r.note,
            }
            for r in rows
        ],
    }


def whatif_derived(section: dict) -> dict:
    """``whatif_within_band``: the fraction of workloads whose measured
    speedup landed inside the tolerance band (floor: 1.0 = all)."""
    rows = section.get("rows", [])
    if not rows:
        return {}
    within = sum(1 for r in rows if r["within_band"])
    return {"whatif_within_band": within / len(rows)}


def format_whatif_accuracy(doc: dict) -> str:
    """The committed prediction-accuracy artifact
    (``benchmarks/results/whatif_accuracy.txt``)."""
    section = doc["whatif"]
    lines = [
        "What-if prediction accuracy: measured vs predicted speedup",
        f"schema {doc.get('schema', '?')} | python {doc.get('python', '?')} | "
        f"cpu_count {section['cpu_count']} | "
        f"model cores {section['model_cores']} | "
        f"tolerance ±{section['tolerance']:.0%}",
        "",
        f"{'workload':<18} {'top use case':<24} {'predicted':>9}  "
        f"{'measured':>9}  {'error':>7}  {'band':>5}",
    ]
    for row in section["rows"]:
        note = f"  ({row['note']})" if row["note"] else ""
        lines.append(
            f"{row['workload']:<18} {row['use_case']:<24} "
            f"{row['predicted']:>8.2f}x  {row['measured']:>8.2f}x  "
            f"{row['relative_error']:>6.2%}  "
            f"{'ok' if row['within_band'] else 'MISS':>5}{note}"
        )
    lines.append("")
    floor = ABSOLUTE_FLOORS["whatif_within_band"]
    cores = section["cpu_count"]
    if cores < FLEET_FLOOR_MIN_CORES:
        lines.append(
            f"floor whatif_within_band >= {floor} NOT ENFORCED: measured on "
            f"{cores} core(s) (needs >= {FLEET_FLOOR_MIN_CORES}); the thread "
            "pool under the measured side is not a meaningful rehearsal here."
        )
    else:
        lines.append(
            f"floor whatif_within_band >= {floor} (enforced by --check)"
        )
    return "\n".join(lines) + "\n"


# -- the ratchet ------------------------------------------------------------


def check(
    current: dict, baseline: dict, max_regression: float = 0.10
) -> tuple[list[str], list[str]]:
    """Compare a fresh benchmark document against the baseline.

    Returns ``(failures, report_lines)`` — one report line per
    comparison, one failure string per violated bound.  Raises
    :class:`ValueError` when a gated metric is present in exactly one
    of the two documents (a schema mismatch the caller should treat as
    a configuration error, not a regression).
    """
    report: list[str] = []
    failures: list[str] = []
    cur_derived = current.get("derived", {})
    base_derived = baseline.get("derived", {})
    for metric in GATED_METRICS:
        in_current = metric in cur_derived
        in_baseline = metric in base_derived
        if not in_current and not in_baseline:
            report.append(f"{metric}: absent from both documents, skipped")
            continue
        if not (in_current and in_baseline):
            raise ValueError(
                f"{metric} missing from "
                f"{'current' if not in_current else 'baseline'} benchmark JSON"
            )
        cur = float(cur_derived[metric])
        base = float(base_derived[metric])
        regression = cur / base - 1.0
        report.append(
            f"{metric} = {cur:.2f} (baseline {base:.2f}, "
            f"change {regression:+.1%}, allowed +{max_regression:.0%})"
        )
        if cur > base * (1.0 + max_regression):
            failures.append(
                f"{metric} is {regression:+.1%} vs baseline "
                f"(limit +{max_regression:.0%})"
            )
    for metric, cap in sorted(baseline.get("gates", {}).items()):
        if metric not in cur_derived:
            raise ValueError(
                f"absolute gate on {metric} but the metric is missing from "
                "the current benchmark JSON"
            )
        cur = float(cur_derived[metric])
        report.append(f"{metric} = {cur:.2f} (hard ceiling {float(cap):.2f}x)")
        if cur > float(cap):
            failures.append(
                f"{metric} = {cur:.2f} exceeds the hard ceiling {float(cap):.2f}x"
            )
    # Hard floors (fleet scaling).  Self-enforcing from the current
    # document — a doc that measured the fleet benchmark carries its own
    # floors — plus any pinned in the baseline.  A floor on a metric the
    # current run did not measure is skipped, not an error: the fleet
    # benchmark is opt-in (--fleet), unlike the always-on overhead suite.
    floors = {**baseline.get("floors", {}), **current.get("floors", {})}
    for metric, floor in sorted(floors.items()):
        if metric not in cur_derived:
            report.append(
                f"{metric}: floor {float(floor):.2f}x skipped "
                "(not measured in the current document)"
            )
            continue
        cur = float(cur_derived[metric])
        # Each floor is gated on the cores of the section that measured
        # it (fleet scaling vs what-if accuracy).
        section = _FLOOR_CORES_SECTION.get(metric, "fleet")
        cores = int((current.get(section) or {}).get("cpu_count") or 0)
        if cores < FLEET_FLOOR_MIN_CORES:
            report.append(
                f"{metric} = {cur:.2f} (floor {float(floor):.2f}x skipped: "
                f"measured on {cores} core(s), "
                f"needs >= {FLEET_FLOOR_MIN_CORES})"
            )
            continue
        report.append(f"{metric} = {cur:.2f} (hard floor {float(floor):.2f}x)")
        if cur < float(floor):
            failures.append(
                f"{metric} = {cur:.2f} is below the hard floor {float(floor):.2f}x"
            )
    return failures, report


# -- the trajectory ---------------------------------------------------------

_TRAJECTORY_FIELDS = (
    "timestamp",
    "commit",
    "schema",
    "events",
    "python",
    "plain_append_ns",
) + GATED_METRICS


def append_trajectory(doc: dict, path: str | Path, commit: str | None = None) -> str:
    """Append one benchmark run to the committed trajectory CSV.

    Creates the file (with header) when absent, and raises
    :class:`ValueError` when an existing file's header is not
    :data:`_TRAJECTORY_FIELDS` — a row under another header would put
    its values in the wrong columns.  ``commit`` defaults to
    ``$GITHUB_SHA`` so the nightly CI job needs no plumbing.  Returns
    the formatted CSV row (without trailing newline)."""
    path = Path(path)
    if commit is None:
        commit = os.environ.get("GITHUB_SHA", "")
    derived = doc.get("derived", {})
    row = [
        datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        commit[:12],
        str(doc.get("schema", "")),
        str(doc.get("events", "")),
        str(doc.get("python", "")),
        f"{float(doc.get('plain_append_ns', 0.0)):.1f}",
    ] + [
        f"{float(derived[m]):.3f}" if m in derived else "" for m in GATED_METRICS
    ]
    line = ",".join(row)
    header = ",".join(_TRAJECTORY_FIELDS)
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists() or path.stat().st_size == 0
    if not fresh:
        with path.open(encoding="utf-8") as fh:
            existing = fh.readline().rstrip("\r\n")
        if existing != header:
            raise ValueError(
                f"{path}: header {existing!r} is not the trajectory header {header!r}"
            )
    with path.open("a", encoding="utf-8") as fh:
        if fresh:
            fh.write(header + "\n")
        fh.write(line + "\n")
    return line


# -- CLI --------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    """Execute a parsed ``bench`` invocation."""
    whatif_only = getattr(args, "whatif_only", False)
    if args.input:
        doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
    elif whatif_only:
        # A minimal document: no overhead metrics at all, so --check
        # against itself skips every gated metric and enforces only the
        # floors it carries (the whatif-accuracy CI job's shape).
        doc = {
            "schema": SCHEMA_VERSION,
            "python": sys.version.split()[0],
        }
    else:
        doc = run_overhead_benchmark(events=args.events, repeats=args.repeats)
    if (getattr(args, "whatif", False) or whatif_only) and not args.input:
        doc["whatif"] = run_whatif_benchmark(
            cores=getattr(args, "whatif_cores", 8)
        )
        doc.setdefault("derived", {}).update(whatif_derived(doc["whatif"]))
        doc.setdefault("floors", {}).update(
            {"whatif_within_band": ABSOLUTE_FLOORS["whatif_within_band"]}
        )
    if getattr(args, "whatif_table", None):
        if "whatif" not in doc:
            print(
                "bench: --whatif-table needs a document with a 'whatif' "
                "section (pass --whatif or an --input that has one)",
                file=sys.stderr,
            )
            return 2
        table = format_whatif_accuracy(doc)
        Path(args.whatif_table).parent.mkdir(parents=True, exist_ok=True)
        Path(args.whatif_table).write_text(table, encoding="utf-8")
        print(
            f"what-if accuracy table written to {args.whatif_table}",
            file=sys.stderr,
        )
    if getattr(args, "fleet", False) and not args.input:
        worker_counts = tuple(
            int(n) for n in args.fleet_workers.split(",") if n.strip()
        )
        doc["fleet"] = run_fleet_benchmark(
            producers=args.fleet_producers,
            events_per_producer=args.fleet_events,
            worker_counts=worker_counts,
            procs=args.fleet_procs,
            concurrency=args.fleet_concurrency,
        )
        doc.setdefault("derived", {}).update(fleet_derived(doc["fleet"]))
        doc.setdefault("floors", {}).update(
            {"fleet_4w_vs_1w": ABSOLUTE_FLOORS["fleet_4w_vs_1w"]}
        )
    if getattr(args, "fleet_curve", None):
        if "fleet" not in doc:
            print("bench: --fleet-curve needs a document with a 'fleet' "
                  "section (pass --fleet or an --input that has one)",
                  file=sys.stderr)
            return 2
        curve = format_fleet_curve(doc)
        Path(args.fleet_curve).parent.mkdir(parents=True, exist_ok=True)
        Path(args.fleet_curve).write_text(curve, encoding="utf-8")
        print(f"fleet scaling curve written to {args.fleet_curve}",
              file=sys.stderr)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"overhead benchmark written to {args.output}", file=sys.stderr)
    if args.json:
        print(text)
    derived = doc.get("derived", {})
    if "whatif" in doc and not args.json:
        band = derived.get("whatif_within_band")
        rows = doc["whatif"].get("rows", [])
        print(
            f"whatif: {sum(1 for r in rows if r['within_band'])}/{len(rows)} "
            f"workloads within ±{doc['whatif']['tolerance']:.0%} of prediction "
            f"(whatif_within_band = {band if band is None else round(band, 3)})",
            file=sys.stderr,
        )
    if derived and "plain_append_ns" in doc and not args.json:
        print(
            f"plain append: {doc['plain_append_ns']:.0f} ns; "
            f"record hook: "
            f"{derived.get('record_batching_vs_plain', float('nan')):.1f}x plain; "
            f"batching: {derived.get('batching_vs_plain', float('nan')):.1f}x; "
            f"remote: {derived.get('remote_vs_plain', float('nan')):.1f}x "
            f"(journaled {derived.get('journal_vs_plain', float('nan')):.1f}x); "
            f"guard: {derived.get('guard_vs_plain', float('nan')):.1f}x",
            file=sys.stderr,
        )
    if args.append_trajectory:
        try:
            line = append_trajectory(doc, args.append_trajectory)
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print(f"trajectory += {line}", file=sys.stderr)
    if args.check:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        try:
            failures, report = check(
                doc, baseline, max_regression=args.max_regression
            )
        except ValueError as exc:
            print(f"perf ratchet: {exc}", file=sys.stderr)
            return 2
        for line in report:
            print(f"perf ratchet: {line}")
        if failures:
            for failure in failures:
                print(f"PERF RATCHET: FAILED — {failure}")
            return 1
        print("PERF RATCHET: passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description=__doc__.splitlines()[0]
    )
    configure_bench_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

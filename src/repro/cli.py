"""``dsspy`` command-line interface.

Subcommands:

``dsspy analyze FILE``
    Instrument a Python program, execute it, and print the use-case
    report (the paper's fully automatic mode).

``dsspy scan PATH``
    Static analysis only: list container instantiation sites in a file,
    or per-program occurrence statistics for a directory tree.

``dsspy tables [NAME ...]``
    Regenerate the paper's tables (table1, table2, table3, table4,
    table6, table7, fig1) and print them.

``dsspy demo``
    A 5-second end-to-end demonstration on a synthetic profile.

``dsspy serve``
    Run the profiling daemon: many instrumented processes stream
    events to it concurrently (``dsspy analyze --remote``), and it
    analyzes incrementally with bounded memory.

``dsspy sessions ADDRESS``
    Query a running daemon for per-session statistics (events/sec,
    drop counts, flagged use cases) as a table or JSON.

``dsspy recover STATE_DIR``
    Offline recovery: rebuild every unfinished session found in a
    daemon state directory from its write-ahead journal and print (or
    write) the reports — for when the crashed daemon's host is gone
    and no replacement daemon will ever replay the journals.

``dsspy migrate STATE_DIR``
    Bring journals and checkpoints written by an older dsspy build to
    this build's on-disk format, one crash-safe file rewrite at a
    time.  Idempotent; refuses downgrades.

``dsspy fleet upgrade STATE_DIR``
    Ask a running fleet supervisor (``dsspy serve --workers N``) to
    roll its workers onto the current code one at a time: drain,
    checkpoint, migrate the shard state, respawn, resume.

``dsspy chaos``
    Seeded soak: each trial pushes a randomized trace through batch
    analysis, the streaming engine, and a live daemon behind network,
    disk, storm and upgrade faults, asserting all three agree exactly
    and that the no-silent-loss ledger balances.  The first violating
    trial is shrunk to a minimal trace.

``dsspy bench``
    The recording-overhead benchmark (:mod:`repro.bench`): measure
    every transport's per-event cost, emit the machine-readable JSON
    document, and — with ``--check`` — enforce the CI perf-ratchet
    against the checked-in baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _rank_with_predictions(report, cores: int = 8):
    """Annotate every use case with its what-if predicted speedup and
    order the report by expected payoff (ties keep threshold order).
    The work/span come from the report's own analysis fold."""
    from .parallel.machine import MachineConfig, SimulatedMachine
    from .whatif import annotate_report, rank_report

    machine = SimulatedMachine(MachineConfig(cores=cores))
    return rank_report(annotate_report(report, machine))


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .events import (
        BatchingChannel,
        SynchronousChannel,
        parse_sampling,
        read_profiles,
        save_profiles,
    )
    from .instrument import RewriteConfig, run_instrumented_file
    from .usecases import UseCaseEngine, format_summary, format_table_v

    if args.load:
        profiles = read_profiles(args.load)
        print(f"{args.load}: {len(profiles)} archived profiles loaded")
        report = _rank_with_predictions(UseCaseEngine().analyze(profiles))
        print(format_table_v(report, title=f"DSspy use cases from {args.load}"))
        print(format_summary(report, name=str(args.load)))
        return 0

    if args.remote and args.spill:
        print("--remote and --spill are mutually exclusive", file=sys.stderr)
        return 2
    try:
        sampling = parse_sampling(args.sample, seed=args.sample_seed)
        if args.remote:
            from .service import RemoteChannel

            try:
                channel = RemoteChannel(
                    args.remote,
                    batch_size=args.batch_size,
                    give_up_after=args.remote_give_up,
                    fallback_spill=args.remote_spill,
                )
            except OSError as exc:
                print(
                    f"cannot reach profiling daemon at {args.remote}: {exc}",
                    file=sys.stderr,
                )
                return 2
        elif args.spill:
            channel = BatchingChannel(batch_size=args.batch_size, spill=args.spill)
        else:
            channel = SynchronousChannel()
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # Fail-open posture (on by default): profiler-internal faults are
    # contained by a firewall instead of crashing the analyzed program,
    # a watchdog trips the breaker on silent transport stalls, and the
    # terminal drain is bounded.  --guard-budget 0 restores fail-loud.
    guard = None
    watchdog = None
    if args.guard_budget > 0:
        from .runtime import (
            RuntimeGuard,
            Watchdog,
            channel_stall_probe,
            heartbeat_probe,
        )

        guard = RuntimeGuard(
            budget=args.guard_budget, exit_deadline=args.exit_drain_timeout
        )
        guard.watch_channel(channel)
        watchdog = Watchdog(guard)
        watchdog.add_probe("channel", channel_stall_probe(channel))
        if args.remote:
            watchdog.add_probe("daemon heartbeat", heartbeat_probe(channel))
        watchdog.start()
    if args.no_sites:
        from .structures.base import set_site_capture

        set_site_capture(False)

    config = RewriteConfig(dicts=args.dicts)
    try:
        run = run_instrumented_file(
            args.file,
            entry=args.entry,
            config=config,
            channel=channel,
            sampling=sampling,
            guard=guard,
        )
    finally:
        if watchdog is not None:
            watchdog.stop()
        if args.no_sites:
            from .structures.base import set_site_capture

            set_site_capture(True)
    print(
        f"{args.file}: {run.rewrite.rewrites} sites instrumented, "
        f"{run.collector.instance_count} instances, "
        f"{run.event_count} access events in {run.duration:.3f}s"
    )
    if run.collector.sampled_out:
        print(
            f"sampling ({run.collector.sampling.describe()}): "
            f"{run.collector.sampled_out} events not recorded"
        )
    if args.spill:
        print(f"raw events spilled to {args.spill}")
    if args.save:
        save_profiles(run.profiles, args.save)
        print(f"profiles archived to {args.save}")
    # analyze_collector recalibrates the detector when the capture was
    # sampled (wider max_gap, rescaled count thresholds).
    report = _rank_with_predictions(UseCaseEngine().analyze_collector(run.collector))
    print()
    print(format_table_v(report, title=f"DSspy use cases for {args.file}"))
    print()
    print(format_summary(report, name=str(args.file)))
    if args.remote:
        ack = getattr(channel, "final_ack", None)
        spill_path = getattr(channel, "spill_path", None)
        if spill_path is not None:
            print(
                f"remote: gave up on daemon at {args.remote}; unshipped events "
                f"spilled to {spill_path} (the report above already covers "
                "them — replay the spill only to update the daemon's copy)"
            )
        if ack is None:
            print(f"remote: daemon at {args.remote} unreachable at session end")
        else:
            from .usecases import summarize_json

            print(
                f"remote: session {ack['session']} streamed {ack['received']} "
                f"events to {args.remote}; daemon found "
                f"{summarize_json(ack['report'])}"
            )
    if guard is not None:
        guard_report = guard.report()
        if guard_report.faults or guard_report.tripped or guard_report.trips:
            print()
            print(guard_report.describe())
    if args.charts:
        from .viz import render_profile

        for profile in run.collector.nonempty_profiles():
            print()
            print(f"--- {profile} ---")
            print(render_profile(profile, width=72, height=10))
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from .parallel.machine import MachineConfig, SimulatedMachine
    from .usecases import UseCaseEngine, report_to_json
    from .whatif import annotate_report, format_whatif_table, rank_report

    machine = SimulatedMachine(MachineConfig(cores=args.cores))

    def emit(report, spans, title: str) -> None:
        report = rank_report(annotate_report(report, machine, spans))
        if args.json:
            print(report_to_json(report))
        else:
            print(format_whatif_table(report, machine, spans, top=args.top, title=title))
            if not report.use_cases:
                print("no use cases flagged — nothing to parallelize here")
            elif not any(u.parallel for u in report.use_cases):
                print("no parallel use cases flagged — sequential advice only")

    if args.address:
        # Live path: quiesced engine snapshots, one session per SNAPSHOT.
        from .service.durability import engine_from_dict
        from .service.router import gather_snapshots

        try:
            snapshots, errors = gather_snapshots(
                [args.address], timeout=10.0, session=args.session
            )
        except ValueError as exc:  # a malformed address
            snapshots, errors = [], [{"error": str(exc)}]
        if not snapshots:
            if errors:
                detail = "; ".join(str(e["error"]) for e in errors)
                print(f"cannot snapshot {args.address}: {detail}", file=sys.stderr)
                return 2
            which = f"session {args.session!r}" if args.session else "any session"
            print(f"{args.address}: no snapshot for {which}", file=sys.stderr)
            return 1
        for snap in snapshots:
            engine = engine_from_dict(snap["engine"])
            emit(
                engine.report(),
                engine.workspans(),
                f"What-if predictions for session {snap['session']} @ {args.address}",
            )
        return 0

    if not args.trace:
        print("whatif needs a trace file or --address", file=sys.stderr)
        return 2
    path = Path(args.trace)
    if not path.exists():
        print(f"no such trace: {path}", file=sys.stderr)
        return 2
    with path.open("rb") as fh:
        head = fh.read(8)
    from .events.spill import MAGIC

    if head == MAGIC:
        # Binary spill: raw tuples with no registrations, so profiles
        # are rebuilt with a default structure kind (list).
        from .events.profile import RuntimeProfile
        from .events.spill import iter_spill_events
        from .events.types import StructureKind

        profiles_by_id: dict[int, object] = {}
        for event in iter_spill_events(path):
            profile = profiles_by_id.get(event.instance_id)
            if profile is None:
                profile = profiles_by_id[event.instance_id] = RuntimeProfile(
                    event.instance_id, kind=StructureKind.LIST
                )
            profile.append(event)
        profiles = [profiles_by_id[iid] for iid in sorted(profiles_by_id)]
    else:
        from .events import read_profiles

        try:
            profiles = read_profiles(path)
        except (ValueError, UnicodeDecodeError) as exc:
            print(f"{path}: not a spill file or profile archive: {exc}", file=sys.stderr)
            return 2
    report = UseCaseEngine().analyze(profiles)
    emit(report, report.workspans, f"What-if predictions for {path}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    from .instrument import suggest_transforms, transform_source

    source = Path(args.file).read_text(encoding="utf-8")
    if args.dry_run:
        suggestions = suggest_transforms(source)
        for line in suggestions or ["nothing to transform"]:
            print(line)
        return 0
    transformed, report = transform_source(source)
    for line in report.applied:
        print(f"applied: {line}")
    for line in report.skipped:
        print(f"skipped: {line}")
    out_path = Path(args.output) if args.output else Path(args.file).with_suffix(
        ".parallel.py"
    )
    out_path.write_text(transformed, encoding="utf-8")
    print(f"{report.count} transforms -> {out_path}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .instrument import find_sites_in_file, scan_program

    path = Path(args.path)
    if path.is_file():
        sites = find_sites_in_file(path)
        for site in sites:
            print(site.describe())
        print(f"{len(sites)} instantiation sites")
    else:
        stats = scan_program(path)
        print(f"{stats.name}: {stats.loc} LOC")
        for kind, count in sorted(
            stats.counts.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {kind.value:<18} {count}")
        print(
            f"  dynamic instances: {stats.dynamic_instances}, "
            f"arrays: {stats.array_instances}"
        )
    return 0


_TABLE_NAMES = ("table1", "fig1", "table2", "table3", "table4", "table6", "table7")


def _cmd_tables(args: argparse.Namespace) -> int:
    names = args.names or list(_TABLE_NAMES)
    for name in names:
        if name not in _TABLE_NAMES:
            print(f"unknown table {name!r}; choose from {_TABLE_NAMES}", file=sys.stderr)
            return 2
    from . import eval as eval_pkg
    from .study import run_occurrence_study, run_regularity_study, run_usecase_survey

    for name in names:
        if name in ("table1", "fig1"):
            study = run_occurrence_study(loc_scale=0.05)
            text = (
                eval_pkg.render_table1(study)
                if name == "table1"
                else eval_pkg.render_figure1(study)
            )
        elif name == "table2":
            text = eval_pkg.render_table2(run_regularity_study())
        elif name == "table3":
            text = eval_pkg.render_table3(run_usecase_survey())
        elif name == "table4":
            text = eval_pkg.render_table4(
                eval_pkg.evaluate_all(scale=args.scale)
            )
        elif name == "table6":
            text = eval_pkg.render_table6(eval_pkg.run_fraction_analysis())
        else:
            text = eval_pkg.render_table7()
        print(text)
        print()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .events import collecting
    from .usecases import UseCaseEngine, format_table_v
    from .viz import render_profile
    from .workloads.generators import gen_insert_and_scan

    with collecting() as session:
        gen_insert_and_scan(items=200, rounds=12, label="demo")
    profile = session.profiles_by_label()["demo"]
    print(render_profile(profile, width=72, height=12))
    print()
    report = UseCaseEngine().analyze_collector(session)
    print(format_table_v(report, title="DSspy demo"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .events import read_profiles
    from .patterns import compare_reports
    from .usecases import UseCaseEngine

    engine = UseCaseEngine()
    before = engine.analyze(read_profiles(args.before))
    after = engine.analyze(read_profiles(args.after))
    diff = compare_reports(before, after)
    print(diff.describe())
    if diff.fully_resolved and diff.resolved:
        print("all previously detected use cases resolved")
    return 0 if not diff.introduced else 1


def _cmd_quality(args: argparse.Namespace) -> int:
    from .eval import evaluate_detection_quality

    quality = evaluate_detection_quality()
    print(quality.describe())
    return 0 if quality.macro_f1 >= args.min_f1 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .eval import write_report

    report = write_report(
        args.output,
        scale=args.scale,
        measure_slowdown=not args.no_slowdown,
    )
    print(f"report written to {args.output}")
    print(f"headline reproduction OK: {report.headline_ok}")
    return 0 if report.headline_ok else 1


def _write_port_file(path: str | None, port: int | None) -> None:
    """Publish the bound port atomically (supervisors poll this file, so
    they must never read a partial write)."""
    if path is None or port is None:
        return
    import os

    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(f"{port}\n")
    os.replace(tmp, target)


def _parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix ("64M")."""
    text = text.strip()
    multiplier = 1
    if text and text[-1].upper() in "KMG":
        multiplier = 1024 ** ("KMG".index(text[-1].upper()) + 1)
        text = text[:-1]
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {text!r}; use an integer with optional K/M/G"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"byte size must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a rate quota: a number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers > 1:
        return _serve_fleet(args)
    from .service import ProfilingDaemon

    fault_fs = None
    if args.fault_fs:
        from .testing.faults import FaultFS

        fault_fs = FaultFS.from_spec(args.fault_fs)
        print(f"FAULT-FS ACTIVE: {args.fault_fs} (testing only)", file=sys.stderr)

    daemon = ProfilingDaemon(
        host=args.host,
        port=args.port,
        unix_socket=args.unix,
        heartbeat_timeout=args.heartbeat_timeout,
        session_linger=args.linger,
        report_dir=args.report_dir,
        state_dir=args.state_dir,
        checkpoint_every=args.checkpoint_every,
        journal_fsync=args.journal_fsync,
        max_events_per_sec=args.max_events_per_sec,
        session_max_events_per_sec=args.session_max_events_per_sec,
        retry_after=args.retry_after,
        state_budget=args.state_budget,
        fs=fault_fs,
    )
    print(f"dsspy daemon listening on {daemon.address}")
    if daemon.bound_port is not None:
        # Machine-readable: callers that asked for --port 0 parse the
        # real port from this line (or from --port-file).
        print(f"PORT={daemon.bound_port}", flush=True)
    _write_port_file(args.port_file, daemon.bound_port)
    if args.report_dir:
        print(f"session reports will be written to {args.report_dir}")
    if args.state_dir:
        print(f"write-ahead journals under {args.state_dir}")
        if daemon.recovered_sessions:
            print(
                f"recovered {len(daemon.recovered_sessions)} session(s) "
                f"from the journal: {', '.join(daemon.recovered_sessions)}"
            )
    print("press Ctrl-C or send SIGTERM to shut down")
    daemon.serve_forever()
    print("daemon shut down; all sessions flushed")
    return 0


def _fleet_supervisor(args: argparse.Namespace):
    """The (unstarted) supervisor for ``dsspy serve --workers N``; every
    worker gets the per-daemon options below."""
    from .service.fleet import FleetSupervisor

    serve_args = ["--retry-after", str(args.retry_after)]
    if args.journal_fsync:
        serve_args.append("--journal-fsync")
    for flag, value in (
        ("--max-events-per-sec", args.max_events_per_sec),
        ("--session-max-events-per-sec", args.session_max_events_per_sec),
        ("--state-budget", args.state_budget),
        ("--fault-fs", args.fault_fs),
    ):
        if value is not None:
            serve_args += [flag, str(value)]
    return FleetSupervisor(
        args.workers,
        args.state_dir,
        host=args.host,
        port=args.port,
        report_dir=args.report_dir,
        checkpoint_every=args.checkpoint_every,
        heartbeat_timeout=args.heartbeat_timeout,
        linger=args.linger,
        serve_args=serve_args,
    )


def _serve_fleet(args: argparse.Namespace) -> int:
    import signal
    import threading

    if args.unix:
        print("--workers is TCP-only (--unix is single-daemon)", file=sys.stderr)
        return 2
    if not args.state_dir:
        print(
            "--workers requires --state-dir: supervised restart recovers "
            "crashed workers from their shard journals",
            file=sys.stderr,
        )
        return 2
    supervisor = _fleet_supervisor(args)
    supervisor.start()
    port = int(supervisor.address.rsplit(":", 1)[1])
    print(
        f"dsspy fleet listening on {supervisor.address} ({args.workers} workers)"
    )
    print(f"PORT={port}", flush=True)
    _write_port_file(args.port_file, port)
    print(f"shard state under {args.state_dir}/shard-NN")
    if supervisor.rebalanced:
        moved = sum(1 for m in supervisor.rebalanced if m["moved"])
        print(f"rebalanced {moved} on-disk session(s) to their assigned shards")
    print("press Ctrl-C or send SIGTERM to shut down")
    print("send SIGHUP (or run 'dsspy fleet upgrade') for a rolling upgrade")
    stop = threading.Event()
    upgrade_requested = threading.Event()

    def _handler(signum, frame):  # noqa: ARG001
        stop.set()

    def _upgrade_handler(signum, frame):  # noqa: ARG001
        upgrade_requested.set()

    try:
        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)
        signal.signal(signal.SIGHUP, _upgrade_handler)
    except ValueError:
        pass  # not the main thread
    # `dsspy fleet upgrade` finds the supervisor through this pid file.
    pid_path = Path(args.state_dir) / "supervisor.pid"
    import os as _os

    pid_path.write_text(f"{_os.getpid()}\n")
    try:
        while not stop.wait(0.2):
            if not upgrade_requested.is_set():
                continue
            upgrade_requested.clear()
            print("SIGHUP: rolling upgrade starting", flush=True)
            try:
                results = supervisor.rolling_upgrade()
            except OSError as exc:
                print(f"rolling upgrade failed: {exc}", file=sys.stderr)
            else:
                forced = sum(1 for r in results if r.get("forced"))
                migrated = sum(1 for r in results if r.get("migrated"))
                print(
                    f"rolling upgrade complete: {len(results)} worker(s) "
                    f"restarted, {migrated} shard(s) migrated"
                    + (f", {forced} force-killed past the drain" if forced else ""),
                    flush=True,
                )
    finally:
        try:
            pid_path.unlink()
        except OSError:
            pass
        supervisor.stop()
    print("fleet shut down; all workers drained")
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    import json as _json

    from .service import fetch_stats
    from .service.protocol import ProtocolError

    try:
        stats = fetch_stats(args.address)
    except ValueError as exc:
        # Malformed address spec (bad port, empty host, ...).
        print(f"invalid daemon address {args.address!r}: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        # Reached something, but it does not speak the dsspy protocol —
        # or the daemon rejected the request (e.g. stale socket owner).
        print(f"daemon at {args.address} sent a bad reply: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach daemon at {args.address}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(stats, indent=2))
        return 0
    if args.fleet or stats.get("fleet"):
        return _render_fleet_sessions(stats)
    build = stats.get("build") or {}
    build_note = (
        f" -- dsspy {build['package']}, proto {build['proto']}, "
        f"journal v{build['journal_format']}, "
        f"checkpoint v{build['checkpoint_format']}"
        if build
        else ""
    )
    print(f"daemon {stats['address']}, up {stats['uptime_sec']}s{build_note}")
    if stats.get("frames_skipped"):
        print(
            f"unknown frame types skipped: {stats['frames_skipped']} "
            "(newer-protocol peer; events unaffected)"
        )
    sessions = stats["sessions"]
    if not sessions:
        print("no sessions")
        return 0
    header = (
        f"{'session':<14} {'state':<9} {'received':>10} {'ev/s':>8} "
        f"{'dup':>6} {'defer':>6} "
        f"{'ckpt':>5} {'refus':>5} {'stage':<8} {'press':<7} {'pr':>2} "
        f"{'inst':>5}  flagged"
    )
    print(header)
    print("-" * len(header))
    for s in sessions:
        flagged = ", ".join(
            f"#{iid}:{'/'.join(kinds)}" for iid, kinds in sorted(s["flagged"].items())
        ) or "-"
        state = s["state"] + ("*" if s.get("recovered") else "")
        proto = s.get("proto")
        print(
            f"{s['session']:<14} {state:<9} {s['received']:>10} "
            f"{s['events_per_sec']:>8} {s['duplicates']:>6} "
            f"{s.get('deferred', 0):>6} "
            f"{s.get('checkpoints', 0):>5} {s.get('refused_windows', 0):>5} "
            f"{s.get('stage', 'normal'):<8} "
            f"{s.get('pressure', 'normal'):<7} "
            f"{'-' if proto is None else proto:>2} "
            f"{s['instances']:>5}  {flagged}"
        )
    if any(s.get("recovered") for s in sessions):
        print("(* = session rebuilt from its write-ahead journal)")
    return 0


def _render_fleet_sessions(stats: dict) -> int:
    """Fleet-shaped STATS reply (a router's aggregated view): worker
    summary plus the merged session table with a shard column."""
    workers = stats.get("workers", [])
    drain_note = (
        f", {stats['drain_refusals']} drain refusal(s)"
        if stats.get("drain_refusals")
        else ""
    )
    print(
        f"fleet {stats['address']}: {len(workers)} workers, "
        f"{stats.get('routed_connections', 0)} connections routed{drain_note}"
    )
    for row in workers:
        if "error" in row:
            print(
                f"  worker {row['worker']} at {row['address']}: "
                f"DOWN ({row['error']})"
            )
        else:
            recovered = row.get("recovered_sessions") or []
            note = f", {len(recovered)} recovered" if recovered else ""
            build = row.get("build") or {}
            if build:
                note += f", proto {build['proto']}, dsspy {build['package']}"
            if row.get("pressure") and row["pressure"] != "normal":
                note += f", pressure {row['pressure']}"
            if row.get("frames_skipped"):
                note += f", {row['frames_skipped']} unknown frame(s) skipped"
            if row.get("draining"):
                note += ", DRAINING"
            print(
                f"  worker {row['worker']} at {row['address']}: "
                f"{row['sessions']} session(s){note}"
            )
    sessions = stats.get("sessions", [])
    if not sessions:
        print("no sessions")
        return 0
    header = (
        f"{'session':<14} {'wkr':>3} {'state':<9} {'received':>10} "
        f"{'ev/s':>8} {'defer':>6} {'stage':<8} {'inst':>5}  flagged"
    )
    print(header)
    print("-" * len(header))
    for s in sorted(sessions, key=lambda s: s["session"]):
        flagged = ", ".join(
            f"#{iid}:{'/'.join(kinds)}" for iid, kinds in sorted(s["flagged"].items())
        ) or "-"
        state = s["state"] + ("*" if s.get("recovered") else "")
        print(
            f"{s['session']:<14} {s.get('worker', '?'):>3} {state:<9} "
            f"{s['received']:>10} {s['events_per_sec']:>8} "
            f"{s.get('deferred', 0):>6} {s.get('stage', 'normal'):<8} "
            f"{s['instances']:>5}  {flagged}"
        )
    if any(s.get("recovered") for s in sessions):
        print("(* = session rebuilt from its write-ahead journal)")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json as _json
    import shutil

    from .service import FutureFormatError, recover_session_dir, walk_state_dir
    from .service.durability import shard_index
    from .usecases.json_export import report_to_dict, summarize_json

    # Every layout: one bare session dir, a daemon's state dir, or a
    # fleet's with its shard-NN subdirectories, in one invocation.
    session_dirs = walk_state_dir(args.state_dir)
    if not session_dirs:
        print(f"no recoverable sessions under {args.state_dir}")
        return 0
    shards = {d.parent for d in session_dirs if shard_index(d.parent) is not None}
    if shards:
        print(
            f"fleet state dir: recovering {len(session_dirs)} session(s) "
            f"across {len(shards)} shard(s)"
        )
    report_dir = Path(args.report_dir) if args.report_dir else None
    results = []
    for directory in session_dirs:
        try:
            recovered = recover_session_dir(directory)
        except FutureFormatError as exc:
            print(f"state written by a newer dsspy build: {exc}", file=sys.stderr)
            return 2
        report = report_to_dict(recovered.engine.report())
        results.append(
            {
                "session": recovered.session_id,
                "directory": str(directory),
                "received": recovered.received,
                "applied": recovered.applied,
                "finished": recovered.finished,
                "checkpoint_loaded": recovered.checkpoint_loaded,
                "events_replayed": recovered.events_replayed,
                "truncated_bytes": recovered.truncated_bytes,
                "notes": list(recovered.notes),
                "report": report,
            }
        )
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)
        for entry in results:
            path = report_dir / f"{entry['session']}.json"
            path.write_text(_json.dumps(entry["report"], indent=2))
    if args.json:
        print(_json.dumps(results, indent=2))
    else:
        for entry in results:
            status = "finished" if entry["finished"] else "interrupted"
            print(
                f"{entry['session']}: {status}, {entry['received']} events "
                f"journaled, {entry['events_replayed']} replayed past the "
                f"checkpoint"
                + (
                    f", {entry['truncated_bytes']} torn tail bytes dropped"
                    if entry["truncated_bytes"]
                    else ""
                )
            )
            for note in entry["notes"]:
                print(f"  note: {note}")
            print(f"  {summarize_json(entry['report'])}")
        if report_dir is not None:
            print(f"reports written to {report_dir}")
    if args.purge:
        for directory in session_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        print(f"purged {len(session_dirs)} session journal(s)")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from .service.fsck import fsck_state_dir

    report = fsck_state_dir(args.state_dir, repair=args.repair, shards=args.shards)
    # stdout is the machine-readable report (pipe it to jq / archive it
    # as a CI artifact); the human summary goes to stderr.
    print(_json.dumps(report, indent=2))
    for entry in report["sessions"]:
        status = "ok" if entry["ok"] else "CORRUPT"
        if entry["repaired"] or entry["quarantined"]:
            status = "repaired"
        elif entry.get("needs_migration"):
            status = "needs-migration"
        versions = entry.get("versions") or {}
        segment_versions = sorted(
            {v for v in (versions.get("segments") or {}).values() if v is not None}
        )
        format_note = ""
        if segment_versions or versions.get("checkpoint") is not None:
            seg_part = (
                "segments " + "/".join(f"v{v}" for v in segment_versions)
                if segment_versions
                else "no segments"
            )
            ckpt = versions.get("checkpoint")
            ckpt_part = "no checkpoint" if ckpt is None else f"checkpoint v{ckpt}"
            format_note = f" [{seg_part}, {ckpt_part}]"
        print(
            f"{entry['session']}: {status}, {entry['segments']} segment(s), "
            f"{len(entry['problems'])} problem(s), "
            f"{len(entry['quarantined'])} quarantined{format_note}",
            file=sys.stderr,
        )
        for problem in entry["problems"]:
            print(f"  problem: {problem}", file=sys.stderr)
        for note in entry.get("needs_migration", []):
            print(f"  needs-migration: {note}", file=sys.stderr)
        for action in entry["repaired"]:
            print(f"  repaired: {action}", file=sys.stderr)
    needs_migration = report.get("needs_migration", 0)
    print(
        f"fsck {report['root']}: {report.get('checked', 0)} session(s), "
        f"{report.get('with_problems', 0)} with problems"
        + (
            f", {needs_migration} needing migration (run 'dsspy migrate')"
            if needs_migration
            else ""
        )
        + ("" if report["ok"] else " -- NOT CLEAN"),
        file=sys.stderr,
    )
    # Exit codes: 0 clean, 1 damaged, 2 clean but written by a newer
    # build (needs migration — not an integrity failure).
    if not report["ok"]:
        return 1
    return 2 if needs_migration else 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    import json as _json

    from .service.durability import FutureFormatError
    from .service.migrate import STATE_VERSION, DowngradeError, migrate_state_dir

    to = args.to if args.to is not None else STATE_VERSION
    try:
        report = migrate_state_dir(args.state_dir, to=to)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except DowngradeError as exc:
        print(f"refusing to migrate: {exc}", file=sys.stderr)
        return 2
    except FutureFormatError as exc:
        print(f"state written by a newer dsspy build: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(report, indent=2))
        return 0
    for entry in report["sessions"]:
        if entry["steps"]:
            print(f"{entry['path']}: {' '.join(entry['steps'])}")
        else:
            origin = entry["from"]
            state = "nothing versioned" if origin is None else f"v{origin}"
            print(f"{entry['path']}: already current ({state})")
    print(
        f"migrate {report['root']}: {len(report['sessions'])} session(s), "
        f"{report['migrated']} migrated to v{report['to']}"
    )
    return 0


def _cmd_fleet_upgrade(args: argparse.Namespace) -> int:
    import os
    import signal
    import time

    pid_path = Path(args.state_dir) / "supervisor.pid"
    try:
        pid = int(pid_path.read_text().strip())
    except (OSError, ValueError):
        print(
            f"no supervisor pid file at {pid_path} — is "
            "'dsspy serve --workers N --state-dir ...' running?",
            file=sys.stderr,
        )
        return 2
    baseline = None
    workers = None
    if args.address:
        from .service import fetch_stats

        try:
            stats = fetch_stats(args.address)
            baseline = stats.get("upgrades", 0)
            workers = len(stats.get("workers", []))
        except (OSError, ValueError) as exc:
            print(f"cannot reach fleet at {args.address}: {exc}", file=sys.stderr)
            return 2
    try:
        os.kill(pid, signal.SIGHUP)
    except ProcessLookupError:
        print(f"supervisor pid {pid} is gone (stale {pid_path})", file=sys.stderr)
        return 2
    except PermissionError as exc:
        print(f"cannot signal supervisor pid {pid}: {exc}", file=sys.stderr)
        return 2
    print(f"rolling upgrade requested (SIGHUP to supervisor pid {pid})")
    if baseline is None:
        print("pass --address to wait for completion and verify")
        return 0
    from .service import fetch_stats

    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        time.sleep(0.5)
        try:
            stats = fetch_stats(args.address)
        except (OSError, ValueError):
            continue  # router briefly busy mid-respawn
        if stats.get("upgrades", 0) >= baseline + workers:
            print(
                f"rolling upgrade complete: {workers} worker(s) upgraded "
                f"({stats['upgrades']} lifetime upgrades)"
            )
            for row in stats.get("workers", []):
                build = row.get("build") or {}
                if build:
                    print(
                        f"  worker {row['worker']}: dsspy {build['package']}, "
                        f"proto {build['proto']}, "
                        f"journal v{build['journal_format']}"
                    )
            return 0
    print(
        f"timed out after {args.timeout}s waiting for {workers} worker "
        "upgrade(s); the supervisor may still be draining — check "
        f"'dsspy sessions {args.address}'",
        file=sys.stderr,
    )
    return 1


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    import json as _json
    import tempfile

    from .service.fleet import FleetSupervisor, ResultCache, fleet_run
    from .usecases.json_export import summarize_json
    from .workloads import EVALUATION_WORKLOADS, workload_by_name

    names = args.workloads or [w.name for w in EVALUATION_WORKLOADS]
    try:
        names = [workload_by_name(n).name for n in names]
    except KeyError as exc:
        print(f"unknown workload {exc.args[0]!r}", file=sys.stderr)
        return 2
    tasks = [
        {
            "workload": name,
            "scale": args.scale,
            "session": f"{name.lower().replace(' ', '-')}-x{args.scale}-r{index}",
        }
        for name in names
        for index in range(args.sessions)
    ]
    cache = ResultCache(args.cache_dir)
    state_dir = args.state_dir or tempfile.mkdtemp(prefix="dsspy-fleet-run-")

    def progress(kind: str, config: dict) -> None:
        print(f"  [{kind}] {config['session']}")

    with FleetSupervisor(args.workers, state_dir, heartbeat_timeout=60.0) as sup:
        print(
            f"fleet of {args.workers} workers at {sup.address}; "
            f"{len(tasks)} task(s), cache at {cache.root}"
        )
        summary = fleet_run(
            tasks,
            sup.address,
            cache,
            workers=sup.worker_addresses(),
            concurrency=args.concurrency,
            on_progress=None if args.json else progress,
        )
        # Merge what this run actually streamed (cache hits never
        # touched the fleet): the converged fleet-wide report.
        merged = sup.coordinator().collect()
    out = {"summary": {k: v for k, v in summary.items() if k != "results"},
           "results": summary["results"], "merged": merged}
    if args.output:
        Path(args.output).write_text(_json.dumps(out, indent=2))
    if args.json:
        print(_json.dumps(out, indent=2))
    else:
        print(
            f"{summary['tasks']} task(s): {summary['cache_hits']} cached, "
            f"{summary['ran']} ran, {len(summary['failures'])} failed"
        )
        mix = ", ".join(f"{k}={v}" for k, v in sorted(summary["flagged"].items()))
        print(f"flagged across all sessions: {mix or 'none'}")
        if merged["report"] is not None:
            print(f"fleet-merged (this run): {summarize_json(merged['report'])}")
        if not merged["complete"]:
            print(f"merge incomplete: {merged['errors']}", file=sys.stderr)
        if args.output:
            print(f"full results written to {args.output}")
    for failure in summary["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if summary["failures"] or not merged["complete"] else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from .testing.chaos import ChaosSoak, InvariantMonitor

    soak = ChaosSoak(
        backend=args.backend,
        fault_intensity=args.fault_intensity,
        max_faults=args.max_faults,
        window=args.window,
        disk_fault_rate=args.disk_fault_rate,
        storm_rate=args.storm_rate,
        upgrade_rate=args.upgrade_rate,
        fleet_workers=args.workers,
        fleet_sessions=args.sessions,
        fleet_fault_fs_spec=args.fault_fs,
        monitor=InvariantMonitor(recovery_bound=args.recovery_bound),
    )

    first_violation = []

    def progress(result) -> None:
        if not result.ok:
            print(result.describe(), file=sys.stderr)
            if result.trace is not None and not first_violation:
                first_violation.append(result)
        elif args.progress and (result.seed - args.seed + 1) % args.progress == 0:
            print(
                f"  {result.seed - args.seed + 1} trials ok "
                f"(last: {result.events} events, {result.kills} kills, "
                f"{result.refusals_observed} refusals)",
                file=sys.stderr,
            )

    try:
        summary = soak.run(
            trials=args.trials,
            duration=args.duration,
            base_seed=args.seed,
            ledger_path=args.ledger,
            progress=progress,
            stop_on_violation=args.stop_on_violation,
        )
        if first_violation:
            _print_shrunk_reproduction(soak, first_violation[0], args)
    finally:
        soak.close()
    # stdout is the machine-readable soak summary; per-trial detail is
    # in the --ledger JSONL and the stderr stream.
    print(_json.dumps(summary, indent=2))
    print(
        f"chaos soak ({summary['backend']}): {summary['trials']} trials, "
        f"{summary['kills']} kills, {summary['refusals_observed']} refusals, "
        f"{len(summary['seeds_with_violations'])} trial(s) with violations"
        + ("" if summary["ok"] else " -- LEDGER VIOLATED"),
        file=sys.stderr,
    )
    return 0 if summary["ok"] else 1


def _print_shrunk_reproduction(soak, result, args: argparse.Namespace) -> None:
    """Shrink a violating inproc trial's trace and print it, with the
    command that replays the trial, to stderr."""
    print(f"shrinking the trace of seed {result.seed} ...", file=sys.stderr)
    try:
        minimal = soak.shrink_failure(result)
    except ValueError:
        print("the violation did not reproduce on replay", file=sys.stderr)
    else:
        print(f"minimal reproduction: {minimal.describe()}", file=sys.stderr)
        for raw in minimal.events:
            print(f"  {raw}", file=sys.stderr)
    print(
        f"replay with: dsspy chaos --trials 1 --seed {result.seed} "
        f"--fault-intensity {args.fault_intensity} --max-faults {args.max_faults} "
        f"--window {args.window} --disk-fault-rate {args.disk_fault_rate} "
        f"--storm-rate {args.storm_rate} --upgrade-rate {args.upgrade_rate}",
        file=sys.stderr,
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run as bench_run

    return bench_run(args)


#: The committed baseline ``dsspy bench --check`` compares against.
DEFAULT_BENCH_BASELINE = "benchmarks/baselines/overhead_baseline.json"


def configure_bench_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``bench`` arguments on ``parser`` (shared between
    ``python -m repro.bench`` and the ``dsspy bench`` subcommand).
    Declared here so that building the ``dsspy`` parser does not import
    :mod:`repro.bench`."""
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("-o", "--output", default=None, help="write the JSON doc here")
    parser.add_argument(
        "--json", action="store_true", help="print the full JSON doc to stdout"
    )
    parser.add_argument(
        "--input",
        default=None,
        metavar="JSON",
        help="reuse an existing benchmark JSON instead of measuring",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="perf-ratchet mode: fail when a gated metric regressed past "
        "--max-regression or broke a hard ceiling from the baseline",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BENCH_BASELINE,
        metavar="JSON",
        help="checked-in baseline for --check",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="allowed fractional slowdown per gated metric (0.10 = +10%%)",
    )
    parser.add_argument(
        "--append-trajectory",
        default=None,
        metavar="CSV",
        help="append this run to the benchmark-trajectory CSV",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="also run the many-producer fleet scaling benchmark "
        "(adds the 'fleet' section, fleet_*_vs_1w metrics, and floors)",
    )
    parser.add_argument(
        "--fleet-producers",
        type=int,
        default=1000,
        metavar="N",
        help="total producer sessions for the fleet benchmark",
    )
    parser.add_argument(
        "--fleet-events",
        type=int,
        default=200,
        metavar="N",
        help="events recorded per producer session",
    )
    parser.add_argument(
        "--fleet-workers",
        default="1,2,4,8",
        metavar="LIST",
        help="comma-separated fleet sizes to measure",
    )
    parser.add_argument(
        "--fleet-procs",
        type=int,
        default=4,
        metavar="N",
        help="producer subprocesses the sessions are spread over",
    )
    parser.add_argument(
        "--fleet-concurrency",
        type=int,
        default=16,
        metavar="N",
        help="concurrent sessions per producer subprocess",
    )
    parser.add_argument(
        "--fleet-curve",
        default=None,
        metavar="TXT",
        help="write the human-readable scaling curve here",
    )
    parser.add_argument(
        "--whatif",
        action="store_true",
        help="also run the what-if prediction-accuracy differential "
        "(adds the 'whatif' section, whatif_within_band, and its floor)",
    )
    parser.add_argument(
        "--whatif-only",
        action="store_true",
        help="run ONLY the what-if differential (skip the overhead "
        "suite) — the CI whatif-accuracy job's fast path",
    )
    parser.add_argument(
        "--whatif-cores",
        type=int,
        default=8,
        metavar="N",
        help="machine-model core count for the what-if differential",
    )
    parser.add_argument(
        "--whatif-table",
        default=None,
        metavar="TXT",
        help="write the human-readable prediction-accuracy table here",
    )


class _VersionAction(argparse.Action):
    """``--version``: print the build line on stdout and exit.  The line
    is formatted only when the flag is given, because
    :func:`~repro.buildinfo.build_info` imports :mod:`repro.service`."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, help=None):
        super().__init__(
            option_strings, dest=dest, default=argparse.SUPPRESS, nargs=0, help=help
        )

    def __call__(self, parser, namespace, values, option_string=None):
        from .buildinfo import format_build_info

        print(format_build_info())
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsspy",
        description="DSspy: locate parallelization potential in the runtime "
        "profiles of object-oriented data structures (IPDPS 2014 reproduction).",
    )
    parser.add_argument(
        "--version",
        action=_VersionAction,
        help="print package, protocol, and on-disk format versions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="instrument and analyze a program")
    analyze.add_argument("file", nargs="?", help="Python source file to instrument")
    analyze.add_argument("--entry", default=None, help="function to call after import")
    analyze.add_argument("--dicts", action="store_true", help="also instrument dicts")
    analyze.add_argument("--charts", action="store_true", help="print profile charts")
    analyze.add_argument("--save", default=None, help="archive profiles to JSONL")
    analyze.add_argument("--load", default=None, help="analyze an archived JSONL instead")
    analyze.add_argument(
        "--sample",
        default="all",
        metavar="SPEC",
        help="sampling policy: 'all', '1/N' (decimate), or 'burst:K/N'",
    )
    analyze.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        metavar="N",
        help="seed for the sampling jitter: same seed admits the identical "
        "event set across runs (omit for the unseeded default)",
    )
    analyze.add_argument(
        "--spill",
        default=None,
        metavar="PATH",
        help="spill raw events to a binary file (records through the "
        "per-thread batching channel)",
    )
    analyze.add_argument(
        "--batch-size",
        type=int,
        default=1024,
        help="events per flushed batch with --spill or --remote",
    )
    analyze.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT",
        help="stream events to a dsspy daemon (see 'dsspy serve') instead of "
        "keeping the capture purely in-process",
    )
    analyze.add_argument(
        "--remote-give-up",
        type=float,
        default=None,
        metavar="SEC",
        help="stop retrying a dead daemon after this many seconds of "
        "continuous failure (default: retry forever)",
    )
    analyze.add_argument(
        "--remote-spill",
        default=None,
        metavar="PATH",
        help="where to spill unshipped events if --remote-give-up fires "
        "(the local report is unaffected; the spill preserves the "
        "daemon's copy)",
    )
    analyze.add_argument(
        "--guard-budget",
        type=int,
        default=25,
        metavar="N",
        help="fail-open firewall: contain up to N profiler-internal faults "
        "before the circuit breaker trips instrumentation to pass-through "
        "mode (0 disables the firewall and restores fail-loud behaviour)",
    )
    analyze.add_argument(
        "--exit-drain-timeout",
        type=float,
        default=5.0,
        metavar="SEC",
        help="upper bound on the terminal event drain when the firewall is "
        "armed — a wedged transport or dead daemon cannot delay program "
        "exit longer than this",
    )
    analyze.add_argument(
        "--no-sites",
        action="store_true",
        help="skip allocation-site capture (the per-construction stack "
        "walk) — faster for workloads allocating many structures",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    whatif = sub.add_parser(
        "whatif",
        help="rank flagged use cases by predicted speedup (work/span what-if)",
    )
    whatif.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="recorded trace: a --spill file or a --save profile archive",
    )
    whatif.add_argument(
        "--address",
        default=None,
        help="predict from a live daemon/fleet session via SNAPSHOT "
        "instead of a trace file",
    )
    whatif.add_argument(
        "--session",
        default=None,
        help="narrow --address to one session id (default: all sessions)",
    )
    whatif.add_argument(
        "--cores",
        type=int,
        default=8,
        help="machine model core count for the prediction (default 8, "
        "the paper's evaluation box)",
    )
    whatif.add_argument(
        "--top",
        type=int,
        default=None,
        help="show only the N highest-payoff rows",
    )
    whatif.add_argument(
        "--json",
        action="store_true",
        help="emit the annotated, ranked report as JSON",
    )
    whatif.set_defaults(fn=_cmd_whatif)

    transform = sub.add_parser(
        "transform", help="auto-parallelize safe Long-Insert fill loops"
    )
    transform.add_argument("file", help="Python source file to transform")
    transform.add_argument(
        "--dry-run", action="store_true", help="only report what would change"
    )
    transform.add_argument("-o", "--output", default=None, help="write result here")
    transform.set_defaults(fn=_cmd_transform)

    scan = sub.add_parser("scan", help="static analysis of a file or tree")
    scan.add_argument("path")
    scan.set_defaults(fn=_cmd_scan)

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("names", nargs="*", metavar="NAME", help=f"any of {_TABLE_NAMES}")
    tables.add_argument("--scale", type=float, default=0.3, help="workload scale")
    tables.set_defaults(fn=_cmd_tables)

    demo = sub.add_parser("demo", help="end-to-end demo on a synthetic profile")
    demo.set_defaults(fn=_cmd_demo)

    compare = sub.add_parser(
        "compare", help="diff two profile archives at the use-case level"
    )
    compare.add_argument("before", help="JSONL archive of the old capture")
    compare.add_argument("after", help="JSONL archive of the new capture")
    compare.set_defaults(fn=_cmd_compare)

    quality = sub.add_parser(
        "quality", help="detection precision/recall on the labeled corpus"
    )
    quality.add_argument("--min-f1", type=float, default=0.99)
    quality.set_defaults(fn=_cmd_quality)

    report = sub.add_parser(
        "report", help="write the full reproduction report (markdown)"
    )
    report.add_argument("-o", "--output", default="REPORT.md")
    report.add_argument("--scale", type=float, default=0.3)
    report.add_argument(
        "--no-slowdown", action="store_true", help="skip timing the baselines"
    )
    report.set_defaults(fn=_cmd_report)

    serve = sub.add_parser(
        "serve", help="run the profiling daemon for remote event streams"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7569)
    serve.add_argument(
        "--unix", default=None, metavar="PATH", help="listen on a Unix socket instead"
    )
    serve.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=30.0,
        help="seconds of client silence before its connection is dropped",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=60.0,
        help="seconds a detached session waits for resume before finalizing",
    )
    serve.add_argument(
        "--report-dir",
        default=None,
        metavar="DIR",
        help="write each finalized session's report JSON here",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="write-ahead journal directory: events are made durable "
        "before they are acknowledged, and a restarted daemon recovers "
        "every unfinished session from here",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=50_000,
        metavar="N",
        help="checkpoint a session's analysis state every N applied "
        "events so recovery replays only the journal tail",
    )
    serve.add_argument(
        "--journal-fsync",
        action="store_true",
        help="fsync every journal append (survives machine crashes, not "
        "just daemon crashes; costs throughput)",
    )
    serve.add_argument(
        "--max-events-per-sec",
        type=_positive_float,
        default=None,
        metavar="N",
        help="global ingest quota: from 1x it journaled sessions defer "
        "analysis (the report stays exact), from 4x windows and new "
        "sessions get RETRY-AFTER (with --workers: per worker)",
    )
    serve.add_argument(
        "--session-max-events-per-sec",
        type=_positive_float,
        default=None,
        metavar="N",
        help="per-session ingest quota (same ladder)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=2.0,
        metavar="SEC",
        help="backoff hint sent to shed clients",
    )
    serve.add_argument(
        "--state-budget",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="cap on total --state-dir bytes (suffixes K/M/G; with "
        "--workers: per worker shard); over budget the daemon "
        "force-checkpoints the fattest journals, evicts finished "
        "sessions, then sheds new windows",
    )
    serve.add_argument(
        "--fault-fs",
        default=None,
        metavar="SPEC",
        help="TESTING ONLY: run all journal/checkpoint I/O through a "
        "fault-injecting filesystem (enospc-after=N,partial,eio-every=K,"
        "fsync-stall=SEC or seed=N); the chaos harness uses this to "
        "starve fleet workers of disk",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard ingestion across N worker processes behind a "
        "session-affine router (requires --state-dir; 1 = single daemon); "
        "every worker gets the journal, quota, budget and fault options, "
        "and applies quotas and --state-budget to itself alone",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (atomic; lets "
        "supervisors and scripts use --port 0)",
    )
    serve.set_defaults(fn=_cmd_serve)

    sessions = sub.add_parser(
        "sessions", help="query a running daemon or fleet for session statistics"
    )
    sessions.add_argument("address", metavar="ADDRESS", help="HOST:PORT or unix:PATH")
    sessions.add_argument("--json", action="store_true", help="raw JSON output")
    sessions.add_argument(
        "--fleet",
        action="store_true",
        help="render the fleet view (per-worker summary + shard column); "
        "implied when the address is a fleet router",
    )
    sessions.set_defaults(fn=_cmd_sessions)

    fleet_run_p = sub.add_parser(
        "fleet-run",
        help="batch-profile many workload sessions against a sharded "
        "worker fleet, with a result cache keyed by task config",
    )
    fleet_run_p.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="Table V workload names (default: all 7)",
    )
    fleet_run_p.add_argument(
        "--workers", type=int, default=4, metavar="N", help="fleet size"
    )
    fleet_run_p.add_argument(
        "--sessions",
        type=int,
        default=1,
        metavar="N",
        help="sessions per workload (distinct cache entries)",
    )
    fleet_run_p.add_argument(
        "--scale", type=float, default=0.5, help="workload scale factor"
    )
    fleet_run_p.add_argument(
        "--cache-dir",
        default=".dsspy-fleet-cache",
        metavar="DIR",
        help="result cache; reruns of unchanged (workload, config) skip",
    )
    fleet_run_p.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="fleet journal root (default: a fresh temp dir)",
    )
    fleet_run_p.add_argument(
        "--concurrency",
        type=int,
        default=2,
        metavar="N",
        help="producer subprocesses in flight at once",
    )
    fleet_run_p.add_argument(
        "--output", "-o", default=None, metavar="FILE", help="write full JSON here"
    )
    fleet_run_p.add_argument("--json", action="store_true", help="raw JSON output")
    fleet_run_p.set_defaults(fn=_cmd_fleet_run)

    migrate = sub.add_parser(
        "migrate",
        help="bring a state directory's journals and checkpoints to this "
        "build's on-disk format (crash-safe, idempotent, no downgrades)",
    )
    migrate.add_argument(
        "state_dir",
        metavar="STATE_DIR",
        help="a daemon --state-dir, a fleet state dir (shard-NN layout), "
        "or one session directory",
    )
    migrate.add_argument(
        "--to",
        type=int,
        default=None,
        metavar="N",
        help="target format generation (default: this build's current)",
    )
    migrate.add_argument("--json", action="store_true", help="raw JSON output")
    migrate.set_defaults(fn=_cmd_migrate)

    fleet = sub.add_parser(
        "fleet", help="operate on a running fleet supervisor"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_upgrade = fleet_sub.add_parser(
        "upgrade",
        help="rolling upgrade: drain, migrate, and respawn each worker "
        "one at a time with zero event loss",
    )
    fleet_upgrade.add_argument(
        "state_dir",
        metavar="STATE_DIR",
        help="the fleet's --state-dir (the supervisor pid file lives there)",
    )
    fleet_upgrade.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="fleet router address; when given, wait for every worker to "
        "come back and print the post-upgrade build per worker",
    )
    fleet_upgrade.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SEC",
        help="with --address: max seconds to wait for completion",
    )
    fleet_upgrade.set_defaults(fn=_cmd_fleet_upgrade)

    recover = sub.add_parser(
        "recover",
        help="rebuild session reports offline from a daemon state directory",
    )
    recover.add_argument(
        "state_dir", metavar="STATE_DIR", help="the daemon's --state-dir"
    )
    recover.add_argument(
        "--report-dir",
        default=None,
        metavar="DIR",
        help="write each recovered session's report JSON here",
    )
    recover.add_argument("--json", action="store_true", help="raw JSON output")
    recover.add_argument(
        "--purge",
        action="store_true",
        help="delete the session journals after recovering them",
    )
    recover.set_defaults(fn=_cmd_recover)

    fsck = sub.add_parser(
        "fsck",
        help="deep-verify (and optionally repair) a daemon or fleet "
        "state directory: segment CRCs, checkpoint schema, cursor "
        "continuity, shard ownership",
    )
    fsck.add_argument(
        "state_dir",
        metavar="STATE_DIR",
        help="a daemon --state-dir, a fleet state dir (shard-NN "
        "layout), or one session directory",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="truncate torn tails, quarantine damaged segments (and "
        "everything after them) to quarantine/, and rebuild the "
        "checkpoint from the surviving journal tail",
    )
    fsck.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="fleet width for shard-ownership checks (default: the "
        "number of shard-NN directories present)",
    )
    fsck.set_defaults(fn=_cmd_fsck)

    chaos = sub.add_parser(
        "chaos",
        help="time-boxed chaos soak: randomized kill/disk/storm fault "
        "schedules against the no-silent-loss ledger",
    )
    chaos.add_argument(
        "--backend",
        choices=("inproc", "fleet"),
        default="inproc",
        help="inproc: one daemon per trial, cheap, hundreds of trials; "
        "fleet: real router + worker subprocesses with SIGKILL",
    )
    chaos.add_argument(
        "--trials", type=int, default=None,
        help="number of seeded trials (default 100 unless --duration)",
    )
    chaos.add_argument(
        "--duration", type=float, default=None, metavar="SEC",
        help="time box in seconds; stops after the trial that crosses it",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="base seed (trial i uses seed+i)"
    )
    chaos.add_argument(
        "--fault-intensity", type=float, default=0.3,
        help="per-frame network-fault probability",
    )
    chaos.add_argument(
        "--max-faults", type=int, default=6, help="network-fault budget per trial"
    )
    chaos.add_argument(
        "--window", type=int, default=48, help="events per shipped window"
    )
    chaos.add_argument(
        "--disk-fault-rate", type=float, default=0.6,
        help="probability a trial runs on a seeded FaultFS (inproc only)",
    )
    chaos.add_argument(
        "--storm-rate", type=float, default=0.3,
        help="probability a trial adds concurrent storm producers",
    )
    chaos.add_argument(
        "--upgrade-rate", type=float, default=0.25,
        help="probability a trial exercises the version-skew path: state "
        "regressed to the previous on-disk format and migrated under "
        "fault injection (inproc), or a mid-storm rolling worker "
        "upgrade (fleet)",
    )
    chaos.add_argument(
        "--recovery-bound", type=float, default=15.0, metavar="SEC",
        help="max seconds a single crash-recovery may take",
    )
    chaos.add_argument(
        "--workers", type=int, default=3, help="fleet backend: worker count"
    )
    chaos.add_argument(
        "--sessions", type=int, default=3,
        help="fleet backend: concurrent sessions per trial",
    )
    chaos.add_argument(
        "--fault-fs", default=None, metavar="SPEC",
        help="fleet backend: FaultFS spec passed to every worker "
        "(see dsspy serve --fault-fs)",
    )
    chaos.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one JSON line per trial to this file",
    )
    chaos.add_argument(
        "--progress", type=int, default=25, metavar="N",
        help="print a progress line every N ok trials (0 = quiet)",
    )
    chaos.add_argument(
        "--stop-on-violation", action="store_true",
        help="stop at the first trial that violates the ledger",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    bench = sub.add_parser(
        "bench",
        help="recording-overhead benchmark and CI perf-ratchet",
    )
    configure_bench_parser(bench)
    bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

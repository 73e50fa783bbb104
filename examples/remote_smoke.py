"""Scenario: one profiling daemon, several instrumented programs.

The CI integration smoke for the service layer: the parent process
starts a :class:`~repro.service.ProfilingDaemon` on a free port, then
launches two *separate* instrumented Python processes (re-invoking this
script with ``--worker``), each recording a different Table-V-style
workload through a :class:`~repro.service.RemoteChannel`.  When both
finish, the parent queries the daemon's STATS endpoint — the same data
``dsspy sessions`` renders — and asserts the merged view: two finished
sessions, one flagging Long Insert and one flagging Frequent Long
Read.

``--crash`` runs the crash-recovery smoke instead: the daemon is a
*subprocess* (``python -m repro.cli serve --state-dir ...``), a client
streams half a synthetic trace and syncs, the daemon is SIGKILLed —
no flush, no goodbye — and restarted on the same port and state
directory.  Between the kill and the restart, a read-only ``fsck`` of
the state dir must find nothing worse than a last-segment torn tail.
The client resumes its session against the recovered daemon and the
final report must equal the batch report of the same trace, i.e. the
crash must be invisible in the analysis.

Run directly::

    PYTHONPATH=src python examples/remote_smoke.py
    PYTHONPATH=src python examples/remote_smoke.py --crash
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("long_insert", "frequent_long_read")

#: Use-case abbreviation each worker's workload must trigger.
EXPECTED = {"long_insert": "LI", "frequent_long_read": "FLR"}


def run_worker(name: str, address: str) -> int:
    """Child process: record one workload through a RemoteChannel."""
    from repro.events import EventCollector, pop_collector, push_collector
    from repro.service import RemoteChannel
    from repro.workloads import gen_frequent_long_read, gen_long_insert

    generators = {
        "long_insert": gen_long_insert,
        "frequent_long_read": gen_frequent_long_read,
    }
    channel = RemoteChannel(address)
    collector = EventCollector(channel=channel)
    push_collector(collector)
    try:
        generators[name](label=name)
    finally:
        pop_collector()
    profiles = collector.finish()
    ack = channel.final_ack
    if ack is None:
        print(f"worker {name}: FIN handshake failed", file=sys.stderr)
        return 1
    events = sum(len(p) for p in profiles.values())
    print(
        f"worker {name}: session {ack['session']} shipped {ack['received']} "
        f"events ({events} recorded locally)"
    )
    return 0 if ack["received"] == events else 1


def run_orchestrator() -> int:
    from repro.service import ProfilingDaemon, fetch_stats

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    with ProfilingDaemon(port=0) as daemon:
        print(f"daemon listening on {daemon.address}")
        procs = [
            subprocess.Popen(
                [sys.executable, __file__, "--worker", name, daemon.address],
                env=env,
            )
            for name in WORKLOADS
        ]
        failures = sum(proc.wait(timeout=120) != 0 for proc in procs)
        if failures:
            print(f"SMOKE: FAILED — {failures} worker(s) exited non-zero")
            return 1

        stats = fetch_stats(daemon.address)
        print(json.dumps(stats, indent=2))
        sessions = stats["sessions"]
        if len(sessions) != len(WORKLOADS):
            print(f"SMOKE: FAILED — expected {len(WORKLOADS)} sessions")
            return 1
        if any(s["state"] != "finished" for s in sessions):
            print("SMOKE: FAILED — not every session finished")
            return 1
        flagged = {
            abbrev for s in sessions for kinds in s["flagged"].values()
            for abbrev in kinds
        }
        missing = set(EXPECTED.values()) - flagged
        if missing:
            print(f"SMOKE: FAILED — merged report is missing {sorted(missing)}")
            return 1
    print(f"SMOKE: passed — merged report flags {sorted(flagged)}")
    return 0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _start_serve(port: int, state_dir: str) -> subprocess.Popen:
    """Launch ``dsspy serve`` as a subprocess and wait until it answers
    STATS (so a SIGKILL later hits a fully started daemon)."""
    from repro.service import fetch_stats

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--state-dir", state_dir,
            "--checkpoint-every", "200",
            "--heartbeat-timeout", "60", "--linger", "300",
        ],
        env=_child_env(),
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while True:
        try:
            fetch_stats(f"127.0.0.1:{port}", timeout=2.0)
            return proc
        except OSError:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"serve subprocess exited early (rc={proc.returncode})"
                )
            if time.monotonic() > deadline:
                proc.kill()
                raise RuntimeError("serve subprocess never became reachable")
            time.sleep(0.05)


def run_crash_recovery(seed: int = 11) -> int:
    """SIGKILL the daemon mid-ingest; the recovered daemon's report
    must equal the no-crash batch report of the same trace."""
    from repro.service import fetch_stats
    from repro.service.client import ServiceClient
    from repro.service.fsck import fsck_state_dir
    from repro.testing import (
        diff_summaries,
        generate_trace,
        run_batch_path,
        ship_trace,
        summarize_report,
    )

    trace = generate_trace(seed)
    expected = summarize_report(run_batch_path(trace))
    total = len(trace.events)
    half = total // 2
    port = _free_port()
    address = f"127.0.0.1:{port}"

    with tempfile.TemporaryDirectory(prefix="dsspy-crash-smoke-") as state_dir:
        daemon = _start_serve(port, state_dir)
        print(f"daemon (pid {daemon.pid}) listening on {address}")

        client = ServiceClient(address)
        session_id = client.session_id
        client.register_instances([i.registration() for i in trace.instances])
        client.send_events(0, trace.events[:half])
        ack = client.heartbeat()  # sync: the half is processed + journaled
        client.close()
        print(f"streamed {ack['received']}/{total} events, now killing the daemon")
        if ack["received"] != half:
            print(f"SMOKE: FAILED — daemon acked {ack['received']}, sent {half}")
            daemon.kill()
            return 1

        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)

        # A real SIGKILL may tear the record being appended, nothing
        # else: read-only fsck must find at most a last-segment torn tail.
        report = fsck_state_dir(state_dir)
        unexpected = list(report["problems"])
        for entry in report["sessions"]:
            last = max(entry["versions"]["segments"], default="")
            unexpected += entry["needs_migration"] + [
                p for p in entry["problems"] if not p.startswith(f"{last}: torn tail")
            ]
        if report["checked"] == 0 or unexpected:
            print(
                f"SMOKE: FAILED — fsck after SIGKILL checked {report['checked']} "
                "session(s) and found damage beyond a last-segment torn tail:"
            )
            for line in unexpected:
                print(f"  {line}")
            return 1
        damage = sorted({d for entry in report["sessions"] for d in entry["damage"]})
        print(
            f"fsck after SIGKILL: {report['checked']} session(s), "
            f"damage: {', '.join(damage) or 'none'}"
        )

        daemon = _start_serve(port, state_dir)
        stats = fetch_stats(address)
        sessions = {s["session"]: s for s in stats["sessions"]}
        recovered = sessions.get(session_id)
        if recovered is None or not recovered.get("recovered"):
            print(f"SMOKE: FAILED — session {session_id} not recovered: {stats}")
            daemon.kill()
            return 1
        print(
            f"restarted daemon recovered session {session_id} at "
            f"{recovered['received']}/{total} events"
        )

        try:
            report, _, _ = ship_trace(
                trace, address, window=64, retry_delay=0.1, session_id=session_id
            )
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
        mismatches = diff_summaries(
            "batch", expected, "post-crash daemon", summarize_report(report)
        )
        if mismatches:
            print("SMOKE: FAILED — recovered report diverges from batch:")
            for line in mismatches:
                print(f"  {line}")
            return 1
    print(
        f"SMOKE: passed — daemon SIGKILLed at {half}/{total} events, "
        "recovered report equals the no-crash batch report"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--worker",
        nargs=2,
        metavar=("NAME", "ADDRESS"),
        default=None,
        help="internal: run one instrumented workload against ADDRESS",
    )
    parser.add_argument(
        "--crash",
        action="store_true",
        help="run the crash-recovery smoke (daemon subprocess, SIGKILL, "
        "restart, report equality)",
    )
    args = parser.parse_args(argv)
    if args.worker:
        return run_worker(*args.worker)
    if args.crash:
        return run_crash_recovery()
    return run_orchestrator()


if __name__ == "__main__":
    raise SystemExit(main())

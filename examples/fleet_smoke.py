"""Scenario: a 4-worker fleet survives losing a worker mid-stream.

The CI integration smoke for the fleet subsystem.  A
:class:`~repro.service.FleetSupervisor` spawns four ``dsspy serve``
workers behind a session-affine router.  Several synthetic sessions
stream through the router; one of them is interrupted halfway by
SIGKILLing the worker that owns its shard — no flush, no goodbye.  The
supervisor must respawn the worker on its old port and shard directory
(journal recovery rebuilds the half-streamed session), the client must
resume and finish against the restarted worker, and the
:class:`~repro.service.FleetCoordinator`'s merged fleet report must be
*complete* and identical — session by session, instance by instance —
to batch analysis of the same traces, i.e. both the sharding and the
crash must be invisible in the analysis.

Run directly::

    PYTHONPATH=src python examples/fleet_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

N_WORKERS = 4
N_SESSIONS = 6


def _batch_use_cases(session_id, trace):
    from repro.testing import run_batch_path

    report = run_batch_path(trace)
    return {
        (session_id, uc["instance_id"], uc["abbreviation"])
        for uc in report["use_cases"]
    }


def main() -> int:
    from repro.service import FleetSupervisor, fetch_stats, shard_for
    from repro.service.client import ServiceClient
    from repro.testing import generate_trace, ship_trace

    traces = {f"fleet-smoke-s{i}": generate_trace(20 + i) for i in range(N_SESSIONS)}
    expected = set()
    for session_id, trace in traces.items():
        expected |= _batch_use_cases(session_id, trace)
    shards_hit = {shard_for(s, N_WORKERS) for s in traces}
    print(f"{N_SESSIONS} sessions over shards {sorted(shards_hit)}")

    # The victim: whichever worker owns the last session's shard gets
    # SIGKILLed while that session is half streamed.
    victim_session = f"fleet-smoke-s{N_SESSIONS - 1}"
    victim_worker = shard_for(victim_session, N_WORKERS)

    with tempfile.TemporaryDirectory(prefix="dsspy-fleet-smoke-") as state_dir:
        with FleetSupervisor(
            N_WORKERS,
            state_dir,
            heartbeat_timeout=60.0,
            linger=300.0,
            checkpoint_every=200,
            startup_timeout=60.0,
        ) as fleet:
            print(f"fleet of {N_WORKERS} workers behind {fleet.address}")

            # Phase 1: every session except the victim streams to
            # completion through the router.
            for session_id, trace in traces.items():
                if session_id == victim_session:
                    continue
                ship_trace(
                    trace, fleet.address, window=64,
                    retry_delay=0.1, session_id=session_id,
                )

            # Phase 2: half-stream the victim session, then SIGKILL the
            # worker that holds it.
            trace = traces[victim_session]
            half = len(trace.events) // 2
            client = ServiceClient(fleet.address, session_id=victim_session)
            client.register_instances([i.registration() for i in trace.instances])
            client.send_events(0, trace.events[:half])
            ack = client.heartbeat()  # sync: the half is journaled
            client.close()
            if ack["received"] != half:
                print(f"SMOKE: FAILED — acked {ack['received']}, sent {half}")
                return 1
            print(
                f"session {victim_session}: {half}/{len(trace.events)} events "
                f"streamed; killing worker {victim_worker}"
            )
            fleet.kill_worker(victim_worker)

            # The supervisor must bring the worker back on its old port.
            worker = fleet.workers[victim_worker]
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if worker.restarts >= 1 and worker.proc.poll() is None:
                    try:
                        stats = fetch_stats(worker.address, timeout=2.0)
                        break
                    except OSError:
                        pass
                time.sleep(0.1)
            else:
                print("SMOKE: FAILED — killed worker never came back")
                return 1
            recovered = stats.get("recovered_sessions", [])
            if victim_session not in recovered:
                print(
                    f"SMOKE: FAILED — restarted worker did not recover "
                    f"{victim_session}: {recovered}"
                )
                return 1
            print(
                f"worker {victim_worker} respawned on port {worker.port}, "
                f"recovered {recovered}"
            )

            # Phase 3: resume the interrupted session through the router
            # (the stable hash lands it back on the restarted worker)
            # and finish it.
            ship_trace(
                trace, fleet.address, window=64,
                retry_delay=0.1, session_id=victim_session,
            )

            # The converged fleet report.
            merged = fleet.coordinator().collect()
            if not merged["complete"]:
                print(f"SMOKE: FAILED — partial merge: {merged['errors']}")
                return 1
            received = {s["session"]: s["received"] for s in merged["sessions"]}
            for session_id, tr in traces.items():
                if received.get(session_id) != len(tr.events):
                    print(
                        f"SMOKE: FAILED — {session_id} received "
                        f"{received.get(session_id)} of {len(tr.events)} events"
                    )
                    return 1
            got = {
                (u["origin"]["session"], u["origin"]["instance_id"],
                 u["abbreviation"])
                for u in merged["report"]["use_cases"]
            }
            if got != expected:
                print("SMOKE: FAILED — merged report diverges from batch:")
                for entry in sorted(expected - got):
                    print(f"  missing: {entry}")
                for entry in sorted(got - expected):
                    print(f"  extra:   {entry}")
                return 1
            restarts = fleet.stats()["restarts"]
            if restarts != {str(victim_worker): 1}:
                print(f"SMOKE: FAILED — unexpected restart history {restarts}")
                return 1
    print(
        f"SMOKE: passed — {N_SESSIONS} sessions over {N_WORKERS} workers, "
        f"worker {victim_worker} SIGKILLed at {half}/{len(trace.events)} "
        "events; merged fleet report equals batch analysis"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The fleet subsystem: sharding, rebalance, router, supervisor
lifecycle, coordinator merging, the result cache, and batch runs.

Process-spawning tests keep fleets small (2 workers) and scales tiny —
this suite must stay fast on a 1-core machine; the heavy kill-a-worker
-mid-stream convergence scenario lives in ``examples/fleet_smoke.py``
(the CI fleet job), not here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _fleet_supervisor, build_parser
from repro.events import AccessKind, EventCollector, OperationKind, StructureKind
from repro.service import (
    FleetCoordinator,
    FleetSupervisor,
    ProfilingDaemon,
    RemoteChannel,
    ResultCache,
    SessionJournal,
    SessionRouter,
    fetch_snapshot,
    fetch_stats,
    fleet_run,
    rebalance_state_dir,
    shard_for,
    walk_state_dir,
)
from repro.service.fleet import _Worker, shard_dir_name

REPO = Path(__file__).resolve().parent.parent


def _ingest(address: str, session_id: str, events: int = 40) -> None:
    """One complete remote session: register, record, drain (FIN)."""
    channel = RemoteChannel(address, session_id=session_id, give_up_after=15.0)
    collector = EventCollector(channel=channel)
    iid = collector.register_instance(StructureKind.LIST)
    for i in range(events):
        collector.record(iid, OperationKind.READ, AccessKind.READ, i % 10, 10)
    channel.drain()


def _fabricate_session(directory: Path, events: int = 8) -> None:
    """An on-disk journaled session (unfinished, recoverable)."""
    with SessionJournal(directory) as journal:
        journal.append_register(
            [{"id": 1, "kind": "list", "site": None, "label": "t"}]
        )
        journal.append_events(
            0, [(1, 0, 0, i % 4, 4, 0, None) for i in range(events)]
        )


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 5, 8):
            for sid in ("a", "mandelbrot-x1-r0", "CPU Benchmarks-r3"):
                assert shard_for(sid, n) == shard_for(sid, n)
                assert 0 <= shard_for(sid, n) < n

    def test_spreads_sessions(self):
        # Not a uniformity proof — just that the hash is not degenerate.
        shards = {shard_for(f"session-{i}", 4) for i in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_agrees_across_processes(self):
        # The property the fleet depends on: no PYTHONHASHSEED leakage.
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.service import shard_for; print(shard_for('abc', 8))"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": "7",
                 "PATH": "/usr/bin:/bin"},
        )
        assert int(out.stdout) == shard_for("abc", 8)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            shard_for("x", 0)


class TestRebalance:
    def test_moves_sessions_to_assigned_shards(self, tmp_path):
        # Top-level sessions (single-daemon layout) and a wrong-shard
        # session must all end up under their hash-assigned shard dir.
        _fabricate_session(tmp_path / "sess-a")
        wrong = 1 - shard_for("sess-b", 2)
        _fabricate_session(tmp_path / shard_dir_name(wrong) / "sess-b")
        moves = rebalance_state_dir(tmp_path, 2)
        assert {m["session"] for m in moves} == {"sess-a", "sess-b"}
        assert all(m["moved"] for m in moves)
        for sid in ("sess-a", "sess-b"):
            home = tmp_path / shard_dir_name(shard_for(sid, 2)) / sid
            assert home.is_dir()

    def test_in_place_session_is_untouched(self, tmp_path):
        home = tmp_path / shard_dir_name(shard_for("sess-c", 2)) / "sess-c"
        _fabricate_session(home)
        assert rebalance_state_dir(tmp_path, 2) == []
        assert home.is_dir()

    def test_duplicate_keeps_assigned_copy(self, tmp_path):
        assigned = tmp_path / shard_dir_name(shard_for("dup", 2)) / "dup"
        stray = tmp_path / "dup"
        _fabricate_session(assigned)
        _fabricate_session(stray)
        (moves,) = rebalance_state_dir(tmp_path, 2)
        assert moves["moved"] is False and "duplicate" in moves["note"]
        assert assigned.is_dir() and stray.is_dir()

    def test_scan_covers_both_layouts(self, tmp_path):
        _fabricate_session(tmp_path / "top")
        _fabricate_session(tmp_path / "shard-01" / "deep")
        (tmp_path / "shard-01" / "not-a-session").mkdir()
        names = {d.name for d in walk_state_dir(tmp_path)}
        assert names == {"top", "deep"}


class TestSnapshotProtocol:
    def test_snapshot_round_trips_engine_state(self):
        with ProfilingDaemon(port=0, session_linger=30.0) as daemon:
            _ingest(daemon.address, "snap-a")
            reply = fetch_snapshot(daemon.address)
            (snap,) = reply["snapshots"]
            assert snap["session"] == "snap-a"
            assert snap["engine"]["events_folded"] == snap["applied"]
            narrowed = fetch_snapshot(daemon.address, session="snap-a")
            assert narrowed["snapshots"][0]["session"] == "snap-a"

    def test_bound_port_satellite(self):
        with ProfilingDaemon(port=0) as daemon:
            assert daemon.bound_port == int(daemon.address.rsplit(":", 1)[1])
            assert daemon.bound_port != 0


class TestRouter:
    """Router over two in-process daemons — no subprocesses needed."""

    @pytest.fixture()
    def fleet(self):
        with ProfilingDaemon(port=0, session_linger=30.0) as a, ProfilingDaemon(
            port=0, session_linger=30.0
        ) as b:
            with SessionRouter([a.address, b.address]) as router:
                yield router, (a, b)

    def test_routes_by_session_hash(self, fleet):
        router, daemons = fleet
        for sid in ("r-one", "r-two", "r-three"):
            _ingest(router.address, sid)
            owner = daemons[shard_for(sid, 2)]
            assert sid in {s["session"] for s in owner.stats()["sessions"]}

    def test_aggregated_stats_and_snapshot(self, fleet):
        router, _ = fleet
        for sid in ("agg-1", "agg-2", "agg-3", "agg-4"):
            _ingest(router.address, sid)
        stats = fetch_stats(router.address)
        assert stats["fleet"] is True
        assert len(stats["workers"]) == 2
        assert {s["session"] for s in stats["sessions"]} >= {
            "agg-1", "agg-2", "agg-3", "agg-4"
        }
        assert all("worker" in s for s in stats["sessions"])
        reply = fetch_snapshot(router.address)
        assert {s["session"] for s in reply["snapshots"]} >= {"agg-1", "agg-4"}

    def test_unreachable_worker_yields_error_frame(self, fleet):
        router, daemons = fleet
        sid = "err-session"
        daemons[shard_for(sid, 2)].close()
        from repro.service.protocol import ProtocolError

        with pytest.raises((ProtocolError, OSError)):
            channel = RemoteChannel(
                router.address, session_id=sid, give_up_after=2.0
            )
            channel.post((1, 0, 0, 0, 1, 0, None))
            channel.drain()

    def test_worker_down_error_frame_names_worker(self, fleet):
        # The raw protocol view of the same failure: HELLO for a
        # session whose shard owner is down must be answered with an
        # ERROR frame that names the unreachable worker, not a silent
        # connection drop.
        router, daemons = fleet
        sid = "err-frame-session"
        dead = daemons[shard_for(sid, 2)]
        dead_address = dead.address
        dead.close()
        from repro.service import ServiceClient
        from repro.service.protocol import ProtocolError

        with pytest.raises(ProtocolError, match="unreachable") as excinfo:
            ServiceClient(router.address, session_id=sid)
        assert dead_address in str(excinfo.value)
        # The other shard still routes: the fleet is degraded, not down.
        alive_sid = next(
            f"alive-{i}" for i in range(100)
            if daemons[shard_for(f"alive-{i}", 2)].address != dead_address
        )
        _ingest(router.address, alive_sid, events=4)

    def test_coordinator_merges_across_workers(self, fleet):
        router, daemons = fleet
        # Pick ids that provably span both shards.
        sid_for_0 = next(f"co-{i}" for i in range(100) if shard_for(f"co-{i}", 2) == 0)
        sid_for_1 = next(f"co-{i}" for i in range(100) if shard_for(f"co-{i}", 2) == 1)
        sids = [sid_for_0, sid_for_1, "co-extra"]
        for sid in sids:
            _ingest(router.address, sid, events=20)
        merged = FleetCoordinator([d.address for d in daemons]).collect()
        assert merged["complete"] is True
        assert {s["session"] for s in merged["sessions"]} == set(sids)
        assert merged["events_folded"] == 60
        # Provenance: every flagged use case names its origin session.
        for use_case in merged["report"]["use_cases"]:
            assert use_case["origin"]["session"] in sids
        # Through the router's one address the merge is the same, and
        # the router's worker tags survive (not re-tagged as worker 0).
        via_router = FleetCoordinator([router.address]).collect()
        assert via_router["complete"] is True
        assert via_router["report"] == merged["report"]
        assert via_router["events_folded"] == merged["events_folded"]
        assert [u["origin"] for u in via_router["report"]["use_cases"]] == [
            u["origin"] for u in merged["report"]["use_cases"]
        ]
        assert {s["session"]: s["worker"] for s in via_router["sessions"]} == {
            sid: shard_for(sid, 2) for sid in sids
        }

    def test_router_reports_partial_snapshot(self, fleet):
        router, daemons = fleet
        sid_for_0 = next(f"ps-{i}" for i in range(100) if shard_for(f"ps-{i}", 2) == 0)
        sid_for_1 = next(f"ps-{i}" for i in range(100) if shard_for(f"ps-{i}", 2) == 1)
        for sid in (sid_for_0, sid_for_1):
            _ingest(router.address, sid, events=8)
        dead_address = daemons[1].address
        daemons[1].close()
        reply = fetch_snapshot(router.address)
        assert [(s["session"], s["worker"]) for s in reply["snapshots"]] == [
            (sid_for_0, 0)
        ]
        (error,) = reply["errors"]
        assert error["worker"] == 1
        assert error["address"] == dead_address

    def test_coordinator_reports_partial_merge(self, fleet):
        router, daemons = fleet
        daemons[0].close()
        merged = FleetCoordinator([d.address for d in daemons]).collect()
        assert merged["complete"] is False
        assert merged["errors"]


class TestResultCache:
    def test_hit_after_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"workload": "Mandelbrot", "scale": 0.5, "session": "m-0"}
        assert cache.get(config) is None
        cache.put(config, {"report": {"use_cases": []}, "received": 9})
        assert cache.get(config)["received"] == 9
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_any_config_change_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"workload": "Mandelbrot", "scale": 0.5, "session": "m-0"}
        cache.put(config, {"ok": True})
        assert cache.get({**config, "scale": 0.25}) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"session": "x"}
        cache.put(config, {"ok": True})
        cache.path(config).write_text("{torn", encoding="utf-8")
        assert cache.get(config) is None

    def test_entry_lock_is_exclusive_and_reentrant_after_release(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = {"session": "locked"}
        with cache.lock(config):
            other = ResultCache(tmp_path)
            with pytest.raises(TimeoutError):
                with other.lock(config, timeout=0.2, poll=0.02):
                    pass
        # Released on exit: immediately acquirable again.
        with cache.lock(config, timeout=0.2):
            pass

    def test_lock_survives_holder_crash(self, tmp_path):
        # flock dies with the holder process: a SIGKILL'd holder's lock
        # is taken over without any timeout or manual cleanup.
        cache = ResultCache(tmp_path)
        config = {"session": "crashed"}
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.service import ResultCache; import sys, time\n"
                f"c = ResultCache({str(tmp_path)!r})\n"
                "ctx = c.lock({'session': 'crashed'})\n"
                "ctx.__enter__()\n"
                "print('held', flush=True)\n"
                "time.sleep(60)\n",
            ],
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            with pytest.raises(TimeoutError):
                with cache.lock(config, timeout=0.2, poll=0.02):
                    pass
            holder.kill()
            holder.wait(timeout=10)
            with cache.lock(config, timeout=5.0):
                pass
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()

    def test_lock_serializes_concurrent_fillers(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        config = {"session": "fill-once"}
        computed = []

        def fill(tag: str) -> None:
            with cache.lock(config, timeout=10.0):
                if cache.get(config) is None:
                    time.sleep(0.05)  # widen the race window
                    computed.append(tag)
                    cache.put(config, {"by": tag})

        threads = [
            threading.Thread(target=fill, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(computed) == 1  # exactly one filler computed
        assert cache.get(config)["by"] == computed[0]


@pytest.mark.slow
class TestWorkerCommand:
    """`dsspy serve --workers N` hands every per-daemon option to its
    workers (built, never spawned)."""

    def _argv(self, tmp_path, *flags):
        args = build_parser().parse_args(
            ["serve", "--workers", "2", "--state-dir", str(tmp_path), *flags]
        )
        supervisor = _fleet_supervisor(args)
        return supervisor.worker_command(_Worker(1, tmp_path / shard_dir_name(1)))

    @staticmethod
    def _value(argv, flag):
        assert argv.count(flag) == 1, flag
        return argv[argv.index(flag) + 1]

    def test_per_daemon_options_reach_every_worker(self, tmp_path):
        argv = self._argv(
            tmp_path,
            "--journal-fsync",
            "--max-events-per-sec", "5000",
            "--session-max-events-per-sec", "250.5",
            "--retry-after", "7.5",
            "--state-budget", "64M",
            "--fault-fs", "seed=3",
        )
        assert argv[argv.index("repro.cli") + 1] == "serve"
        assert "--journal-fsync" in argv
        assert float(self._value(argv, "--max-events-per-sec")) == 5000.0
        assert float(self._value(argv, "--session-max-events-per-sec")) == 250.5
        assert float(self._value(argv, "--retry-after")) == 7.5
        assert int(self._value(argv, "--state-budget")) == 64 * 1024 * 1024
        assert self._value(argv, "--fault-fs") == "seed=3"
        assert self._value(argv, "--state-dir") == str(tmp_path / shard_dir_name(1))
        assert "--workers" not in argv
        # The worker's own parser takes the argv as is.
        worker = build_parser().parse_args(argv[argv.index("serve"):])
        assert worker.state_budget == 64 * 1024 * 1024
        assert worker.journal_fsync and worker.workers == 1

    def test_defaults_add_no_quota_budget_or_faults(self, tmp_path):
        argv = self._argv(tmp_path)
        for flag in ("--journal-fsync", "--max-events-per-sec",
                     "--session-max-events-per-sec", "--state-budget",
                     "--fault-fs"):
            assert flag not in argv
        assert float(self._value(argv, "--retry-after")) == 2.0


class TestSupervisorIntegration:
    """One 2-worker fleet exercised end to end (subprocess workers)."""

    def test_lifecycle_restart_and_batch(self, tmp_path):
        state = tmp_path / "fleet"
        cache = ResultCache(tmp_path / "cache")
        with FleetSupervisor(
            2, state, heartbeat_timeout=60.0, startup_timeout=60.0
        ) as sup:
            assert len(sup.worker_addresses()) == 2
            assert all(a.endswith(tuple("0123456789")) for a in sup.worker_addresses())
            # Shard dirs exist; the router answers aggregated stats.
            assert (state / shard_dir_name(0)).is_dir()
            stats = sup.stats()
            assert stats["fleet"] is True and len(stats["workers"]) == 2

            # Batch orchestration against the live fleet, then a rerun
            # that must be served entirely from the cache.
            tasks = [
                {"workload": "Mandelbrot", "scale": 0.25, "session": "m-r0"},
                {"workload": "WordWheelSolver", "scale": 0.25, "session": "w-r0"},
            ]
            out = fleet_run(
                tasks, sup.address, cache, workers=sup.worker_addresses()
            )
            assert out["failures"] == []
            assert out["ran"] == 2 and out["cache_hits"] == 0
            rerun = fleet_run(
                tasks, sup.address, cache, workers=sup.worker_addresses()
            )
            assert rerun["cache_hits"] == 2 and rerun["ran"] == 0
            assert rerun["results"] == out["results"]

            # The coordinator's merged report covers both sessions.
            merged = sup.coordinator().collect()
            assert merged["complete"] is True
            assert {s["session"] for s in merged["sessions"]} == {"m-r0", "w-r0"}

            # Kill one worker; the monitor must respawn it on the same
            # port and the fleet must keep serving its shard.
            victim = sup.workers[0]
            old_port = victim.port
            sup.kill_worker(0)
            deadline = time.monotonic() + 60.0
            reachable = False
            while time.monotonic() < deadline and not reachable:
                if victim.restarts >= 1 and victim.proc.poll() is None:
                    try:
                        fetch_stats(victim.address, timeout=2.0)
                        reachable = True
                    except OSError:
                        pass
                time.sleep(0.1)
            assert reachable, "killed worker never came back"
            assert victim.port == old_port
            sid = next(
                f"post-restart-{i}"
                for i in range(100)
                if shard_for(f"post-restart-{i}", 2) == 0
            )
            _ingest(sup.address, sid)  # routed to the restarted worker
            assert sup.stats()["restarts"] == {"0": 1}
        # Drained: every worker process has exited.
        assert all(w.proc.poll() is not None for w in sup.workers)

    def test_fleet_recover_cli(self, tmp_path):
        # A torn-down fleet's state dir: one journaled-but-unfinished
        # session per shard, plus a top-level orphan.  One `dsspy
        # recover` invocation must rebuild all three.
        state = tmp_path / "fleet"
        _fabricate_session(state / shard_dir_name(0) / "sess-a", events=6)
        _fabricate_session(state / shard_dir_name(1) / "sess-b", events=4)
        _fabricate_session(state / "orphan", events=2)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "recover", str(state), "--json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "3 session(s) across 2 shard(s)" in proc.stdout
        recovered = json.loads(proc.stdout[proc.stdout.index("[") :])
        by_session = {r["session"]: r for r in recovered}
        assert set(by_session) == {"sess-a", "sess-b", "orphan"}
        assert by_session["sess-a"]["received"] == 6


class TestRecoverBanner:
    """Fast, in-process coverage of the `dsspy recover` fleet banner
    (the subprocess variant above is slow-marked)."""

    def test_fleet_banner_counts_sessions_and_shards(self, tmp_path, capsys):
        from repro.cli import main

        state = tmp_path / "fleet"
        _fabricate_session(state / shard_dir_name(0) / "ban-a", events=3)
        _fabricate_session(state / shard_dir_name(1) / "ban-b", events=3)
        _fabricate_session(state / shard_dir_name(1) / "ban-c", events=3)
        assert main(["recover", str(state)]) == 0
        out = capsys.readouterr().out
        assert "fleet state dir: recovering 3 session(s) across 2 shard(s)" in out

    def test_no_banner_for_single_daemon_layout(self, tmp_path, capsys):
        from repro.cli import main

        state = tmp_path / "solo"
        _fabricate_session(state / "only-session", events=3)
        assert main(["recover", str(state)]) == 0
        out = capsys.readouterr().out
        assert "fleet state dir" not in out
        assert "only-session" in out

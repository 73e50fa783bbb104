"""Fleet-scale sharded ingestion: supervisor, coordinator, batch runs.

One :class:`~repro.service.ProfilingDaemon` process is the ceiling on
concurrent clients: every session shares its GIL, its connection
threads (each folds the windows it reads), and its accept loop.  This
module grows the service horizontally while keeping the single-daemon
analysis guarantees:

**FleetSupervisor** spawns N worker processes (each a full ``dsspy
serve`` — daemon + per-session
:class:`~repro.service.StreamingUseCaseEngine` — with its own
``shard-NN`` state subdirectory) and fronts them with a session-affine
:class:`~repro.service.router.SessionRouter`, the fleet's one public
address.  Worker lifecycle is supervised: a crashed worker is
respawned on its old port and shard directory, so journal recovery
rebuilds its sessions and resuming clients land back on it; SIGTERM
drains every worker cleanly; on startup, on-disk session directories
are rebalanced to their hash-assigned shard (orphans from a resized or
torn-down fleet, or a single daemon's state dir being adopted).

**FleetCoordinator** pulls per-shard engine snapshots over the wire
(the ``engine_to_dict`` seam that also backs checkpoints) and merges
them into one fleet-wide use-case report.  Folds are per-instance and
sessions live on exactly one shard, so the merge is exact — the same
report a single daemon would have produced over the union of streams.
Instance ids are only unique per session, so the coordinator remaps
them densely and keeps a provenance table from merged id back to
``(worker, session, original id)``.

**Batch orchestration** (:func:`fleet_run`, ``dsspy fleet-run``)
profiles many programs/sessions against the fleet in one invocation,
with an on-disk :class:`ResultCache` keyed by the full task config so
reruns skip finished sessions.  Each task runs in its *own producer
subprocess* — the collector stack is process-global, so concurrent
tracked workloads must not share an interpreter.

Routing and rebalancing agree on one function,
:func:`~repro.service.router.shard_for`; it is the fleet's only
sharding decision.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from .durability import shard_dir_name, walk_state_dir
from .router import SessionRouter, gather_snapshots, shard_for

def rebalance_state_dir(
    state_dir: str | Path, n_workers: int
) -> list[dict[str, Any]]:
    """Move every on-disk session directory to its hash-assigned shard.

    Run before workers start (they must not race their own recovery
    scan).  Handles orphans three ways: a session under the wrong
    shard (the fleet was resized), a session at the state-dir top
    level (a single daemon's state dir being adopted by a fleet), and
    a session already in place (no-op).  A duplicate — the same
    session id present in two places — keeps the copy already at its
    assigned shard and leaves the other untouched for the operator,
    since merging two journals is not a move.
    """
    state_dir = Path(state_dir)
    moves: list[dict[str, Any]] = []
    for session_dir in walk_state_dir(state_dir):
        if session_dir == state_dir:
            continue  # a bare session dir is not a fleet's to rebalance
        session_id = session_dir.name
        target = state_dir / shard_dir_name(shard_for(session_id, n_workers))
        if session_dir.parent == target:
            continue
        destination = target / session_id
        if destination.exists():
            moves.append(
                {
                    "session": session_id,
                    "from": str(session_dir),
                    "to": str(destination),
                    "moved": False,
                    "note": "duplicate: assigned shard already has this session",
                }
            )
            continue
        target.mkdir(parents=True, exist_ok=True)
        shutil.move(str(session_dir), str(destination))
        moves.append(
            {
                "session": session_id,
                "from": str(session_dir),
                "to": str(destination),
                "moved": True,
            }
        )
    return moves


def _repro_env() -> dict[str, str]:
    """Environment for spawned workers/producers: the interpreter must
    import :mod:`repro` from the same tree as this process."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class _Worker:
    """Supervisor-side record of one spawned ``dsspy serve`` process."""

    index: int
    shard_dir: Path
    port: int = 0  # concrete once the port file has been read
    proc: subprocess.Popen | None = None
    restarts: int = 0
    log_path: Path | None = None
    address: str = ""
    dead: bool = False  # gave up restarting (restart budget exhausted)
    upgrading: bool = False  # intentional exit in progress: monitor hands off


class FleetSupervisor:
    """Spawn, front, monitor, and drain N profiling-daemon workers.

    A :class:`SessionRouter` on ``host:port`` fronts the workers:
    reconnects keep session affinity, and aggregated STATS/SNAPSHOT
    work against the one public address.

    Parameters
    ----------
    n_workers:
        Fleet size; also the modulus of :func:`shard_for`, so changing
        it across restarts of the same ``state_dir`` triggers a
        rebalance of the on-disk sessions.
    state_dir:
        Fleet state root.  Required: supervised restart is only
        meaningful with journals to recover from.
    serve_args:
        Further ``dsspy serve`` options every worker gets (journal
        fsync, quotas, state budget, fault injection); each worker
        applies them to itself alone.
    """

    def __init__(
        self,
        n_workers: int,
        state_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        report_dir: str | Path | None = None,
        checkpoint_every: int = 50_000,
        heartbeat_timeout: float = 30.0,
        linger: float = 60.0,
        serve_args: Sequence[str] = (),
        python: str = sys.executable,
        startup_timeout: float = 30.0,
        max_restarts: int = 20,
        auto_restart: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.state_dir = Path(state_dir)
        self._host = host
        self._port = port
        self._report_dir = Path(report_dir) if report_dir is not None else None
        self._checkpoint_every = checkpoint_every
        self._heartbeat_timeout = heartbeat_timeout
        self._linger = linger
        self._serve_args = list(serve_args)
        self._python = python
        self._startup_timeout = startup_timeout
        self._max_restarts = max_restarts
        self._auto_restart = auto_restart
        self.workers: list[_Worker] = []
        self.router: SessionRouter | None = None
        self.rebalanced: list[dict[str, Any]] = []
        self.upgrades = 0  # workers cycled through upgrade_worker
        self._stopping = False
        self._started = False
        self._lock = threading.Lock()
        self._monitor: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        if self._started:
            return self
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.rebalanced = rebalance_state_dir(self.state_dir, self.n_workers)
        self.workers = [
            _Worker(index=i, shard_dir=self.state_dir / shard_dir_name(i))
            for i in range(self.n_workers)
        ]
        try:
            for worker in self.workers:
                self._spawn(worker)
            for worker in self.workers:
                self._await_ready(worker)
            self.router = SessionRouter(
                [w.address for w in self.workers],
                host=self._host,
                port=self._port,
            )
        except Exception:
            self.stop(graceful=False)
            raise
        self._started = True
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="dsspy-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    @property
    def address(self) -> str:
        """The fleet's one public dial address (the router's)."""
        if self.router is None:
            raise RuntimeError("fleet not started")
        return self.router.address

    def worker_addresses(self) -> list[str]:
        """Per-worker dial addresses: the real per-worker listeners
        behind the router, which the coordinator merges from."""
        return [w.address for w in self.workers]

    def coordinator(self, **kwargs: Any) -> "FleetCoordinator":
        return FleetCoordinator(self.worker_addresses, **kwargs)

    def stats(self) -> dict[str, Any]:
        if self.router is None:
            raise RuntimeError("fleet not started")
        out = self.router.stats()
        out["restarts"] = {
            str(w.index): w.restarts for w in self.workers if w.restarts
        }
        out["rebalanced"] = len(self.rebalanced)
        out["upgrades"] = self.upgrades
        return out

    def stop(self, graceful: bool = True, timeout: float = 15.0) -> None:
        """Drain the fleet: close the front door, SIGTERM every worker
        (their ``serve_forever`` finalizes all sessions), escalate to
        SIGKILL past the deadline."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        if self.router is not None:
            self.router.close()
        procs = [w.proc for w in self.workers if w.proc is not None]
        if graceful:
            for proc in procs:
                if proc.poll() is None:
                    try:
                        proc.send_signal(signal.SIGTERM)
                    except OSError:
                        pass
            deadline = time.monotonic() + timeout
            for proc in procs:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    proc.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    pass
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.kill()
                    proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- worker management ------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker (fault injection; the monitor restarts
        it, journal recovery rebuilds its sessions)."""
        proc = self.workers[index].proc
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    def upgrade_worker(
        self,
        index: int,
        *,
        drain_timeout: float = 15.0,
        migrate: bool = True,
    ) -> dict[str, Any]:
        """Drain, migrate, and respawn one worker — a zero-loss deploy.

        The sequence is the rolling-upgrade runbook, mechanized:
        the router stops routing new HELLOs to the shard (RETRY_AFTER,
        so clients back off instead of erroring), the worker gets
        SIGUSR1 (``serve_forever`` answers with
        :meth:`~repro.service.ProfilingDaemon.park`: every session
        checkpointed, journals closed but *kept*), the shard's state
        is migrated to the current format, and a fresh process — the
        new code — respawns on the same shard and port, recovering
        every parked session at its exact cursor.

        A worker that misses ``drain_timeout`` is SIGKILLed: the
        journal's append-before-ack barrier means even a hard kill
        loses nothing acked, the respawn merely replays instead of
        resuming.  Returns a summary dict for ``dsspy fleet upgrade``.
        """
        worker = self.workers[index]
        out: dict[str, Any] = {
            "worker": index,
            "drained": False,
            "forced": False,
            "migrated": 0,
            "restarted": False,
        }
        worker.upgrading = True
        if self.router is not None:
            self.router.set_draining(index, True)
        try:
            proc = worker.proc
            if proc is not None and proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGUSR1)
                except OSError:
                    pass
                try:
                    proc.wait(timeout=drain_timeout)
                    out["drained"] = True
                except subprocess.TimeoutExpired:
                    # The journal is the source of truth; a stuck
                    # drain must not stall the deploy.
                    out["forced"] = True
                    try:
                        proc.kill()
                        proc.wait(timeout=10.0)
                    except (OSError, subprocess.TimeoutExpired):
                        pass
            elif proc is not None:
                out["drained"] = True  # already exited
            if migrate:
                from .migrate import migrate_state_dir

                out["migrated"] = migrate_state_dir(worker.shard_dir)[
                    "migrated"
                ]
            self._spawn(worker)
            self._await_ready(worker)
            out["restarted"] = True
            if self.router is not None:
                self.router.set_worker(index, worker.address)
        finally:
            worker.upgrading = False
            if self.router is not None:
                self.router.set_draining(index, False)
        self.upgrades += 1
        if self.router is not None:
            self.router.upgrades = self.upgrades
        return out

    def rolling_upgrade(
        self, *, drain_timeout: float = 15.0, migrate: bool = True
    ) -> list[dict[str, Any]]:
        """Upgrade the whole fleet one worker at a time.

        Strictly serial on purpose: at most one shard is draining at
        any moment, so fleet capacity never dips below N-1 workers and
        a failed respawn stops the rollout with the rest of the fleet
        untouched."""
        return [
            self.upgrade_worker(
                index, drain_timeout=drain_timeout, migrate=migrate
            )
            for index in range(len(self.workers))
        ]

    def worker_command(self, worker: _Worker) -> list[str]:
        """The ``dsspy serve`` argv that runs ``worker``."""
        cmd = [
            self._python,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            self._host,
            "--port",
            str(worker.port),
            "--state-dir",
            str(worker.shard_dir),
            "--port-file",
            str(worker.shard_dir / "port"),
            "--checkpoint-every",
            str(self._checkpoint_every),
            "--heartbeat-timeout",
            str(self._heartbeat_timeout),
            "--linger",
            str(self._linger),
        ]
        if self._report_dir is not None:
            cmd += ["--report-dir", str(self._report_dir)]
        return cmd + self._serve_args

    def _spawn(self, worker: _Worker) -> None:
        worker.shard_dir.mkdir(parents=True, exist_ok=True)
        (worker.shard_dir / "port").unlink(missing_ok=True)
        worker.log_path = worker.shard_dir / "serve.log"
        log = open(worker.log_path, "ab")
        try:
            worker.proc = subprocess.Popen(
                self.worker_command(worker),
                env=_repro_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()

    def _await_ready(self, worker: _Worker) -> None:
        """Block until the worker published its bound port."""
        port_file = worker.shard_dir / "port"
        deadline = time.monotonic() + self._startup_timeout
        while time.monotonic() < deadline:
            proc = worker.proc
            if proc is not None and proc.poll() is not None:
                raise RuntimeError(
                    f"fleet worker {worker.index} exited with "
                    f"{proc.returncode} during startup "
                    f"(log: {worker.log_path})"
                )
            try:
                text = port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                worker.port = int(text)
                worker.address = f"{self._host}:{worker.port}"
                return
            time.sleep(0.02)
        raise TimeoutError(
            f"fleet worker {worker.index} did not publish its port within "
            f"{self._startup_timeout}s (log: {worker.log_path})"
        )

    def _monitor_loop(self) -> None:
        while not self._stopping:
            for worker in self.workers:
                proc = worker.proc
                if (
                    proc is None
                    or proc.poll() is None
                    or self._stopping
                    or worker.dead
                    or worker.upgrading  # intentional: upgrade respawns it
                    or not self._auto_restart
                ):
                    continue
                if worker.restarts >= self._max_restarts:
                    worker.dead = True  # crash loop: stop feeding it
                    continue
                worker.restarts += 1
                # Same port, same shard dir: journal recovery rebuilds
                # the sessions and resuming clients (direct or via the
                # router's stable hash) land back on this worker.
                try:
                    self._spawn(worker)
                    self._await_ready(worker)
                except (RuntimeError, TimeoutError, OSError):
                    continue  # next pass retries (counts a restart)
                if self.router is not None:
                    self.router.set_worker(worker.index, worker.address)
            time.sleep(0.2)


# -- fleet-wide merged analysis ----------------------------------------------


class FleetCoordinator:
    """Merge per-shard engine snapshots into one fleet-wide report.

    ``workers`` is a list of addresses or a zero-arg callable returning
    one (the supervisor passes its live list, so restarts are picked
    up), or the router's one address, whose STATS already lists every
    worker's sessions.  :meth:`collect` is one merge pass.
    """

    def __init__(
        self,
        workers: Sequence[str] | Callable[[], list[str]],
        *,
        timeout: float = 10.0,
        thresholds=None,
        detector_config=None,
        rules=None,
    ) -> None:
        self._workers = workers
        self._timeout = timeout
        self._thresholds = thresholds
        self._detector_config = detector_config
        self._rules = rules

    def _addresses(self) -> list[str]:
        return list(self._workers()) if callable(self._workers) else list(self._workers)

    def _gather(self) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        return gather_snapshots(self._addresses(), timeout=self._timeout)

    # -- merging ----------------------------------------------------------

    def merge(
        self,
        snapshots: list[dict[str, Any]],
        errors: Sequence[dict[str, Any]] = (),
    ) -> dict[str, Any]:
        """Merge session snapshots into one converged use-case report.

        Folds are strictly per-instance and ``report()`` evaluates each
        instance on its own, so the fleet-wide engine is every shard's
        folds plus summed counters.  Instance ids are only unique per
        session, so each fold gets a dense fleet-wide id (shards cannot
        collide); ``provenance`` maps each merged id back to its
        origin, and every use case in the merged report carries its
        ``origin`` inline.
        """
        from ..usecases.json_export import report_to_dict
        from .durability import engine_from_dict

        merged: dict[str, Any] = {
            "events_folded": 0,
            "peak_resident_events": 0,
            "unknown_instance_events": 0,
            "folds": [],
        }
        provenance: dict[int, dict[str, Any]] = {}
        sessions: list[dict[str, Any]] = []
        for snap in sorted(snapshots, key=lambda s: s["session"]):
            engine = snap["engine"]
            merged["events_folded"] += engine["events_folded"]
            merged["unknown_instance_events"] += engine["unknown_instance_events"]
            # Peak residency is per-process; the fleet-wide figure is the
            # worst single shard, not a sum of non-simultaneous peaks.
            merged["peak_resident_events"] = max(
                merged["peak_resident_events"], engine["peak_resident_events"]
            )
            for fold in sorted(engine["folds"], key=lambda f: int(f["instance_id"])):
                merged_id = len(provenance) + 1
                provenance[merged_id] = {
                    "worker": snap.get("worker"),
                    "session": snap["session"],
                    "instance_id": int(fold["instance_id"]),
                }
                merged["folds"].append({**fold, "instance_id": merged_id})
            sessions.append(
                {
                    "session": snap["session"],
                    "worker": snap.get("worker"),
                    "state": snap["state"],
                    "received": snap["received"],
                }
            )
        kwargs: dict[str, Any] = {}
        if self._thresholds is not None:
            kwargs["thresholds"] = self._thresholds
        if self._detector_config is not None:
            kwargs["detector_config"] = self._detector_config
        if self._rules is not None:
            kwargs["rules"] = self._rules
        report = report_to_dict(engine_from_dict(merged, **kwargs).report())
        for use_case in report["use_cases"]:
            use_case["origin"] = provenance.get(use_case["instance_id"])
        return {
            "sessions": sessions,
            "events_folded": merged["events_folded"],
            "unknown_instance_events": merged["unknown_instance_events"],
            "report": report,
            "errors": list(errors),
            # A merge with errors is a *partial* view (a worker was
            # down); consumers must not present it as the converged
            # fleet report.
            "complete": not errors,
        }

    def collect(self) -> dict[str, Any]:
        """One full merge pass: gather every shard's snapshots, merge."""
        snapshots, errors = self._gather()
        return self.merge(snapshots, errors=errors)


# -- batch orchestration ------------------------------------------------------


class ResultCache:
    """On-disk cache of finished profiling runs, keyed by task config.

    The key is the SHA-256 of the canonical JSON of the whole task
    config — program, scale, session, anything the caller adds — so
    any config change is a different run, and a rerun of an unchanged
    config is a hit.  Entries store the config alongside the result
    and are verified on read: a hash collision or a stale schema reads
    as a miss, never as wrong data.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.lock_takeovers = 0

    @staticmethod
    def key(config: dict[str, Any]) -> str:
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path(self, config: dict[str, Any]) -> Path:
        return self.root / f"{self.key(config)}.json"

    def get(self, config: dict[str, Any]) -> dict[str, Any] | None:
        path = self.path(config)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            return None
        if entry.get("config") != config:
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def put(self, config: dict[str, Any], result: dict[str, Any]) -> None:
        path = self.path(config)
        # pid-suffixed tmp: two processes racing to fill the same entry
        # never tear each other's tmp file; last replace wins whole.
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(
            json.dumps({"config": config, "result": result}), encoding="utf-8"
        )
        os.replace(tmp, path)  # atomic: a torn write is never a valid entry

    @contextlib.contextmanager
    def lock(self, config: dict[str, Any], *, timeout: float = 600.0,
             poll: float = 0.05):
        """Advisory per-entry exclusive lock, so concurrent ``fleet_run``
        invocations sharing one cache dir compute each miss once.

        Uses ``fcntl.flock`` where available: the kernel releases the
        lock when the holder dies, so a crashed holder is taken over
        automatically (the leftover ``.lock`` file is inert and is
        deliberately never unlinked — unlinking a flock'd path races a
        third process onto a fresh inode and splits the lock).  Where
        ``fcntl`` is missing the fallback is a pid lock file; a holder
        pid that no longer exists is removed and taken over.  Raises
        ``TimeoutError`` when a *live* holder keeps the lock past
        ``timeout`` — callers should treat that as "compute without the
        lock": duplicated work is safe, deadlock is not.
        """
        path = self.root / f"{self.key(config)}.lock"
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            fcntl = None
        deadline = time.monotonic() + timeout
        fh = None
        acquired = False
        try:
            while True:
                if fcntl is not None:
                    fh = open(path, "a+", encoding="utf-8")
                    try:
                        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                        acquired = True
                        break
                    except OSError:
                        fh.close()
                        fh = None
                else:  # pragma: no cover - non-POSIX fallback
                    try:
                        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                        os.write(fd, str(os.getpid()).encode("ascii"))
                        os.close(fd)
                        acquired = True
                        break
                    except FileExistsError:
                        try:
                            holder = int(path.read_text(encoding="ascii"))
                            os.kill(holder, 0)  # raises if the pid is gone
                        except (OSError, ValueError):
                            try:
                                path.unlink()
                                self.lock_takeovers += 1
                            except OSError:
                                pass
                            continue
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"cache entry lock {path.name} held past {timeout}s"
                    )
                time.sleep(poll)
            if fh is not None:
                # Record the holder for operators (`cat *.lock`); the
                # flock itself, not this pid, is the source of truth.
                fh.seek(0)
                fh.truncate()
                fh.write(f"{os.getpid()}\n")
                fh.flush()
            yield
        finally:
            if fh is not None:
                fh.close()  # closing drops the flock
            elif fcntl is None and acquired:  # pragma: no cover
                try:
                    path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


def run_producer_task(spec: dict[str, Any]) -> dict[str, Any]:
    """Run one batch task in *this* process: record the named workload
    through a :class:`~repro.service.RemoteChannel` to ``address`` as
    session ``session``; returns the daemon's final report.

    This is the body of the ``python -m repro.service.fleet
    --run-task`` child.  It must own the process: the collector stack
    is global, so two tracked workloads in one interpreter would
    cross-record into each other's profiles.
    """
    from ..events.collector import collecting
    from ..workloads import workload_by_name

    from .client import RemoteChannel

    workload = workload_by_name(spec["workload"])
    channel = RemoteChannel(
        spec["address"],
        session_id=spec["session"],
        give_up_after=spec.get("give_up_after"),
    )
    with collecting(channel=channel):
        workload.run_tracked(scale=float(spec.get("scale", 1.0)))
    ack = channel.final_ack
    if ack is None:
        raise RuntimeError(
            f"session {spec['session']}: FIN handshake with "
            f"{spec['address']} failed"
        )
    return {
        "session": ack["session"],
        "received": ack["received"],
        "report": ack["report"],
    }


def fleet_run(
    tasks: Sequence[dict[str, Any]],
    address: str,
    cache: ResultCache,
    *,
    workers: Sequence[str] | None = None,
    concurrency: int = 2,
    python: str = sys.executable,
    task_timeout: float = 600.0,
    on_progress: Callable[[str, dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Profile every task against the fleet, skipping cached results.

    Each task is ``{"workload": name, "scale": s, "session": id}``.
    Cache hits return their stored report without touching the fleet;
    misses run as producer subprocesses, up to ``concurrency`` at a
    time.  With ``workers`` given, each producer dials its session's
    hash-assigned worker directly (client-side sharding keeps the
    router out of the data path); otherwise all dial ``address``.
    """
    results: dict[str, dict[str, Any]] = {}
    failures: list[dict[str, Any]] = []
    pending: list[dict[str, Any]] = []
    for task in tasks:
        config = dict(task)
        cached = cache.get(config)
        if cached is not None:
            results[config["session"]] = cached
            if on_progress is not None:
                on_progress("cached", config)
        else:
            pending.append(config)

    lock = threading.Lock()

    def execute(config: dict[str, Any]) -> None:
        target = address
        if workers:
            target = workers[shard_for(config["session"], len(workers))]
        spec = dict(config)
        spec["address"] = target
        # -c instead of -m: runpy would re-execute a module the repro
        # package already imported and warn about it.
        entry = "from repro.service.fleet import main; import sys; sys.exit(main())"
        proc = subprocess.run(
            [python, "-c", entry, "--run-task", json.dumps(spec)],
            env=_repro_env(),
            capture_output=True,
            text=True,
            timeout=task_timeout,
        )
        if proc.returncode != 0:
            with lock:
                failures.append(
                    {
                        "session": config["session"],
                        "returncode": proc.returncode,
                        "stderr": proc.stderr[-2000:],
                    }
                )
            if on_progress is not None:
                on_progress("failed", config)
            return
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        cache.put(config, result)
        with lock:
            results[config["session"]] = result
        if on_progress is not None:
            on_progress("ran", config)

    def run_one(config: dict[str, Any]) -> None:
        # The entry lock serializes concurrent fleet_run invocations
        # sharing this cache dir; whoever loses the race re-checks the
        # cache and takes the winner's result instead of recomputing.
        try:
            with cache.lock(config, timeout=task_timeout):
                cached = cache.get(config)
                if cached is not None:
                    with lock:
                        results[config["session"]] = cached
                    if on_progress is not None:
                        on_progress("cached", config)
                    return
                execute(config)
        except TimeoutError:
            # A live holder wedged past the task timeout: duplicated
            # work is safe, waiting forever is not.
            execute(config)

    threads: list[threading.Thread] = []
    queue = list(pending)

    def drain_queue() -> None:
        while True:
            with lock:
                if not queue:
                    return
                config = queue.pop(0)
            try:
                run_one(config)
            except (subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
                with lock:
                    failures.append(
                        {"session": config["session"], "error": str(exc)}
                    )

    for _ in range(max(1, min(concurrency, len(pending)))):
        thread = threading.Thread(target=drain_queue, daemon=True)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()

    flagged: dict[str, int] = {}
    for result in results.values():
        for use_case in result["report"].get("use_cases", []):
            abbrev = use_case["abbreviation"]
            flagged[abbrev] = flagged.get(abbrev, 0) + 1
    return {
        "tasks": len(tasks),
        "cache_hits": len(tasks) - len(pending),
        "ran": len(pending) - len(failures),
        "failures": failures,
        "flagged": flagged,
        "results": results,
    }


def main(argv: Sequence[str] | None = None) -> int:
    """Module entry point: the producer child of :func:`fleet_run`."""
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.service.fleet")
    parser.add_argument(
        "--run-task",
        required=True,
        metavar="JSON",
        help="task spec: {workload, scale, session, address}",
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.run_task)
    result = run_producer_task(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

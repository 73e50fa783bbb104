"""Chaos soak: the one seeded trial runner for the profiling service.

Every trial turns one seed into a generated trace and a fault schedule,
ships the trace through a fault-injecting proxy into a fresh daemon
(or a whole :class:`~repro.service.fleet.FleetSupervisor`), and then
asserts the **no-silent-loss ledger** via :class:`InvariantMonitor`:

1. every event the producer generated was acknowledged (FIN
   ``received`` equals the trace length);
2. the recovered report is *exactly* the batch engine's report, and
   (inproc) so is the streaming engine's — batch ≡ streaming ≡ daemon,
   where crash-recovery may cost duplicates, never data or phantom
   flags;
3. every refusal the client observed (RETRY-AFTER frames) appears in
   some server-side counter (``refused_windows`` on the governor,
   shed windows on the admission ladder, ``refused_hellos``) — load
   may be shed, but only *with accounting*;
4. recovery after a kill is time-bounded;
5. the state directory the trial leaves behind passes
   :func:`~repro.service.fsck.fsck_state_dir` with zero problems;
6. no event was dropped for an instance the daemon never saw
   registered (``dropped_unknown_instance``).

Network faults come from :class:`~repro.testing.faults.FaultPlan`
(resets, duplicates, reorders, corrupt records, chunked frames,
stalls, daemon kills).  On top of them a trial may draw disk faults, a
producer storm and a version-skewed upgrade; with those three rates at
zero the soak is the plain network-fault differential check.  A
violating inproc trial can be replayed with an explicit trace and
shrunk to a minimal one (:meth:`ChaosSoak.shrink_failure`).

A deliberately broken rung — e.g. patching
:class:`~repro.service.governor.ResourceGovernor.note_refused` into a
no-op — violates invariant 3 within a few dozen seeded trials; that
detection test is the harness's own smoke alarm.

Disk faults use :class:`~repro.testing.faults.FaultFS`.  An exhausted
ENOSPC budget would starve a trial forever, so :func:`ship_trace` plays
the operator: after ``relieve_after`` consecutive refusals it calls
``fs.relieve()`` ("disk freed") and lets the governor's pressure decay
bring the daemon back — which exercises exactly the
degrade-then-recover path the ladder exists for.

The ``upgrade`` fault (:attr:`ChaosSoak.upgrade_rate`) replays a
version-skewed deploy mid-trial.  Inproc: the daemon generation is
parked (drain + checkpoint), its state dir regressed to the previous
on-disk format, ``migrate`` run — often first under a hostile FaultFS
that dies mid-rewrite, the stand-in for SIGKILL during ``dsspy
migrate`` — then finished clean, and the next generation boots on the
migrated state.  Fleet: a real :meth:`FleetSupervisor.rolling_upgrade`
runs while sessions stream.  Either way the ledger must balance.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..service.client import ServiceClient, fetch_stats
from ..service.daemon import ProfilingDaemon
from ..service.fleet import FleetSupervisor
from ..service.fsck import fsck_state_dir
from ..service.migrate import migrate_state_dir
from ..service.protocol import ProtocolError, RetryAfterError
from .faults import FAULT_KINDS, FaultFS, FaultPlan, FaultProxy
from .oracle import (
    FAULT_SEED_SALT,
    diff_summaries,
    run_batch_path,
    run_streaming_path,
    summarize_report,
)
from .shrink import shrink_trace
from .traces import Trace, generate_trace

#: Mixed into the trial seed to derive the disk-fault seed, so the
#: FaultFS schedule varies independently of trace and network faults.
DISK_SEED_SALT = 0xD15C_0BAD

#: Mixed into the trial seed for storm-producer traces.
STORM_SEED_SALT = 0x57012_AB

#: Per-trial counters the soak summary adds up.
_SUMMED_RESULT_FIELDS = (
    "events",
    "faults_injected",
    "kills",
    "upgrades",
    "refusals_observed",
    "refusals_accounted",
)

#: Mixed into the trial seed for the upgrade fault's own randomness
#: (mid-migration fault profile), independent of the other schedules.
UPGRADE_SEED_SALT = 0x06_AD_E5


def regress_state_dir_to_v1(root: str | Path) -> int:
    """TEST SCAFFOLDING: rewrite a state directory the way the
    previous (v1) dsspy generation left it — v1 segment magics and v1
    checkpoints without the ``format`` block.  Real old builds write
    this shape natively; the chaos ``upgrade`` fault regresses fresh
    state so every soak trial hands ``migrate`` genuinely old input.
    Returns the number of files rewritten."""
    from ..service.durability import restamped_segment, scan_session_dir, walk_state_dir

    rewritten = 0
    for directory in walk_state_dir(root):
        scan = scan_session_dir(directory, versions_only=True)
        for segment in scan.segments:
            if segment.version is not None and segment.version > 1:
                segment.path.write_bytes(restamped_segment(segment.path, 1))
                rewritten += 1
        state = scan.checkpoint_state
        if state is not None and scan.checkpoint_version not in (None, 1):
            state["version"] = 1
            state.pop("format", None)
            scan.checkpoint_path.write_text(json.dumps(state, separators=(",", ":")))
            rewritten += 1
    return rewritten


def _accounted_refusals(stats: dict[str, Any]) -> int:
    """Total refusals the server's ledger accounts for, from a STATS
    payload: governor-refused windows + admission-shed windows +
    refused HELLOs."""
    admission = stats.get("admission") or {}
    governor = admission.get("governor") or {}
    shed = (admission.get("windows_by_stage") or {}).get("shed", 0)
    return (
        int(governor.get("refused_windows", 0))
        + int(shed)
        + int(admission.get("refused_hellos", 0))
    )


def _offline_replay_notes(state_dir: Path, batch: dict[str, Any]) -> list[str]:
    """Autopsy aid, run when a trial violates: replay every surviving
    session journal offline and diff the replayed report against the
    batch summary.  A replay that *matches* batch while the live
    report diverged pins the bug on the live fold path; a replay that
    diverges the same way pins it on the journal itself.  The lines
    are labelled ``diagnostic:`` and ride along with the violations in
    the trial ledger — they never flip a passing trial."""
    notes: list[str] = []
    try:
        from ..service.durability import recover_session_dir, walk_state_dir
        from ..usecases.json_export import report_to_dict

        for directory in walk_state_dir(state_dir):
            rec = recover_session_dir(directory)
            summary = summarize_report(report_to_dict(rec.engine.report()))
            diff = diff_summaries("batch", batch, "replay", summary)
            verdict = "matches batch" if not diff else "; ".join(diff)[:600]
            notes.append(
                f"diagnostic: offline replay of {directory.name} "
                f"(received={rec.received}, replayed={rec.events_replayed}, "
                f"notes={rec.notes!r}): {verdict}"
            )
    except Exception as exc:  # diagnostics must never mask the violation
        notes.append(f"diagnostic: offline replay failed: {exc!r}")
    return notes


def ship_trace(
    trace: Trace,
    address: str,
    *,
    window: int = 64,
    session_id: str | None = None,
    fs: FaultFS | None = None,
    relieve_after: int = 3,
    max_attempts: int = 600,
    retry_delay: float = 0.0,
    recovery_log: list[float] | None = None,
) -> tuple[dict[str, Any], int, int]:
    """Ship ``trace`` to a daemon, surviving whatever lies in between;
    returns ``(report, refusals_observed, final_received)``.

    ``address`` may point at a daemon, a fleet router, or a
    :class:`~repro.testing.faults.FaultProxy` in front of either.  The
    loop speaks :class:`~repro.service.client.RemoteChannel`'s recovery
    protocol synchronously, so a seeded trial replays identically: on
    any socket or protocol error it reconnects with the same session
    id, rewinds its cursor to the server's ``received`` count, and
    resends the tail, until the FIN ACK confirms every event arrived.

    ``session_id`` adopts an existing session (e.g. one begun before a
    daemon crash) instead of opening a fresh one; the cursor rewind
    makes the retransmitted prefix a duplicate the daemon skips.
    RETRY-AFTER frames are counted (the count is later compared with
    the server's own refusal counters) and, after ``relieve_after``
    consecutive refusals, the injected ``fs`` is relieved — the seeded
    stand-in for an operator freeing disk space.  ``retry_delay``
    spaces reconnects out for daemons that restart in real time (a
    killed subprocess or fleet worker).  ``recovery_log`` records the
    span from the first transport error to the next successful send,
    i.e. client-observed recovery time.
    """
    total = len(trace.events)
    registrations = [inst.registration() for inst in trace.instances]
    events = trace.events
    client: ServiceClient | None = None
    sent = 0
    observed = 0
    consecutive = 0
    outage_start: float | None = None
    for _attempt in range(max_attempts):
        try:
            if client is None:
                client = ServiceClient(address, session_id=session_id)
                session_id = client.session_id
                # The server cursor is authoritative (same rule as
                # RemoteChannel._connect): a resumed session rewinds,
                # a fresh one restarts from zero.
                sent = min(sent, client.server_received) if client.resumed else 0
                client.register_instances(registrations)
            while sent < total:
                n = min(window, total - sent)
                client.send_events(sent, events[sent : sent + n])
                sent += n
                if outage_start is not None:
                    if recovery_log is not None:
                        recovery_log.append(time.monotonic() - outage_start)
                    outage_start = None
            ack = client.fin()
            client.close()
            if ack.get("received") != total:
                raise AssertionError(
                    f"daemon acknowledged {ack.get('received')} of {total} events"
                )
            return ack["report"], observed, int(ack.get("received", 0))
        except RetryAfterError as exc:
            # An accounted refusal, not an outage: count it, give the
            # server the breather it asked for, and eventually play the
            # operator and free disk.
            observed += 1
            consecutive += 1
            if client is not None:
                client.close()
                client = None
            if fs is not None and consecutive >= relieve_after:
                fs.relieve()
            time.sleep(min(max(exc.retry_after, 0.01), 0.25))
        except (OSError, ProtocolError):
            if outage_start is None:
                outage_start = time.monotonic()
            consecutive = 0
            if client is not None:
                client.close()
                client = None
            if retry_delay:
                time.sleep(retry_delay)
    raise RuntimeError(
        f"ship did not converge after {max_attempts} attempts "
        f"(session {session_id}, {sent}/{total} shipped, "
        f"{observed} refusals observed)"
    )


@dataclass
class InvariantMonitor:
    """The no-silent-loss ledger, as independent checks.

    Each ``check_*`` returns a list of violation strings (empty when
    the invariant holds); :meth:`check` runs them all.  Kept as small
    composable methods so the fleet backend can run the per-session
    report check many times but the ledger check once per trial.
    """

    #: Max seconds a single crash-recovery may take.
    recovery_bound: float = 15.0

    def check_counts(self, total_events: int, final_received: int) -> list[str]:
        if final_received != total_events:
            return [
                f"event loss: daemon acknowledged {final_received} of "
                f"{total_events} events"
            ]
        return []

    def check_reports(
        self, batch: dict[str, Any], other: dict[str, Any], name: str = "chaos-daemon"
    ) -> list[str]:
        return diff_summaries("batch", batch, name, other)

    def check_ledger(self, observed: int, accounted: int) -> list[str]:
        if observed > accounted:
            return [
                f"silent shed: client observed {observed} RETRY-AFTER "
                f"refusals but the server ledger accounts for only "
                f"{accounted}"
            ]
        return []

    def check_recovery(self, recovery_times: list[float]) -> list[str]:
        slow = [t for t in recovery_times if t > self.recovery_bound]
        if slow:
            return [
                f"recovery bound exceeded: {len(slow)} recoveries above "
                f"{self.recovery_bound:.1f}s (worst {max(slow):.2f}s)"
            ]
        return []

    def check_drops(self, dropped: int) -> list[str]:
        """Events the daemon's engine discarded because their instance
        was never registered.  Well-behaved clients register before
        they ship, so any drop is loss that no cursor accounts for."""
        if dropped > 0:
            return [
                f"silent drop: the daemon discarded {dropped} events for "
                f"unregistered instances"
            ]
        return []

    def check_fsck(self, report: dict[str, Any] | None) -> list[str]:
        if report is None or report.get("ok", False):
            return []
        problems = [
            f"{s.get('session', '?')}: {p}"
            for s in report.get("sessions", [])
            for p in s.get("problems", [])
        ]
        problems.extend(str(p) for p in report.get("problems", []))
        return ["fsck found damage in the surviving state dir: " + "; ".join(problems)]

    def check(
        self,
        *,
        total_events: int,
        final_received: int,
        batch: dict[str, Any],
        daemon: dict[str, Any],
        observed_refusals: int,
        accounted_refusals: int,
        recovery_times: list[float],
        fsck_report: dict[str, Any] | None,
        dropped_unknown: int,
    ) -> list[str]:
        out = self.check_counts(total_events, final_received)
        out += self.check_reports(batch, daemon)
        out += self.check_ledger(observed_refusals, accounted_refusals)
        out += self.check_recovery(recovery_times)
        out += self.check_fsck(fsck_report)
        out += self.check_drops(dropped_unknown)
        return out


@dataclass
class ChaosTrialResult:
    """Outcome of one seeded chaos trial — everything the ledger saw."""

    seed: int
    backend: str
    ok: bool
    violations: list[str] = field(default_factory=list)
    events: int = 0
    sessions: int = 1
    faults_injected: int = 0
    kills: int = 0
    upgrades: int = 0
    refusals_observed: int = 0
    refusals_accounted: int = 0
    recovery_times: list[float] = field(default_factory=list)
    disk_faults: dict[str, Any] | None = None
    elapsed: float = 0.0
    #: Inproc only: the trace and fault plan the trial ran, so a
    #: violation can be replayed and shrunk.  Not part of the ledger.
    trace: Trace | None = None
    plan: FaultPlan | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "backend": self.backend,
            "ok": self.ok,
            "violations": self.violations,
            "events": self.events,
            "sessions": self.sessions,
            "faults_injected": self.faults_injected,
            "kills": self.kills,
            "upgrades": self.upgrades,
            "refusals_observed": self.refusals_observed,
            "refusals_accounted": self.refusals_accounted,
            "recovery_times": [round(t, 4) for t in self.recovery_times],
            "disk_faults": self.disk_faults,
            "elapsed": round(self.elapsed, 4),
        }

    def describe(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        lines = [
            f"trial seed={self.seed}: {status} ({self.events} events, "
            f"{self.faults_injected} faults, {self.kills} kills, "
            f"{self.upgrades} upgrades, "
            f"{self.refusals_observed} refusals, {self.elapsed:.2f}s)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


class ChaosSoak:
    """Time-boxed randomized soak of the profiling service.

    ``backend="inproc"`` (default): each trial builds a fresh
    :class:`ProfilingDaemon` on its own state dir, optionally with a
    seeded :class:`FaultFS` underneath, fronted by a
    :class:`FaultProxy` whose ``kill`` fault crashes the daemon
    in-process and times the recovery.  The trial also feeds the trace
    to the streaming engine directly, so it checks batch ≡ streaming ≡
    daemon.  Cheap enough for hundreds-of-trials soaks.  With
    ``disk_fault_rate``, ``storm_rate`` and ``upgrade_rate`` at zero it
    is the plain network-fault differential check.

    ``backend="fleet"``: each trial starts a real
    :class:`FleetSupervisor` (router + worker subprocesses), ships
    several sessions concurrently through the proxy, SIGKILLs random
    workers mid-stream, and additionally asserts that the fleet
    coordinator's *merged* report equals the union of the per-session
    batch reports.  Slower; meant for short smokes and nightlies.

    Use as a context manager or call :meth:`close` — the soak owns a
    temp root that every trial's state dir lives under.
    """

    def __init__(
        self,
        *,
        backend: str = "inproc",
        window: int = 48,
        fault_intensity: float = 0.3,
        fault_kinds: tuple[str, ...] = FAULT_KINDS,
        max_faults: int = 6,
        checkpoint_every: int = 128,
        retry_after: float = 0.05,
        disk_fault_rate: float = 0.6,
        storm_rate: float = 0.3,
        upgrade_rate: float = 0.0,
        max_storm_producers: int = 3,
        relieve_after: int = 3,
        state_budget: int | None = None,
        fault_fs_factory: Callable[[int], FaultFS | None] | None = None,
        fleet_workers: int = 3,
        fleet_sessions: int = 3,
        fleet_fault_fs_spec: str | None = None,
        trace_kwargs: dict[str, Any] | None = None,
        monitor: InvariantMonitor | None = None,
    ) -> None:
        if backend not in ("inproc", "fleet"):
            raise ValueError(f"backend must be 'inproc' or 'fleet', got {backend!r}")
        self.backend = backend
        self.window = window
        self.fault_intensity = fault_intensity
        self.fault_kinds = fault_kinds
        self.max_faults = max_faults
        self.checkpoint_every = checkpoint_every
        self.retry_after = retry_after
        self.disk_fault_rate = disk_fault_rate
        self.storm_rate = storm_rate
        self.upgrade_rate = upgrade_rate
        self.max_storm_producers = max_storm_producers
        self.relieve_after = relieve_after
        self.state_budget = state_budget
        self.fault_fs_factory = fault_fs_factory or self._default_fault_fs
        self.fleet_workers = fleet_workers
        self.fleet_sessions = fleet_sessions
        self.fleet_fault_fs_spec = fleet_fault_fs_spec
        self.trace_kwargs = dict(trace_kwargs or {})
        self.monitor = monitor or InvariantMonitor()
        self._root = Path(tempfile.mkdtemp(prefix="dsspy-chaos-"))

    # -- seeded ingredients ----------------------------------------------

    def _default_fault_fs(self, seed: int) -> FaultFS | None:
        """Seeded disk-fault profile.  Budgets are sized against chaos
        trial journals (tens of KiB), not :meth:`FaultFS.from_seed`'s
        MiB-scale default, so a good fraction of trials actually hit
        ENOSPC mid-stream and exercise the refusal ledger."""
        rng = random.Random(seed ^ DISK_SEED_SALT)
        if rng.random() >= self.disk_fault_rate:
            return None
        intensity = max(self.fault_intensity, 0.3)
        return FaultFS(
            enospc_after_bytes=(
                rng.randrange(256, 16_384) if rng.random() < 0.7 else None
            ),
            partial_writes=rng.random() < 0.5,
            eio_every_reads=(
                rng.randrange(5, 50) if rng.random() < intensity * 0.5 else None
            ),
            fsync_stall_seconds=(
                rng.uniform(0.001, 0.01) if rng.random() < intensity * 0.3 else 0.0
            ),
        )

    def build_plan(self, seed: int) -> FaultPlan:
        if self.fault_intensity <= 0:
            return FaultPlan.transparent()
        return FaultPlan.from_seed(
            seed ^ FAULT_SEED_SALT,
            intensity=self.fault_intensity,
            max_faults=self.max_faults,
            kinds=self.fault_kinds,
        )

    # -- trials -----------------------------------------------------------

    def run_trial(self, seed: int, trace: Trace | None = None) -> ChaosTrialResult:
        """One seeded trial.  ``trace`` (inproc only) replaces the
        seed's generated trace while every fault schedule still comes
        from ``seed`` — how a violation is replayed and shrunk."""
        if self.backend == "fleet":
            if trace is not None:
                raise ValueError("explicit traces need the inproc backend")
            return self._run_trial_fleet(seed)
        return self._run_trial_inproc(seed, trace)

    def shrink_failure(
        self, result: ChaosTrialResult, *, max_rounds: int = 200
    ) -> Trace:
        """Minimize a violating inproc trial's trace, replaying it with
        the same seed (and therefore the same fault schedules) each
        time; see :func:`~repro.testing.shrink.shrink_trace`."""
        if result.ok or result.trace is None:
            raise ValueError("can only shrink a violating inproc trial")
        return shrink_trace(
            result.trace,
            lambda candidate: not self.run_trial(result.seed, candidate).ok,
            max_rounds=max_rounds,
        )

    def _run_trial_inproc(
        self, seed: int, trace: Trace | None = None
    ) -> ChaosTrialResult:
        t_start = time.monotonic()
        rng = random.Random(seed)
        if trace is None:
            trace = generate_trace(seed, **self.trace_kwargs)
        batch = summarize_report(run_batch_path(trace))
        streaming = summarize_report(run_streaming_path(trace, window=self.window))
        fs = self.fault_fs_factory(seed)
        state_dir = self._root / f"trial-{seed:08d}"
        plan = self.build_plan(seed)

        recovery_times: list[float] = []
        kills = 0
        daemon_box: dict[str, ProfilingDaemon] = {}
        #: Every daemon generation ever started, dead or alive.  The
        #: refusal counters live on each daemon's governor, which
        #: survives crash(), so the trial sums the ledger across *all*
        #: generations at the end instead of snapshotting at kill time
        #: — a snapshot race cannot under-account, and no generation
        #: can escape the sum.
        generations: list[ProfilingDaemon] = []
        kill_lock = threading.Lock()

        def make_daemon() -> ProfilingDaemon:
            daemon = ProfilingDaemon(
                port=0,
                heartbeat_timeout=3600.0,
                session_linger=3600.0,
                state_dir=state_dir,
                checkpoint_every=self.checkpoint_every,
                retry_after=self.retry_after,
                fs=fs,
            )
            generations.append(daemon)
            return daemon

        recovery_failures: list[str] = []

        def on_kill() -> str:
            # SIGKILL semantics: crash the current generation and
            # recover a replacement on the same state dir.  The lock is
            # load-bearing: kill faults fire on per-connection proxy
            # threads, and two concurrent kills would both crash the
            # same generation and then each start a replacement — one
            # of the two replacements ends up orphaned (clients talk to
            # it, but the trial's final stats read the other), and both
            # would recover from and append to the same state dir at
            # once.
            nonlocal kills
            with kill_lock:
                daemon_box["d"].crash()
                t0 = time.monotonic()
                try:
                    daemon_box["d"] = make_daemon()
                except Exception as exc:
                    # Recovery refusing to come up is itself a ledger
                    # violation — record it loudly instead of letting
                    # the proxy thread die and the trial stall to
                    # timeout.
                    recovery_failures.append(
                        f"daemon failed to recover after kill: {exc!r}"
                    )
                    raise
                recovery_times.append(time.monotonic() - t0)
                kills += 1
                return daemon_box["d"].address

        daemon_box["d"] = make_daemon()
        violations: list[str] = []
        storm_violations: list[str] = []
        storm_observed = [0]
        fsck_report: dict[str, Any] | None = None
        observed = 0
        received = 0
        accounted = 0
        # No rng draws unless the fault is enabled: upgrade_rate=0 must
        # leave the seeded fault/storm stream byte-identical to builds
        # that predate the upgrade fault.
        want_upgrade = self.upgrade_rate > 0 and rng.random() < self.upgrade_rate
        upgrade_delay = rng.uniform(0.05, 0.4) if self.upgrade_rate > 0 else 0.0
        upgrades = [0]
        upgrade_violations: list[str] = []
        try:
            with FaultProxy(
                daemon_box["d"].address, plan, on_kill=on_kill
            ) as proxy:
                upgrade_thread: threading.Thread | None = None
                if want_upgrade:

                    def do_upgrade() -> None:
                        # Inproc flavor of a rolling upgrade: park the
                        # running generation, regress its state dir to
                        # the previous format (stand-in for "the old
                        # build wrote this"), migrate — often first
                        # under a hostile FaultFS that dies mid-rewrite,
                        # like SIGKILL during `dsspy migrate` — then
                        # finish the migration clean and boot the next
                        # generation on the result.  The kill lock
                        # serializes against kill faults: nothing else
                        # may crash or replace the generation while the
                        # state dir is mid-surgery.
                        time.sleep(upgrade_delay)
                        with kill_lock:
                            old = daemon_box["d"]
                            try:
                                old.park()
                            except Exception:
                                old.crash()  # journal is the truth
                            try:
                                regress_state_dir_to_v1(state_dir)
                                urng = random.Random(seed ^ UPGRADE_SEED_SALT)
                                if urng.random() < 0.6:
                                    hostile = FaultFS(
                                        enospc_after_bytes=urng.randrange(64, 4096),
                                        partial_writes=urng.random() < 0.7,
                                    )
                                    try:
                                        migrate_state_dir(state_dir, fs=hostile)
                                    except OSError:
                                        pass  # the killed-mid-migration half
                                migrate_state_dir(state_dir)
                            except Exception as exc:
                                upgrade_violations.append(
                                    f"upgrade migration failed: {exc!r}"
                                )
                            t0 = time.monotonic()
                            try:
                                daemon_box["d"] = make_daemon()
                            except Exception as exc:
                                upgrade_violations.append(
                                    f"post-upgrade generation failed to boot: {exc!r}"
                                )
                                return
                            proxy.upstream_address = daemon_box["d"].address
                            recovery_times.append(time.monotonic() - t0)
                            upgrades[0] += 1

                    upgrade_thread = threading.Thread(target=do_upgrade, daemon=True)
                    upgrade_thread.start()
                storm_threads: list[threading.Thread] = []
                if rng.random() < self.storm_rate:
                    for i in range(rng.randint(1, self.max_storm_producers)):
                        storm_seed = (seed * 1_000_003 + i + 1) ^ STORM_SEED_SALT
                        storm_trace = generate_trace(
                            storm_seed,
                            max_instances=2,
                            max_segments=2,
                            max_segment_events=40,
                        )
                        storm_batch = summarize_report(run_batch_path(storm_trace))

                        def storm(i=i, st=storm_trace, sb=storm_batch) -> None:
                            try:
                                rep, obs, _ = ship_trace(
                                    st,
                                    proxy.address,
                                    window=16,
                                    fs=fs,
                                    relieve_after=self.relieve_after,
                                )
                                storm_observed[0] += obs
                                storm_violations.extend(
                                    diff_summaries(
                                        "batch", sb, f"storm-{i}", summarize_report(rep)
                                    )
                                )
                            except Exception as exc:
                                storm_violations.append(
                                    f"storm producer {i} did not converge: {exc!r}"
                                )

                        th = threading.Thread(target=storm, daemon=True)
                        th.start()
                        storm_threads.append(th)

                report, observed, received = ship_trace(
                    trace,
                    proxy.address,
                    window=self.window,
                    fs=fs,
                    relieve_after=self.relieve_after,
                )
                for th in storm_threads:
                    th.join(timeout=60.0)
                    if th.is_alive():
                        storm_violations.append("storm producer still running")
                if upgrade_thread is not None:
                    # The upgrade may outlive the ship (short traces):
                    # wait for it so the final ledger sum, fsck, and
                    # cleanup see a settled state dir.
                    upgrade_thread.join(timeout=60.0)
                    if upgrade_thread.is_alive():
                        upgrade_violations.append("upgrade fault still running")

            # Ship threads have joined, so every observed refusal's
            # counter increment (which strictly precedes the RETRY-AFTER
            # send) is already visible in its generation's ledger.
            all_stats = [d.stats() for d in generations]
            accounted = sum(_accounted_refusals(st) for st in all_stats)
            dropped = sum(
                s["dropped_unknown_instance"]
                for st in all_stats
                for s in st["sessions"]
            )
            fsck_report = fsck_state_dir(state_dir)
            violations = self.monitor.check_reports(batch, streaming, "streaming")
            violations += self.monitor.check(
                total_events=len(trace.events),
                final_received=received,
                batch=batch,
                daemon=summarize_report(report),
                observed_refusals=observed + storm_observed[0],
                accounted_refusals=accounted,
                recovery_times=recovery_times,
                fsck_report=fsck_report,
                dropped_unknown=dropped,
            )
            violations += storm_violations
            violations += upgrade_violations
        except Exception as exc:
            violations.append(f"trial aborted: {exc!r}")
        finally:
            violations += recovery_failures
            if violations:
                # Freeze the evidence first — crash(), not close(), so
                # no flush or checkpoint rewrites the state dir — then
                # record the offline-replay verdict next to the
                # violations.
                try:
                    daemon_box["d"].crash()
                except Exception:
                    pass
                violations += _offline_replay_notes(state_dir, batch)
            try:
                daemon_box["d"].purge_sessions()
                daemon_box["d"].close()
            except Exception:
                pass
            shutil.rmtree(state_dir, ignore_errors=True)

        return ChaosTrialResult(
            seed=seed,
            backend="inproc",
            ok=not violations,
            violations=violations,
            events=len(trace.events),
            sessions=1,
            faults_injected=len(plan.injected),
            kills=kills,
            upgrades=upgrades[0],
            refusals_observed=observed + storm_observed[0],
            refusals_accounted=accounted,
            recovery_times=recovery_times,
            disk_faults=fs.stats() if fs is not None else None,
            elapsed=time.monotonic() - t_start,
            trace=trace,
            plan=plan,
        )

    def _run_trial_fleet(self, seed: int) -> ChaosTrialResult:
        t_start = time.monotonic()
        rng = random.Random(seed)
        traces = [
            generate_trace((seed * 7919 + i) & 0x7FFFFFFF, **self.trace_kwargs)
            for i in range(self.fleet_sessions)
        ]
        batches = [summarize_report(run_batch_path(t)) for t in traces]
        state_dir = self._root / f"fleet-{seed:08d}"
        serve_args: list[str] = []
        if self.fleet_fault_fs_spec:
            serve_args += ["--fault-fs", self.fleet_fault_fs_spec]
        plan = self.build_plan(seed)
        recovery_log: list[float] = []
        accounted_carry = [0]
        kills = [0]

        sup = FleetSupervisor(
            self.fleet_workers,
            state_dir,
            checkpoint_every=self.checkpoint_every,
            heartbeat_timeout=3600.0,
            linger=3600.0,
            serve_args=serve_args,
        )
        sup.start()
        kill_lock = threading.Lock()

        def on_kill() -> None:
            # SIGKILL a random worker; the supervisor monitor restarts
            # it on the same shard dir.  Snapshot its ledger first
            # (best effort — a refusal may land between snapshot and
            # kill, which is why the fleet ledger check is advisory
            # when kills occurred).  The lock serializes kill faults
            # firing from different proxy connection threads: the rng
            # and the carry are not thread-safe, and overlapping kills
            # of the same worker would double-snapshot its ledger.
            # Returning None keeps the proxy pointed at the router,
            # whose address never changes.
            with kill_lock:
                idx = rng.randrange(self.fleet_workers)
                try:
                    accounted_carry[0] += _accounted_refusals(
                        fetch_stats(sup.worker_addresses()[idx])
                    )
                except Exception:
                    pass
                sup.kill_worker(idx)
                kills[0] += 1
                return None

        violations: list[str] = []
        observed_total = [0]
        received_total = [0]
        total_events = sum(len(t.events) for t in traces)
        accounted = 0
        fsck_report: dict[str, Any] | None = None
        merged: dict[str, Any] | None = None
        # As in the inproc trial: zero rng draws when disabled.
        want_upgrade = self.upgrade_rate > 0 and rng.random() < self.upgrade_rate
        upgrade_delay = rng.uniform(0.1, 0.6) if self.upgrade_rate > 0 else 0.0
        upgrades = [0]
        upgrade_violations: list[str] = []
        try:
            with FaultProxy(sup.address, plan, on_kill=on_kill) as proxy:
                session_violations: list[str] = []
                lock = threading.Lock()

                def ship_one(i: int) -> None:
                    try:
                        rep, obs, recv = ship_trace(
                            traces[i],
                            proxy.address,
                            window=self.window,
                            relieve_after=self.relieve_after,
                            max_attempts=400,
                            retry_delay=0.05,
                            recovery_log=recovery_log,
                        )
                        diffs = self.monitor.check_reports(
                            batches[i], summarize_report(rep)
                        )
                        with lock:
                            observed_total[0] += obs
                            received_total[0] += recv
                            session_violations.extend(
                                f"session {i}: {d}" for d in diffs
                            )
                    except Exception as exc:
                        with lock:
                            session_violations.append(
                                f"session {i} did not converge: {exc!r}"
                            )

                threads = [
                    threading.Thread(target=ship_one, args=(i,), daemon=True)
                    for i in range(self.fleet_sessions)
                ]
                for th in threads:
                    th.start()
                upgrade_thread: threading.Thread | None = None
                if want_upgrade:

                    def do_upgrade() -> None:
                        # A real rolling upgrade mid-storm.  Each
                        # worker's ledger dies with its process, so
                        # snapshot every worker's accounted refusals
                        # first (same carry as the kill path).  The
                        # kill lock keeps kill faults from SIGKILLing
                        # a worker the supervisor is mid-upgrade on.
                        time.sleep(upgrade_delay)
                        with kill_lock:
                            for addr in sup.worker_addresses():
                                try:
                                    accounted_carry[0] += _accounted_refusals(
                                        fetch_stats(addr)
                                    )
                                except Exception:
                                    pass
                            try:
                                results = sup.rolling_upgrade(drain_timeout=10.0)
                            except Exception as exc:
                                upgrade_violations.append(
                                    f"rolling upgrade failed: {exc!r}"
                                )
                            else:
                                upgrades[0] += len(results)

                    upgrade_thread = threading.Thread(target=do_upgrade, daemon=True)
                    upgrade_thread.start()
                for th in threads:
                    th.join(timeout=120.0)
                    if th.is_alive():
                        session_violations.append("fleet session still running")
                if upgrade_thread is not None:
                    upgrade_thread.join(timeout=120.0)
                    if upgrade_thread.is_alive():
                        upgrade_violations.append("rolling upgrade still running")
                violations += session_violations
                violations += upgrade_violations
                # A kill near the end of shipping may leave the worker
                # mid-restart; the merge must see the whole fleet, so
                # wait (bounded) for every worker to answer STATS.
                not_back = self._await_workers(sup, self.monitor.recovery_bound)
                if not_back:
                    violations += [
                        f"worker not back within "
                        f"{self.monitor.recovery_bound:.1f}s of kill: {p}"
                        for p in not_back
                    ]
                merged = sup.coordinator().collect()

            for addr in sup.worker_addresses():
                try:
                    accounted += _accounted_refusals(fetch_stats(addr))
                except Exception:
                    pass
            accounted += accounted_carry[0]
            # Drain refusals (RETRY_AFTER for a draining shard) are
            # accounted on the router, not any worker.
            try:
                accounted += int(fetch_stats(sup.address).get("drain_refusals", 0))
            except Exception:
                pass

            violations += self.monitor.check_counts(total_events, received_total[0])
            # The coordinator merges *lingering* sessions.  A rolling
            # upgrade evicts finished-and-lingering sessions exactly
            # like linger expiry does (their reports were delivered at
            # FIN — the per-session report check above already proved
            # them), so the cross-session merge is only checkable when
            # no upgrade ran.
            if upgrades[0] == 0:
                violations += self._check_merged(batches, merged)
            if merged is not None:
                violations += self.monitor.check_drops(
                    int(merged.get("unknown_instance_events", 0))
                )
            # Refusal ledger is advisory once workers were SIGKILLed or
            # upgraded: refusals landing between the pre-kill/pre-drain
            # snapshot and the process exit are legitimately lost with
            # the process.
            if kills[0] == 0 and upgrades[0] == 0:
                violations += self.monitor.check_ledger(observed_total[0], accounted)
            violations += self.monitor.check_recovery(recovery_log)

            sup.stop(graceful=True)
            fsck_report = fsck_state_dir(state_dir)
            violations += self.monitor.check_fsck(fsck_report)
        except Exception as exc:
            violations.append(f"trial aborted: {exc!r}")
        finally:
            try:
                sup.stop(graceful=False)
            except Exception:
                pass
            shutil.rmtree(state_dir, ignore_errors=True)

        return ChaosTrialResult(
            seed=seed,
            backend="fleet",
            ok=not violations,
            violations=violations,
            events=total_events,
            sessions=self.fleet_sessions,
            faults_injected=len(plan.injected),
            kills=kills[0],
            upgrades=upgrades[0],
            refusals_observed=observed_total[0],
            refusals_accounted=accounted,
            recovery_times=recovery_log,
            disk_faults=None,
            elapsed=time.monotonic() - t_start,
        )

    @staticmethod
    def _await_workers(sup: FleetSupervisor, timeout: float) -> list[str]:
        """Poll until every worker answers STATS (addresses re-read
        each round — a restarted worker comes back on a new port).
        Returns the unreachable ones after ``timeout``."""
        deadline = time.monotonic() + timeout
        problems: list[str] = []
        while True:
            problems = []
            for addr in sup.worker_addresses():
                try:
                    fetch_stats(addr)
                except Exception as exc:
                    problems.append(f"{addr}: {exc}")
            if not problems or time.monotonic() >= deadline:
                return problems
            time.sleep(0.1)

    @staticmethod
    def _check_merged(
        batches: list[dict[str, Any]], merged: dict[str, Any] | None
    ) -> list[str]:
        """The fleet coordinator's merged report must equal the union
        of the per-session batch reports.  The coordinator remaps
        instance ids densely, so the comparison is id-free: the
        multiset of ``(abbreviation, evidence)`` pairs plus the total
        instance count."""
        if merged is None:
            return ["fleet merge produced no result"]
        if not merged.get("complete", False):
            return [
                "fleet merge incomplete: "
                + "; ".join(str(e) for e in merged.get("errors", []))
            ]
        report = merged.get("report")
        if report is None:
            return ["fleet merge returned no report"]
        want_instances = sum(b["instances_analyzed"] for b in batches)
        out: list[str] = []
        if report.get("instances_analyzed") != want_instances:
            out.append(
                f"merged instances_analyzed={report.get('instances_analyzed')} "
                f"!= union batch {want_instances}"
            )

        def flags_multiset(pairs):
            return sorted(
                (abbr, json.dumps(ev, sort_keys=True)) for abbr, ev in pairs
            )

        want = flags_multiset(
            (key[1], ev) for b in batches for key, ev in b["flagged"].items()
        )
        got = flags_multiset(
            (uc["abbreviation"], uc["evidence"]) for uc in report["use_cases"]
        )
        if want != got:
            out.append(
                f"merged flag multiset differs from union batch: "
                f"merged={got} batch={want}"
            )
        return out

    # -- the soak ---------------------------------------------------------

    def run(
        self,
        *,
        trials: int | None = None,
        duration: float | None = None,
        base_seed: int = 0,
        ledger_path: str | Path | None = None,
        progress: Callable[[ChaosTrialResult], None] | None = None,
        stop_on_violation: bool = False,
    ) -> dict[str, Any]:
        """Run seeded trials until the count or the time box runs out
        (at least one trial always runs).  Each trial appends one JSON
        line to ``ledger_path`` (if given); the returned summary is
        the soak-level ledger."""
        if trials is None and duration is None:
            trials = 100
        t0 = time.monotonic()
        ledger = None
        if ledger_path is not None:
            ledger = open(ledger_path, "a", encoding="utf-8")
        # Running totals, not a result list: a trial result carries its
        # trace, and an hours-long soak must not keep every one alive.
        summary: dict[str, Any] = {
            "backend": self.backend,
            "trials": 0,
            "violations": 0,
            "seeds_with_violations": [],
            **dict.fromkeys(_SUMMED_RESULT_FIELDS, 0),
            "max_recovery": 0.0,
        }
        try:
            while trials is None or summary["trials"] < trials:
                if (
                    duration is not None
                    and summary["trials"] > 0
                    and time.monotonic() - t0 >= duration
                ):
                    break
                result = self.run_trial(base_seed + summary["trials"])
                summary["trials"] += 1
                summary["violations"] += len(result.violations)
                for key in _SUMMED_RESULT_FIELDS:
                    summary[key] += getattr(result, key)
                summary["max_recovery"] = max(
                    [summary["max_recovery"], *result.recovery_times]
                )
                if not result.ok:
                    summary["seeds_with_violations"].append(result.seed)
                if ledger is not None:
                    ledger.write(json.dumps(result.to_dict()) + "\n")
                    ledger.flush()
                if progress is not None:
                    progress(result)
                if not result.ok and stop_on_violation:
                    break
        finally:
            if ledger is not None:
                ledger.close()
        summary["max_recovery"] = round(summary["max_recovery"], 4)
        summary["elapsed"] = round(time.monotonic() - t0, 3)
        summary["ok"] = not summary["seeds_with_violations"]
        return summary

    def close(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)

    def __enter__(self) -> "ChaosSoak":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "DISK_SEED_SALT",
    "STORM_SEED_SALT",
    "UPGRADE_SEED_SALT",
    "ChaosSoak",
    "ChaosTrialResult",
    "InvariantMonitor",
    "regress_state_dir_to_v1",
    "ship_trace",
]

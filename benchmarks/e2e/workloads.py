"""The benchmark's four workloads, and the shm diagnostic.

Every workload launches the system the way users do -- ``python -m
repro.cli analyze ...`` and ``python -m repro.cli serve ...`` child
processes -- and drives it from this one process, at most two load
threads and two open sessions at a time.  Each operation (a CLI
invocation or a fleet session) is checked, and a wrong output counts as
a failed operation.

Why these four (see README.md for the layers each one stresses):

* ``table5-local`` -- the paper's seven Table V programs under ``dsspy
  analyze`` with every default: the per-event record path does most of
  the work.
* ``table5-remote`` -- the same programs with ``--remote`` against a
  default daemon: record load plus client shipping, wire, daemon decode
  and streaming fold.
* ``alloc-churn`` -- ~20k short-lived lists with a few planted long
  inserts: the same layers paid per instance instead of per event.
* ``fleet-sessions`` -- seeded slices of Table V captures as sessions
  against a 2-worker journaled fleet, closed loop then open loop at
  fixed rates: per-session costs and the router dominate.
"""

from __future__ import annotations

import itertools
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.workloads
from repro.service import fetch_stats
from repro.usecases import UseCaseKind

from . import calibrate, fleetload, procs, spans
from .stats import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PROGRAMS = HERE / "programs"
TRACE_PATH = HERE / "trace"

#: Program file stem -> Table V workload class, in the paper's row order.
TABLE5 = {
    "algorithmia": "Algorithmia",
    "astrogrep": "AstroGrep",
    "contentfinder": "Contentfinder",
    "cpubenchmarks": "CPUBenchmarks",
    "gpdotnet": "GPdotNET",
    "mandelbrot": "Mandelbrot",
    "wordwheelsolver": "WordWheelSolver",
}
SMOKE_TABLE5 = ("gpdotnet", "wordwheelsolver")

CHURN_INSTANCES = 20_000
CHURN_PERIOD = 24
FLEET_WORKERS = 2
FLEET_CAPTURE_SCALE = 0.25
FLEET_SLICES_PER_PROGRAM = 6
#: Closed-loop sessions per second of run time: about a sixth of a run
#: at the capacity of two workers on two cores.
FLEET_CLOSED_PER_S = 8
#: Open-loop rate (sessions/s) -> its share of the run time.  10/s gets
#: the most, because its tail is the numerator of ``slowdown``; the
#: one-at-a-time phase (the denominator) has as many sessions.
FLEET_RATE_SHARE = {10: 0.4, 20: 0.2, 30: 0.2}
FLEET_RATES = tuple(FLEET_RATE_SHARE)
#: Limits for the sustained rate, on the highest percentile the sample
#: supports (``stats.tail_percentile``).
SESSION_LIMIT_MS = 250.0
LAG_LIMIT_MS = 50.0
SETUP_REPEATS = 5
#: Uninstrumented runs per pass, at least, half of each program's before
#: and half after its analyze run.  Its baseline is the mean of the
#: fastest run on either side.  An uninstrumented run is mostly
#: interpreter start-up and imports (about 0.2 s; only Mandelbrot runs
#: longer on its own), which a noisy neighbour slows in bursts the probe
#: does not see: the fastest of several runs is the one no burst hit.
#: The host also drifts over the seconds an analyze run takes, and the
#: two sides bracket it.
PLAIN_RUNS_PER_PASS = 14
PROCESS_TIMEOUT_S = 170.0

WORKLOADS = ("table5-local", "table5-remote", "alloc-churn", "fleet-sessions")


class SetupError(RuntimeError):
    """The system could not be brought up; nothing was measured."""


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    base = re.sub(r"\.r\d+$", "", name)
    if base.endswith("_ms"):
        return "ms"
    if base.endswith("sess_s"):
        return "1/s"
    if base.endswith("_s"):
        return "s"
    if base.endswith("_mb"):
        return "MB"
    if base in ("slowdown", "worker.cpu_skew", "host_speed"):
        return "x"
    if base == "record.ns_per_event":
        return "ns"
    if base.endswith("bytes"):
        return "B"
    if base.endswith("_pct"):
        return "%"
    if base == "error_rate":
        return "ratio"
    return "count"


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    probe: calibrate.Probe | None = None  # runs while the workload does

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` (:meth:`calibrate.Probe.speed`)."""
        return self.probe.speed(start, end)

    @property
    def spans_dir(self) -> Path:
        return self.work / "spans"

    @property
    def setup_repeats(self) -> int:
        return 1 if self.smoke else SETUP_REPEATS

    def env(self, traced: bool | None = None) -> dict[str, str]:
        """Environment of a child process of the system under test."""
        traced = self.trace if traced is None else traced
        paths = [str(ROOT / "src")] + ([str(TRACE_PATH)] if traced else [])
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "E2E_TRACE_DIR")}
        env["PYTHONPATH"] = ":".join(paths)
        env["TMPDIR"] = str(self.work)  # a daemon spills under backpressure
        if traced:
            env["E2E_TRACE_DIR"] = str(self.spans_dir)
        return env


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Traced CLI workloads: per-pass means of the layers of the analyze
    #: processes alone, which add up to their traced wall time.
    cli_breakdown: dict[str, float] = field(default_factory=dict)

    def operation(self, problems: list[str], what: str) -> bool:
        """Count one operation; it failed when any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def add(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = {"value": value, "unit": unit_of(name), "samples": samples}

    def add_median(self, name: str, values: list[float]) -> None:
        self.samples[name] = values
        self.add(name, statistics.median(values), len(values))

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "host": host(),
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.metrics,
            "samples": self.samples,
            "cli_breakdown": self.cli_breakdown,
        }


def host() -> dict:
    """The hardware and interpreter a result was measured on."""
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    memory_kb = int(Path("/proc/meminfo").read_text().split()[1])
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "memory_gb": round(memory_kb / 2**20, 1),
        "python": platform.python_version(),
    }


# -- dsspy analyze ---------------------------------------------------------------

_SUMMARY = re.compile(r"(\d+) sites instrumented, (\d+) instances, (\d+) access events")
_STRUCTURE = re.compile(r"^\s+Data structure:\s+\S+#(\d+)")
_USE_CASE = re.compile(r"^\s+Use Case:\s+(\S+)\s*$")
_REMOTE = re.compile(r"^remote: session (\S+) streamed (\d+) events")
_GUARD = re.compile(r"^guard: \S+ \((\d+)/\d+ fault budget spent")
_PLAIN = re.compile(r"^plain_s=([0-9.]+)$", re.M)


@dataclass
class Analysis:
    """What one ``dsspy analyze`` run printed, parsed."""

    run: procs.Finished
    instances: int = -1
    events: int = -1
    flagged: set[tuple[int, str]] = field(default_factory=set)  # (instance, abbreviation)
    parallel: int = 0
    session: str | None = None
    received: int = -1
    guard_faults: int = 0


#: Use-case label as the report prints it -> (abbreviation, parallel?).
_KINDS = {k.label: (k.abbreviation, k.parallel) for k in UseCaseKind}


def parse_analyze(run: procs.Finished) -> Analysis:
    out = Analysis(run)
    instance = None
    for line in run.stdout.splitlines():
        if (m := _SUMMARY.search(line)) and out.instances < 0:
            out.instances, out.events = int(m.group(2)), int(m.group(3))
        elif m := _STRUCTURE.match(line):
            instance = int(m.group(1))
        elif (m := _USE_CASE.match(line)) and instance is not None:
            abbreviation, parallel = _KINDS[m.group(1)]
            out.flagged.add((instance, abbreviation))
            out.parallel += parallel
            instance = None
        elif m := _REMOTE.match(line):
            out.session, out.received = m.group(1), int(m.group(2))
        elif m := _GUARD.match(line):
            out.guard_faults = int(m.group(1))
    return out


def analyze(ctx: Context, program: Path, extra: tuple[str, ...] = ()) -> Analysis:
    argv = [sys.executable, "-m", "repro.cli", "analyze", str(program), "--entry", "main", *extra]
    run = procs.run(argv, ctx.env(), ctx.work, PROCESS_TIMEOUT_S, pass_launch_time=ctx.trace)
    return parse_analyze(run)


def plain(ctx: Context, program: Path, repeats: int) -> list[procs.Finished]:
    """Uninstrumented runs of ``program`` (``--plain``)."""
    runs = []
    for _ in range(repeats):
        run = procs.run(
            [sys.executable, str(program), "--plain"],
            ctx.env(traced=False),
            ctx.work,
            PROCESS_TIMEOUT_S,
        )
        if run.returncode != 0 or _PLAIN.search(run.stdout) is None:
            raise SetupError(f"plain run of {program.name} failed: {run.stderr[-500:]}")
        runs.append(run)
    return runs


def _process_problems(a: Analysis) -> list[str]:
    if a.run.returncode != 0:
        return [f"exit {a.run.returncode}: {a.run.stderr.strip()[-300:]}"]
    if a.instances < 0:
        return ["no instrumentation summary in the output"]
    return []


def table5_problems(a: Analysis, stem: str) -> list[str]:
    """Instances and parallel use cases must equal the paper's row."""
    problems = _process_problems(a)
    if problems:
        return problems
    paper = getattr(repro.workloads, TABLE5[stem]).paper
    if a.instances != paper.instances:
        problems.append(f"{a.instances} instances, paper has {paper.instances}")
    if a.parallel != paper.use_cases:
        problems.append(f"{a.parallel} parallel use cases, paper has {paper.use_cases}")
    return problems


def remote_problems(a: Analysis, daemon_flagged: dict[str, set]) -> list[str]:
    """The daemon received every event and flagged what the local report did."""
    if a.session is None:
        return ["no remote session line in the output"]
    problems = []
    if a.received != a.events:
        problems.append(f"daemon received {a.received} of {a.events} events")
    flagged = daemon_flagged.get(a.session)
    if flagged is None:
        problems.append(f"session {a.session} missing from daemon STATS")
    elif flagged != a.flagged:
        problems.append(
            f"daemon flagged {sorted(flagged ^ a.flagged)} differently from the local report"
        )
    return problems


def flagged_by_session(stats: dict) -> dict[str, set[tuple[int, str]]]:
    return {
        row["session"]: {
            (int(iid), abbreviation)
            for iid, abbreviations in row["flagged"].items()
            for abbreviation in abbreviations
        }
        for row in stats["sessions"]
    }


def stats_counts(stats: dict, sessions: set[str]) -> dict[str, float]:
    rows = [row for row in stats["sessions"] if row["session"] in sessions]
    workers = stats.get("workers")
    if workers is not None:  # a fleet router aggregates its workers
        skipped = sum(w.get("frames_skipped", 0) for w in workers)
    else:
        skipped = stats.get("frames_skipped", 0)
    return {
        "daemon.sessions": len(rows),
        "daemon.refused": sum(row["refused_windows"] for row in rows)
        + stats.get("admission", {}).get("refused_hellos", 0),
        "daemon.duplicates": sum(row["duplicates"] for row in rows),
        "daemon.frames_skipped": skipped,
    }


def _serve(ctx: Context, *args: str) -> procs.Service:
    return procs.Service([sys.executable, "-m", "repro.cli", "serve", *args], ctx.env(), ctx.work)


# -- the CLI workloads -------------------------------------------------------------


def _setup(ctx: Context, result: Result, prepared: tuple[float, float], bring_up, warm_up):
    """Bring the system up ``setup_repeats`` times, timing each, and keep
    the last one running.  ``setup_s`` is the median set-up at reference
    speed plus the one-off input preparation over ``prepared``, the
    ``(start, end)`` of it."""
    raw, scaled, system = [], [], None
    for _ in range(ctx.setup_repeats):
        if system is not None:
            system.stop()
        began = time.monotonic()
        system = bring_up()
        warm_up(system)
        ended = time.monotonic()
        raw.append(ended - began)
        scaled.append(raw[-1] / ctx.speed(began, ended))
    start, end = prepared
    prepare = (end - start) / ctx.speed(start, end) if end > start else 0.0
    result.add("setup_raw_s", end - start + statistics.median(raw), len(raw))
    result.add("setup_s", prepare + statistics.median(scaled), len(raw))
    return system


def _cli_workload(
    ctx: Context,
    result: Result,
    prepared: tuple[float, float],
    programs: list[tuple[str, Path]],
    check,
    remote: bool,
) -> None:
    """Shared body of the three CLI workloads: set up, then passes over
    ``programs`` until ``ctx.seconds`` have gone by.  A pass runs each
    program under ``dsspy analyze`` with uninstrumented runs right before
    and after it, so both sides of the slowdown see the same machine."""
    rng = random.Random(ctx.seed)
    repeats = 1 if ctx.smoke else -(-PLAIN_RUNS_PER_PASS // len(programs))
    warmup = PROGRAMS / "warmup.py"

    def bring_up():
        return _serve(ctx) if remote else None

    def warm_up(service):
        extra = ("--remote", service.address) if service else ()
        a = analyze(ctx, warmup, extra)
        problems = _process_problems(a)
        if problems:
            raise SetupError(f"warm-up analyze failed: {problems}")

    service = _setup(ctx, result, prepared, bring_up, warm_up)
    try:
        extra = ("--remote", service.address) if service else ()
        started = time.monotonic()
        daemon_cpu0 = procs.cpu_s(service.proc.pid) if service else 0.0
        passes: list[Pass] = []
        while not passes or (time.monotonic() - started < ctx.seconds and not ctx.smoke):
            order = list(programs)
            rng.shuffle(order)
            done, plains = [], []
            for name, path in order:
                before = plain(ctx, path, repeats - repeats // 2)
                done.append((name, analyze(ctx, path, extra)))
                plains.append((before, plain(ctx, path, repeats // 2)))
            daemon = flagged_by_session(fetch_stats(service.address)) if service else {}
            for name, a in done:
                problems = check(a, name)
                if remote and not problems:
                    problems = remote_problems(a, daemon)
                result.operation(problems, f"analyze {name}")
            runs = [a for _, a in done]
            speeds = [ctx.speed(a.run.launched, a.run.ended) for a in runs]
            passes.append(Pass(runs, speeds, *_plain_sums(plains)))
        ended = time.monotonic()
        sessions = {a.session for p in passes for a in p.runs if a.session}
        stats = fetch_stats(service.address) if service else None
        daemon_cpu = procs.cpu_s(service.proc.pid) - daemon_cpu0 if service else 0.0
    finally:
        if service is not None and service.stop() != 0:
            result.operation([f"daemon exited with {service.proc.returncode}"], "dsspy serve")
    _cli_metrics(result, passes)
    per_op = 1.0 / len(passes)
    layers = {"worker.cpu_s": daemon_cpu * per_op}
    if stats is not None:
        layers.update({k: v * per_op for k, v in stats_counts(stats, sessions).items()})
    if ctx.trace:
        result.cli_breakdown = _cli_layers(ctx, passes)
        layers.update(result.cli_breakdown)
        if service is not None:
            daemon_spans = spans.load(ctx.spans_dir / f"{service.proc.pid}.jsonl")
            for name, value in spans.service_totals([daemon_spans], started, ended).items():
                layers[name] = layers.get(name, 0.0) + value * per_op
    for name, value in layers.items():
        result.add(name, value, len(passes))


def _plain_sums(
    plains: list[tuple[list[procs.Finished], list[procs.Finished]]],
) -> tuple[float, float]:
    """Per-program baselines from the uninstrumented runs before and
    after each analyze run (see :data:`PLAIN_RUNS_PER_PASS`), summed over
    the pass: process wall time, and the time each program reports for
    its own run."""

    def total(value) -> float:
        return sum(
            statistics.mean(min(value(run) for run in side) for side in sides if side)
            for sides in plains
        )

    own = total(lambda run: float(_PLAIN.search(run.stdout).group(1)))
    return total(lambda run: run.wall_s), own


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class Pass:
    """One pass of a CLI workload: its analyze runs, and the summed
    baseline process wall and own run time of the same programs
    uninstrumented."""

    runs: list[Analysis]
    speeds: list[float]  # host speed while each analyze process ran
    plain_wall_s: float
    plain_own_s: float

    @property
    def wall_s(self) -> float:
        return sum(a.run.wall_s for a in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(a.run.cpu_s for a in self.runs)

    @property
    def scaled_wall_s(self) -> float:
        return sum(a.run.wall_s / speed for a, speed in zip(self.runs, self.speeds))

    @property
    def scaled_cpu_s(self) -> float:
        return sum(a.run.cpu_s / speed for a, speed in zip(self.runs, self.speeds))


def _cli_metrics(result: Result, passes: list[Pass]) -> None:
    result.add_median("analyze_s", [p.wall_s for p in passes])
    result.add_median("analyze_cpu_s", [p.cpu_s for p in passes])
    result.add_median("peak_rss_mb", [max(a.run.maxrss_mb for a in p.runs) for p in passes])
    result.add_median("plain_s", [p.plain_wall_s for p in passes])
    result.add_median("slowdown", [p.wall_s / p.plain_wall_s for p in passes])
    result.add_median("host_speed", [p.wall_s / p.scaled_wall_s for p in passes])
    result.add_median("latency_ms", [p.scaled_wall_s * 1000.0 for p in passes])
    result.add_median("cpu_ms", [p.scaled_cpu_s * 1000.0 for p in passes])


def _cli_layers(ctx: Context, passes: list[Pass]) -> dict:
    """Per-pass means of the traced layers of every analyze process."""
    totals: dict[str, float] = {}
    for p in passes:
        for a in p.runs:
            trace = spans.load(ctx.spans_dir / f"{a.run.pid}.jsonl")
            for name, value in spans.cli_breakdown(trace, a.run.wall_s).items():
                totals[name] = totals.get(name, 0.0) + value
            totals["record.events"] = totals.get("record.events", 0.0) + a.events
            totals["guard.faults"] = totals.get("guard.faults", 0.0) + a.guard_faults
    out = {name: value / len(passes) for name, value in totals.items()}
    out["record.plain_s"] = statistics.mean(p.plain_own_s for p in passes)
    out["record.overhead_s"] = out.get("record.self_s", 0.0) - out["record.plain_s"]
    events = out.get("record.events", 0.0)
    out["record.ns_per_event"] = out["record.overhead_s"] / events * 1e9 if events else 0.0
    return out


def table5(ctx: Context, remote: bool) -> Result:
    result = Result("table5-remote" if remote else "table5-local", ctx.seed, ctx.seconds, ctx.trace)
    stems = SMOKE_TABLE5 if ctx.smoke else tuple(TABLE5)
    programs = [(stem, PROGRAMS / f"{stem}.py") for stem in stems]
    now = time.monotonic()
    _cli_workload(ctx, result, (now, now), programs, table5_problems, remote)
    return result


def churn_plan(seed: int, instances: int) -> tuple[str, set[int]]:
    """The alloc-churn program's input and the ids it plants Long-Inserts on.

    Ids are the lists' creation order, which is the order the collector
    numbers instances in.  Every :data:`CHURN_PERIOD`-th list, from a
    seeded offset, gets 150-220 appends and a full read scan; there are
    ``instances // CHURN_PERIOD`` of them whatever the offset.  The others
    get 2-9 appends and 1-10 reads (with the INIT and RESIZE events, 5-24
    events), always ending on a read so no trailing-write rule can fire.
    The sizes are fixed multisets in seeded order, so every seed does the
    same work; the seed moves which lists get which sizes and what they
    read."""
    rng = random.Random(seed)
    offset = rng.randrange(CHURN_PERIOD)
    planted = {offset + k * CHURN_PERIOD for k in range(instances // CHURN_PERIOD)}
    shorts = instances - len(planted)
    long_sizes = [150 + i % 71 for i in range(len(planted))]
    appends = [2 + i % 8 for i in range(shorts)]
    reads = [1 + i % 10 for i in range(shorts)]
    for sizes in (long_sizes, appends, reads):
        rng.shuffle(sizes)
    longs, short = iter(long_sizes), iter(zip(appends, reads))
    steps = []
    for i in range(instances):
        if i in planted:
            steps.append(f"P{next(longs)}")
        else:
            count, n_reads = next(short)
            positions = " ".join(str(rng.randrange(count)) for _ in range(n_reads))
            steps.append(f"S{count}:{positions}")
    return ";".join(steps), planted


def write_churn_program(directory: Path, plan: str) -> Path:
    source = (PROGRAMS / "alloc_churn.py").read_text(encoding="utf-8")
    if '\nPLAN = ""\n' not in source:
        raise SetupError("alloc_churn.py has no PLAN placeholder")
    path = directory / "alloc_churn_generated.py"
    path.write_text(source.replace('\nPLAN = ""\n', f"\nPLAN = {plan!r}\n"), encoding="utf-8")
    return path


def alloc_churn(ctx: Context) -> Result:
    result = Result("alloc-churn", ctx.seed, ctx.seconds, ctx.trace)
    instances = 300 if ctx.smoke else CHURN_INSTANCES
    began = time.monotonic()
    plan, planted = churn_plan(ctx.seed, instances)
    program = write_churn_program(ctx.work, plan)
    expected = {(i, "LI") for i in planted}

    def check(a: Analysis, _name: str) -> list[str]:
        problems = _process_problems(a)
        if problems:
            return problems
        if a.instances != instances:
            problems.append(f"{a.instances} instances, program creates {instances}")
        if a.flagged != expected:
            missed, extra = len(expected - a.flagged), len(a.flagged - expected)
            problems.append(
                f"flagged set differs from the planted set ({missed} missed, {extra} extra)"
            )
        return problems

    prepared = (began, time.monotonic())
    _cli_workload(ctx, result, prepared, [("alloc_churn", program)], check, False)
    return result


# -- fleet-sessions ------------------------------------------------------------------


def fleet_sessions(ctx: Context) -> Result:
    result = Result("fleet-sessions", ctx.seed, ctx.seconds, ctx.trace)
    rng = random.Random(ctx.seed)
    began = time.monotonic()
    captures = fleetload.capture(
        FLEET_CAPTURE_SCALE, [TABLE5[s] for s in SMOKE_TABLE5] if ctx.smoke else None
    )
    pool = fleetload.make_pool(captures, rng, 1 if ctx.smoke else FLEET_SLICES_PER_PROGRAM)
    prepared = (began, time.monotonic())
    state_dirs = (ctx.work / f"fleet-{i}" for i in itertools.count())

    def bring_up():
        state = str(next(state_dirs))
        return _serve(ctx, "--workers", str(FLEET_WORKERS), "--state-dir", state)

    def warm_up(service):
        outcome = fleetload.Outcome(due=time.monotonic())
        fleetload.run_session(service.address, pool[0], outcome)
        if not outcome.ok:
            raise SetupError(f"warm-up session failed: {outcome.problem}")

    service = _setup(ctx, result, prepared, bring_up, warm_up)
    tracer = _generator_tracer() if ctx.trace else None
    closed_pieces = fleetload.cycle(
        rng, pool, 4 if ctx.smoke else round(FLEET_CLOSED_PER_S * ctx.seconds)
    )
    schedules = {
        rate: fleetload.arrivals(rng, rate, 0.5 if ctx.smoke else share * ctx.seconds)
        for rate, share in FLEET_RATE_SHARE.items()
    }
    pieces = {rate: fleetload.cycle(rng, pool, len(schedules[rate])) for rate in FLEET_RATES}
    alone_pieces = fleetload.cycle(rng, pool, len(schedules[FLEET_RATES[0]]))
    try:
        workers = service.workers()
        pids = [service.proc.pid, *workers]
        cpu0 = {pid: procs.cpu_s(pid) for pid in pids}
        gen_cpu0 = _self_cpu()
        started = time.monotonic()
        closed, elapsed = fleetload.closed_loop(service.address, closed_pieces)
        alone = fleetload.closed_loop(service.address, alone_pieces, threads=1)[0]
        by_rate = {
            rate: fleetload.open_loop(service.address, pieces[rate], schedules[rate])
            for rate in FLEET_RATES
        }
        ended = time.monotonic()
        gen_cpu = _self_cpu() - gen_cpu0
        cpu = {pid: procs.cpu_s(pid) - cpu0[pid] for pid in pids}
        peak_rss = max(procs.peak_rss_mb(pid) for pid in workers)
        stats = fetch_stats(service.address) if ctx.trace else None
    finally:
        stopped = service.stop()
    if stopped != 0:
        result.operation([f"fleet supervisor exited with {stopped}"], "dsspy serve")
    outcomes = closed + alone + [o for rate in FLEET_RATES for o in by_rate[rate]]
    for o in outcomes:
        result.operation([] if o.ok else [o.problem], "session")
    sessions = len(outcomes)

    closed_ok = [o for o in closed if o.ok]
    result.add("capacity_sess_s", len(closed_ok) / elapsed, len(closed_ok))
    sustained = 0.0
    for rate in FLEET_RATES:
        ok = [o for o in by_rate[rate] if o.ok]
        latencies = [o.latency_s * 1000.0 for o in ok]
        lags = [o.lag_s * 1000.0 for o in by_rate[rate]]
        tag = f".r{rate}"
        if not latencies:
            continue
        result.add_median(f"session_p50_ms{tag}", latencies)
        tail, lag_tail = _tail(latencies), tail_percentile(lags)
        result.add(f"session_tail_ms{tag}", tail[1], len(latencies))
        result.add(f"session_tail_pct{tag}", tail[0], len(latencies))
        if lag_tail is not None:
            result.add(f"gen_lag_tail_ms{tag}", lag_tail[1], len(lags))
        if (
            len(ok) == len(by_rate[rate])
            and tail[1] <= SESSION_LIMIT_MS
            and (lag_tail is None or lag_tail[1] <= LAG_LIMIT_MS)
        ):
            sustained = float(rate)
    result.add("sustained_sess_s", sustained, len(FLEET_RATES))
    # Session latency is dominated by a timer, a ~40 ms stall (README.md),
    # so it is not scaled to host speed.  The stall makes it bimodal, and
    # the tail, not the median, repeats between runs.
    low = f"session_tail_ms.r{FLEET_RATES[0]}"
    alone_ms = [o.latency_s * 1000.0 for o in alone if o.ok]
    if low in result.metrics and alone_ms:
        alone_tail = _tail(alone_ms)[1]
        result.add("latency_ms", alone_tail, len(alone_ms))
        result.add("slowdown", result.metrics[low]["value"] / alone_tail, len(alone_ms))
    host_speed = ctx.speed(started, ended)
    result.add("host_speed", host_speed, 1)
    result.add("cpu_ms", sum(cpu.values()) / sessions * 1000.0 / host_speed, sessions)
    worker_cpu = [cpu[pid] for pid in workers]
    result.add("peak_rss_mb", peak_rss, len(workers))
    layers = {
        "router.cpu_s": cpu[service.proc.pid] / sessions,
        "worker.cpu_s": sum(worker_cpu) / sessions,
        "worker.cpu_skew": max(worker_cpu) / min(worker_cpu) if min(worker_cpu) > 0 else 0.0,
        "worker.peak_rss_mb": peak_rss,
        "generator.cpu_s": gen_cpu / sessions,
    }
    if tracer is not None:
        header, rows = tracer.records()
        client = spans.from_rows(header, rows).spans
        client = [s for s in client if started <= s.start <= ended]
        service_traces = [
            spans.load(ctx.spans_dir / f"{pid}.jsonl") for pid in [service.proc.pid, *workers]
        ]
        totals = spans.layer_totals(client, spans.self_times(client))
        for name, value in spans.service_totals(service_traces, started, ended).items():
            totals[name] = totals.get(name, 0.0) + value
        worker_spans = [
            s for t in service_traces for s in spans.without_excluded(t.spans)
            if started <= s.start <= ended
        ]
        totals["fin.worker_s"], totals["fin.other_s"] = spans.fin_split(client, worker_spans)
        totals.update(stats_counts(stats, {s.session for s in client if s.session}))
        layers.update({name: value / sessions for name, value in totals.items()})
    for name, value in layers.items():
        result.add(name, value, sessions)
    return result


def _tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile the sample
    supports, or the median of a sample too small for any."""
    return tail_percentile(values) or (50.0, statistics.median(values))


def _generator_tracer():
    """The span tracer, installed in this process around the generator."""
    sys.path.insert(0, str(TRACE_PATH))
    import e2e_tracer

    e2e_tracer.install(None, dump_at_exit=False)
    e2e_tracer.reset()
    return e2e_tracer


# -- shm diagnostic ------------------------------------------------------------------


def diagnose_shm(ctx: Context) -> dict:
    """Table V passes over ``--remote --transport shm`` for ``ctx.seconds``:
    sessions whose daemon report differs from the local one, and sessions
    whose daemon received a different event count (not a workload, never
    gated)."""
    service = _serve(ctx)
    extra = ("--remote", service.address, "--transport", "shm")
    runs: list[tuple[str, Analysis]] = []
    started = time.monotonic()
    try:
        while not runs or time.monotonic() - started < ctx.seconds:
            runs += [(stem, analyze(ctx, PROGRAMS / f"{stem}.py", extra)) for stem in TABLE5]
        daemon = flagged_by_session(fetch_stats(service.address))
    finally:
        service.stop()
    differing = [
        stem for stem, a in runs if a.session is None or daemon.get(a.session) != a.flagged
    ]
    lost = sum(1 for _, a in runs if a.received != a.events)
    return {"sessions": len(runs), "differing": differing, "received_mismatches": lost}


RUNNERS = {
    "table5-local": lambda ctx: table5(ctx, remote=False),
    "table5-remote": lambda ctx: table5(ctx, remote=True),
    "alloc-churn": alloc_churn,
    "fleet-sessions": fleet_sessions,
}


def run_workload(name: str, ctx: Context) -> Result:
    ctx.work.mkdir(parents=True, exist_ok=True)
    ctx.spans_dir.mkdir(exist_ok=True)
    try:
        with calibrate.Probe(ctx.work) as ctx.probe:
            return RUNNERS[name](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

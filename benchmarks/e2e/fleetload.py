"""Session load for the ``fleet-sessions`` workload.

Inputs are 5,000-event slices of Table V captures, the same number
from every program, cut at seeded offsets; each slice's expected report
is the batch :class:`~repro.usecases.UseCaseEngine` run over the same
events.  Sessions cycle through the pool in seeded permutations, so any
run of consecutive sessions has the same program mix whatever the seed.
A session ships one slice through :class:`~repro.service.RemoteChannel`
(HELLO, REGISTER, EVENTS, FIN) and is correct when the daemon received
every event and its report equals the reference.

Two load shapes, both from at most two generator threads:

* closed loop -- each thread starts its next session when the previous
  one has its report (on two threads: the fleet's capacity; on one: the
  latency of a session that has the fleet to itself);
* open loop -- sessions are due on a seeded Poisson schedule at a fixed
  rate.  Latency runs from the *due* time, so a late generator or a
  backlog counts against the fleet; the lateness itself is recorded.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.events.channel import SynchronousChannel
from repro.events.collector import collecting
from repro.service import RemoteChannel
from repro.testing.oracle import run_batch_path, summarize_report
from repro.testing.traces import Trace, TraceInstance
from repro.workloads import EVALUATION_WORKLOADS

SLICE_EVENTS = 5_000
GENERATOR_THREADS = 2


@dataclass(frozen=True)
class Slice:
    program: str
    trace: Trace
    reference: dict  # summarized batch report of the same events


@dataclass
class Outcome:
    due: float
    begin: float = 0.0
    end: float = 0.0
    ok: bool = False
    problem: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.due

    @property
    def lag_s(self) -> float:
        return self.begin - self.due


def capture(scale: float, programs: list[str] | None = None) -> list[tuple[str, list, list]]:
    """``(program, [(id, kind, label)], raw events)`` per Table V program
    (all seven, or those whose class is named in ``programs``)."""
    out = []
    for workload in EVALUATION_WORKLOADS:
        if programs is not None and type(workload).__name__ not in programs:
            continue
        channel = SynchronousChannel()
        with collecting(channel=channel) as collector:
            workload.run_tracked(scale=scale)
        instances = [(p.instance_id, p.kind, p.label) for p in collector.profiles()]
        out.append((workload.name, instances, list(channel.snapshot())))
    return out


def make_pool(
    captures: list[tuple[str, list, list]], rng: random.Random, per_program: int
) -> list[Slice]:
    """``per_program`` slices of every capture, with their references."""
    slices = []
    for program, instances, raws in captures:
        for _ in range(per_program):
            slices.append(_slice(program, instances, raws, rng))
    return slices


def _slice(program: str, instances: list, raws: list, rng: random.Random) -> Slice:
    start = rng.randrange(max(1, len(raws) - SLICE_EVENTS + 1))
    events = raws[start : start + SLICE_EVENTS]
    used = {raw[0] for raw in events}
    trace = Trace(
        seed=start,
        instances=[TraceInstance(i, kind, label) for i, kind, label in instances if i in used],
        events=events,
    )
    return Slice(program, trace, summarize_report(run_batch_path(trace)))


def cycle(rng: random.Random, pool: list[Slice], count: int) -> list[Slice]:
    """``count`` sessions' slices: seeded permutations of the pool, end to end."""
    out: list[Slice] = []
    while len(out) < count:
        out += rng.sample(pool, len(pool))
    return out[:count]


def run_session(address: str, piece: Slice, outcome: Outcome) -> None:
    """One session end to end; fills ``outcome`` and never raises."""
    outcome.begin = time.monotonic()
    try:
        channel = RemoteChannel(address)
        for instance in piece.trace.instances:
            channel.on_register(instance.instance_id, instance.kind, None, instance.label)
        for raw in piece.trace.events:
            channel.post(raw)
        channel.drain()
        ack = channel.final_ack
    except Exception as exc:  # noqa: BLE001 - a failed session is counted, not fatal
        outcome.end = time.monotonic()
        outcome.problem = f"{type(exc).__name__}: {exc}"
        return
    outcome.end = time.monotonic()
    if ack is None:
        outcome.problem = "no FIN acknowledgement"
    elif ack["received"] != len(piece.trace.events):
        outcome.problem = f"received {ack['received']} of {len(piece.trace.events)} events"
    elif summarize_report(ack["report"]) != piece.reference:
        outcome.problem = f"report differs from the batch reference ({piece.program})"
    else:
        outcome.ok = True


def closed_loop(
    address: str, pieces: list[Slice], threads: int = GENERATOR_THREADS
) -> tuple[list[Outcome], float]:
    """One session per piece, each of ``threads`` generator threads
    starting its next as soon as the previous one has its report; returns
    the outcomes and the time from the first start to the last report."""
    start = time.monotonic()
    outcomes = _drive(address, pieces, [0.0] * len(pieces), run_session, start, False, threads)
    return outcomes, max(o.end for o in outcomes) - start


def arrivals(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Seeded Poisson arrivals over ``seconds``, conditioned on their
    count being ``rate * seconds`` (uniform order statistics), so every
    seed measures the same number of sessions."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def open_loop(
    address: str, pieces: list[Slice], offsets: list[float], run=run_session
) -> list[Outcome]:
    """Start session ``i`` with ``pieces[i]`` at ``offsets[i]`` (or as soon
    as a generator thread is free after that)."""
    start = time.monotonic() + 0.01
    return _drive(address, pieces, offsets, run, start, True, GENERATOR_THREADS)


def _drive(address, pieces, offsets, run, start, wait: bool, threads: int) -> list[Outcome]:
    """Run the sessions in order on ``threads`` generator threads.  With
    ``wait`` session ``i`` is due at ``start + offsets[i]`` and waits for
    that time; without, it is due when a thread takes it."""
    outcomes = [Outcome(due=start + offset) for offset in offsets]
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(outcomes):
                return
            outcome = outcomes[index]
            if wait:
                delay = outcome.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            else:
                outcome.due = time.monotonic()
            run(address, pieces[index], outcome)

    generators = [
        threading.Thread(target=worker, name=f"e2e-generator-{i}") for i in range(threads)
    ]
    for thread in generators:
        thread.start()
    for thread in generators:
        thread.join()
    return outcomes

"""Open-loop timing and the correctness checks that turn wrong output
into failed operations."""

import random
import time

import pytest

from benchmarks.e2e import fleetload, workloads
from repro.service import ProfilingDaemon
from repro.service.session import Session
from repro.testing.oracle import run_batch_path, summarize_report
from repro.testing.traces import generate_trace


def test_open_loop_latency_runs_from_the_scheduled_start():
    def slow_session(address, piece, outcome):  # 0.1 s of service per session
        outcome.begin = time.monotonic()
        time.sleep(0.1)
        outcome.end = time.monotonic()
        outcome.ok = True

    # Four sessions due at once on two generator threads: the last two
    # wait for a free thread, and that wait is part of their latency.
    outcomes = fleetload.open_loop("-", [None] * 4, [0.0] * 4, run=slow_session)
    latencies = sorted(o.latency_s for o in outcomes)
    lags = sorted(o.lag_s for o in outcomes)
    assert latencies[:2] == pytest.approx([0.1, 0.1], abs=0.03)
    assert latencies[2:] == pytest.approx([0.2, 0.2], abs=0.05)
    assert lags[2:] == pytest.approx([0.1, 0.1], abs=0.05)


def test_arrivals_are_seeded_with_a_fixed_count():
    a = fleetload.arrivals(random.Random(5), 20, 3.0)
    assert a == fleetload.arrivals(random.Random(5), 20, 3.0)
    assert a != fleetload.arrivals(random.Random(6), 20, 3.0)
    assert len(a) == 60 and a == sorted(a) and all(0 <= t <= 3.0 for t in a)


def test_sessions_cycle_through_the_whole_pool():
    pool = list(range(7))
    order = fleetload.cycle(random.Random(1), pool, 21)
    assert sorted(order) == sorted(pool * 3)
    assert all(sorted(order[i : i + 7]) == pool for i in (0, 7, 14))


def _flagging_slice() -> fleetload.Slice:
    for seed in range(50):
        trace = generate_trace(seed)
        reference = summarize_report(run_batch_path(trace))
        if reference["flagged"]:
            return fleetload.Slice("synthetic", trace, reference)
    raise AssertionError("no generated trace flags a use case")


def test_a_tampered_daemon_report_is_a_failed_session(monkeypatch):
    piece = _flagging_slice()
    daemon = ProfilingDaemon(port=0)
    try:
        honest = fleetload.Outcome(due=time.monotonic())
        fleetload.run_session(daemon.address, piece, honest)
        assert honest.ok, honest.problem

        original = Session.finish

        def tampered(self):
            report = dict(original(self))
            report["use_cases"] = report["use_cases"][1:]
            return report

        monkeypatch.setattr(Session, "finish", tampered)
        outcome = fleetload.Outcome(due=time.monotonic())
        fleetload.run_session(daemon.address, piece, outcome)
    finally:
        daemon.close()
    assert not outcome.ok
    assert "differs from the batch reference" in outcome.problem
    result = workloads.Result("fleet-sessions", 1, 1.0, False)
    result.operation([] if honest.ok else [honest.problem], "session")
    result.operation([] if outcome.ok else [outcome.problem], "session")
    assert (result.attempted, result.failed, result.correct) == (2, 1, False)


def test_a_daemon_flagging_differently_fails_a_remote_invocation():
    run = workloads.procs.Finished((), 1, 0.0, 1.0, 1.0, 10.0, 0, "", "")
    local = workloads.Analysis(run, instances=3, events=10, flagged={(0, "LI"), (2, "FLR")},
                               session="s1", received=10)
    assert workloads.remote_problems(local, {"s1": {(0, "LI"), (2, "FLR")}}) == []
    assert workloads.remote_problems(local, {"s1": {(0, "LI")}})
    assert workloads.remote_problems(local, {})
    short = workloads.Analysis(run, events=10, flagged=set(), session="s1", received=9)
    assert workloads.remote_problems(short, {"s1": set()})

"""Structural guards for the default ``dsspy analyze`` path.

Two properties that timing alone cannot pin down:

- Recording: with a guard armed and the default synchronous channel, a
  hot container operation costs exactly one Python frame below the
  container method — the collector's record hook, which owns the
  firewall and hands the tuple to the channel buffer's C ``append``.
- Analysis: between the collector's ``finish`` and the printed report,
  every profile's raw tuples are iterated exactly once — the analysis
  fold, whose lanes and size maximum also feed the what-if ranking.
"""

import sys
from collections import Counter

import pytest

from repro.cli import _rank_with_predictions
from repro.events import collecting
from repro.runtime import firewall
from repro.structures import TrackedList
from repro.usecases import UseCaseEngine, format_summary, format_table_v
from repro.workloads import EVALUATION_WORKLOADS

N = 300


def _python_calls(run) -> Counter:
    """Names of the Python functions ``run()`` enters (C calls excluded)."""
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _appends(xs):
    for i in range(N):
        xs.append(i)


def _reads(xs):
    for i in range(N):
        xs[i]


def _writes(xs):
    for i in range(N):
        xs[i] = i


@pytest.mark.parametrize(
    "run, method",
    [(_appends, "append"), (_reads, "__getitem__"), (_writes, "__setitem__")],
    ids=["append", "getitem", "setitem"],
)
def test_guarded_sync_event_is_one_frame_below_the_container_method(run, method):
    with firewall(budget=25) as guard:
        with collecting() as session:
            xs = TrackedList(label="xs")
            for i in range(N):
                xs.append(i)
            calls = _python_calls(lambda: run(xs))
    calls.pop("<lambda>")
    calls.pop(run.__name__)
    assert calls == Counter({method: N, "record": N})
    assert guard.report().faults == 0
    # INIT + the N filling appends + the N measured operations.
    assert len(session.profiles_by_label()["xs"]) == 1 + 2 * N


class CountingRaws(list):
    """A profile's raw list that counts how often it is iterated."""

    def __init__(self, raws):
        super().__init__(raws)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
def test_analyze_path_iterates_each_profile_once(workload):
    with collecting() as collector:
        workload.run_tracked(scale=0.5)
    profiles = collector.profiles()
    for profile in profiles:
        profile._raws = CountingRaws(profile._raws)

    report = _rank_with_predictions(UseCaseEngine().analyze_collector(collector))
    assert format_table_v(report, title=workload.name)
    assert format_summary(report, name=workload.name)

    assert report.use_cases
    assert all(u.predicted_speedup is not None for u in report.use_cases)
    assert {p.instance_id: p._raws.iterations for p in profiles} == {
        p.instance_id: 1 for p in profiles
    }

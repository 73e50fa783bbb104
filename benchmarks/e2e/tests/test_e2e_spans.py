"""Self time, exclusive attribution and the per-process reconciliation."""

import pytest

from benchmarks.e2e import spans


def span(i, name, start, end, parent=None, tid=1, session=None, attrs=None):
    return spans.Span(i, name, start, end, parent, tid, session, attrs or {})


def test_self_time_counts_overlapping_children_once():
    tree = [
        span(0, "record.run", 0.0, 10.0),
        span(1, "events.finish", 1.0, 4.0, parent=0, tid=2),
        span(2, "client.send", 3.0, 6.0, parent=0, tid=3),
    ]
    times = spans.self_times(tree)
    assert times[0] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert times[1] == pytest.approx(3.0)
    assert times[2] == pytest.approx(3.0)


def test_exclusive_times_add_up_to_the_root_even_with_overlap():
    tree = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "record.run", 1.0, 8.0, parent=0),
        span(2, "events.finish", 2.0, 5.0, parent=1, tid=2),
        span(3, "client.send", 4.0, 9.0, parent=1, tid=3),  # outlives its parent
    ]
    times = spans.exclusive_times(tree, 0.0, 10.0)
    assert sum(times.values()) == pytest.approx(10.0)
    # [2, 9]: the send keeps its time after record.run returned.
    assert times[2] + times[3] == pytest.approx(7.0)
    assert times[1] == pytest.approx(1.0)  # [1, 2]
    assert times[0] == pytest.approx(2.0)  # [0, 1] and [9, 10]


def test_cli_breakdown_reconciles_with_the_wall_time():
    trace = spans.Trace(
        {"pid": 7, "launch": 100.0, "dump_start": 103.5},
        [
            span(0, "cli.main", 100.4, 103.4),
            span(1, "record.run", 100.5, 102.0, parent=0),
            span(2, "instrument.rewrite", 100.5, 100.6, parent=1),
            span(3, "usecases.analyze", 102.1, 103.0, parent=0, attrs={"flagged": 2}),
        ],
    )
    out = spans.cli_breakdown(trace, wall_s=3.7)
    assert out["cli.import_s"] == pytest.approx(0.4)
    assert out["cli.atexit_s"] == pytest.approx(0.1)
    assert out["cli.unattributed_s"] == pytest.approx(0.2)
    layers = sum(out[name] for name in spans.LAYER_OF_SPAN.values() if name in out)
    total = layers + out["cli.import_s"] + out["cli.atexit_s"] + out["cli.unattributed_s"]
    assert total == pytest.approx(out["cli.wall_s"])
    assert out["usecases.flagged"] == 2


def test_stats_queries_are_not_load():
    tree = [
        span(0, "daemon.stats", 0.0, 1.0),
        span(1, "streaming.report", 0.1, 0.9, parent=0),
        span(2, "streaming.report", 2.0, 2.5),
    ]
    assert [s.id for s in spans.without_excluded(tree)] == [2]


def test_fin_wait_splits_into_same_session_worker_time_and_the_rest():
    client = [span(0, "client.fin_wait", 10.0, 10.05, session="a")]
    worker = [
        span(0, "session.finish", 10.01, 10.03, session="a"),
        span(1, "streaming.report", 10.02, 10.04, session="a"),
        span(2, "session.finish", 10.0, 10.05, session="b"),
    ]
    inside, other = spans.fin_split(client, worker)
    assert inside == pytest.approx(0.03)
    assert other == pytest.approx(0.02)

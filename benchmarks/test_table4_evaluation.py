"""Table IV — the seven-program DSspy evaluation.

Runs the full pipeline (plain baseline, tracked run, use-case
derivation, simulated-transform verdicts) on every workload and checks
every count column against the paper: 104 instances → 24 use cases
(76.92% reduction), 16 true positives (66.67% precision), per-row
matches, a real >1x instrumentation slowdown, and speedup shape.
"""

from __future__ import annotations

import pytest

from repro.eval import evaluate_all, render_table4

from .conftest import save_result

SCALE = 0.5


@pytest.fixture(scope="module")
def summary():
    # Each side of a row's slowdown is the mean of three timed runs: a
    # single timing per side is too noisy for the row floor below.
    return evaluate_all(scale=SCALE, repeats=3)


def test_table4_counts(benchmark, results_dir):
    summary = benchmark.pedantic(
        lambda: evaluate_all(scale=SCALE, repeats=1), rounds=1, iterations=1
    )
    save_result(results_dir, "table4.txt", render_table4(summary))

    assert summary.total_instances == 104
    assert summary.total_use_cases == 24
    assert summary.total_true_positives == 16
    assert summary.total_reduction == pytest.approx(0.7692, abs=0.0001)
    assert summary.precision == pytest.approx(16 / 24, abs=1e-9)


def test_table4_per_row_counts(summary):
    for row in summary.rows:
        assert row.matches_paper_counts(), row.name
        paper = row.workload.paper
        assert row.search_space_reduction == pytest.approx(
            paper.reduction / 100.0, abs=0.0001
        ), row.name


def test_table4_slowdown_is_real(summary):
    """Instrumentation costs real time on every workload; the paper's
    point that the slowdown is material (avg 47.13x there) but one-off.

    The row check means: the instrumented time (recording plus the
    collector's ``finish``) exceeds the plain time by a material margin
    — more than 1.5x, each side the mean of three runs — not that it
    reaches any particular paper figure.  The mean floor (3x) asks the
    same of the whole evaluation."""
    for row in summary.rows:
        assert row.slowdown > 1.5, (row.name, row.slowdown)
    assert summary.mean_slowdown > 3.0


def test_table4_speedup_shape(summary):
    """Shape, not absolute numbers: every program gains (>1), CPU
    Benchmarks gains least (the 94% sequential program), and the mean
    sits in the paper's 2x regime."""
    by_name = {row.name: row for row in summary.rows}
    speedups = {name: row.program_speedup for name, row in by_name.items()}
    assert all(s > 1.0 for s in speedups.values())
    assert min(speedups, key=speedups.get) == "CPU Benchmarks"
    assert 1.5 < summary.mean_speedup < 5.0


def test_table4_workload_results_are_correct(summary):
    """The tracked runs computed real answers (spot checks)."""
    from repro.workloads import workload_by_name

    mandelbrot = workload_by_name("Mandelbrot")
    result = mandelbrot.run_plain(scale=0.1)
    assert result.pixel(0, 0) < 5  # corner escapes immediately
    assert sum(result.histogram) == result.width * result.height

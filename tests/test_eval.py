"""Unit tests for the evaluation harness (Tables IV–VII machinery)."""

from __future__ import annotations

import pytest

from repro.eval import (
    TABLE6_PAPER_ROWS,
    evaluate_workload,
    fractions_explain_speedups,
    paper_fraction,
    render_table4,
    render_table6,
    render_table7,
    run_fraction_analysis,
)
from repro.eval.harness import EvaluationSummary
from repro.workloads import Mandelbrot, WordWheelSolver


@pytest.fixture(scope="module")
def mandelbrot_row():
    return evaluate_workload(Mandelbrot(), scale=0.1, repeats=3)


class TestWorkloadEvaluation:
    def test_row_columns(self, mandelbrot_row):
        row = mandelbrot_row
        assert row.name == "Mandelbrot"
        assert row.instances == 7
        assert row.use_cases == 4
        assert row.true_positives == 4
        assert row.search_space_reduction == pytest.approx(1 - 4 / 7)
        assert row.matches_paper_counts()

    def test_slowdown_measured(self, mandelbrot_row):
        assert mandelbrot_row.plain_seconds > 0
        assert mandelbrot_row.tracked_seconds > mandelbrot_row.plain_seconds
        assert mandelbrot_row.slowdown > 1.0

    def test_speedup_and_fraction(self, mandelbrot_row):
        assert mandelbrot_row.program_speedup > 2.0
        assert mandelbrot_row.sequential_fraction == pytest.approx(
            0.0909, abs=0.001
        )

    def test_skip_slowdown_measurement(self):
        row = evaluate_workload(
            WordWheelSolver(), scale=0.1, measure_slowdown=False
        )
        assert row.plain_seconds == 0.0
        assert row.slowdown == float("inf")
        assert row.matches_paper_counts()


class TestSummaryAggregation:
    def test_summary_math(self, mandelbrot_row):
        summary = EvaluationSummary(rows=(mandelbrot_row,))
        assert summary.total_instances == 7
        assert summary.total_use_cases == 4
        assert summary.precision == pytest.approx(1.0)
        assert summary.total_reduction == pytest.approx(1 - 4 / 7)
        assert summary.all_counts_match

    def test_empty_summary(self):
        summary = EvaluationSummary(rows=())
        assert summary.total_reduction == 0.0
        assert summary.precision == 0.0
        assert summary.mean_speedup == 1.0

    def test_render_table4(self, mandelbrot_row):
        text = render_table4(EvaluationSummary(rows=(mandelbrot_row,)))
        assert "Mandelbrot" in text
        assert "precision" in text


class TestFractionAnalysis:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fraction_analysis()

    def test_paper_fractions_exact(self, rows):
        for row in rows:
            assert row.measured_fraction == pytest.approx(
                row.paper_fraction, abs=0.0005
            ), row.name

    def test_ordering(self, rows):
        assert fractions_explain_speedups(rows)

    def test_amdahl_bounds_speedup(self, rows):
        for row in rows:
            assert row.program_speedup <= row.amdahl_limit + 1e-9

    def test_paper_fraction_lookup(self):
        assert paper_fraction("CPU Benchmarks") == pytest.approx(
            7600 / 8060, abs=1e-9
        )
        with pytest.raises(KeyError):
            paper_fraction("nope")

    def test_table6_rows_complete(self):
        assert len(TABLE6_PAPER_ROWS) == 4

    def test_render_table6(self, rows):
        text = render_table6(rows)
        assert "94.29%" in text

    def test_render_table7(self):
        text = render_table7()
        assert "This work" in text

"""End-to-end DSspy evaluation harness (§V: Table IV).

For each of the seven benchmark programs: run the tracked variant,
derive use cases with the paper's thresholds, apply every recommended
action on the simulated 8-core machine, and measure the
instrumentation slowdown against the plain variant.  The result rows
carry the same columns as Table IV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..events.collector import collecting
from ..parallel.machine import MachineConfig, SimulatedMachine
from ..parallel.transforms import TransformOutcome, apply_all
from ..usecases.engine import UseCaseEngine, UseCaseReport
from ..usecases.rules import PARALLEL_RULES
from ..workloads import EVALUATION_WORKLOADS, Workload

#: The evaluation machine: the paper's 8-core AMD FX, as a cost model.
EVAL_MACHINE = SimulatedMachine(MachineConfig(cores=8))


@dataclass(frozen=True)
class WorkloadEvaluation:
    """One Table IV row, measured."""

    workload: Workload
    report: UseCaseReport
    outcomes: tuple[TransformOutcome, ...]
    plain_seconds: float
    tracked_seconds: float
    program_speedup: float
    sequential_fraction: float

    # -- Table IV columns -------------------------------------------------

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def instances(self) -> int:
        return self.report.instances_analyzed

    @property
    def use_cases(self) -> int:
        return len(self.report.use_cases)

    @property
    def true_positives(self) -> int:
        return sum(1 for o in self.outcomes if o.is_true_positive)

    @property
    def search_space_reduction(self) -> float:
        """1 − use cases / instances, as the paper computes it."""
        if self.instances == 0:
            return 0.0
        return 1.0 - self.use_cases / self.instances

    @property
    def slowdown(self) -> float:
        if self.plain_seconds <= 0:
            return float("inf")
        return self.tracked_seconds / self.plain_seconds

    def matches_paper_counts(self) -> bool:
        paper = self.workload.paper
        return (
            self.instances == paper.instances
            and self.use_cases == paper.use_cases
            and self.true_positives == paper.true_positives
        )


def evaluate_workload(
    workload: Workload,
    scale: float = 1.0,
    machine: SimulatedMachine = EVAL_MACHINE,
    engine: UseCaseEngine | None = None,
    measure_slowdown: bool = True,
    repeats: int = 1,
) -> WorkloadEvaluation:
    """Run the full DSspy pipeline on one workload."""
    engine = engine if engine is not None else UseCaseEngine(rules=PARALLEL_RULES)

    # Each time is the minimum over ``repeats`` runs: a load spike on a
    # shared machine only ever lengthens a run, so the fastest run is the
    # least disturbed estimate of either cost.
    plain_seconds = 0.0
    if measure_slowdown:
        plain_seconds = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            workload.run_plain(scale=scale)
            plain_seconds = min(plain_seconds, time.perf_counter() - start)

    tracked_seconds = float("inf")
    session = None
    for _ in range(repeats):
        start = time.perf_counter()
        with collecting() as session:
            workload.run_tracked(scale=scale)
        tracked_seconds = min(tracked_seconds, time.perf_counter() - start)

    report = engine.analyze_collector(session)
    outcomes = tuple(apply_all(list(report.use_cases), machine))
    decomposition = workload.decomposition(scale=scale)

    return WorkloadEvaluation(
        workload=workload,
        report=report,
        outcomes=outcomes,
        plain_seconds=plain_seconds,
        tracked_seconds=tracked_seconds,
        program_speedup=decomposition.speedup(machine),
        sequential_fraction=decomposition.sequential_fraction,
    )


@dataclass(frozen=True)
class EvaluationSummary:
    """The full Table IV, measured."""

    rows: tuple[WorkloadEvaluation, ...]

    @property
    def total_instances(self) -> int:
        return sum(r.instances for r in self.rows)

    @property
    def total_use_cases(self) -> int:
        return sum(r.use_cases for r in self.rows)

    @property
    def total_true_positives(self) -> int:
        return sum(r.true_positives for r in self.rows)

    @property
    def total_reduction(self) -> float:
        """The paper's headline 76.92%."""
        if self.total_instances == 0:
            return 0.0
        return 1.0 - self.total_use_cases / self.total_instances

    @property
    def precision(self) -> float:
        """The paper's 66.67% (16 of 24)."""
        if self.total_use_cases == 0:
            return 0.0
        return self.total_true_positives / self.total_use_cases

    @property
    def mean_speedup(self) -> float:
        if not self.rows:
            return 1.0
        return sum(r.program_speedup for r in self.rows) / len(self.rows)

    @property
    def mean_slowdown(self) -> float:
        finite = [r.slowdown for r in self.rows if r.plain_seconds > 0]
        if not finite:
            return 0.0
        return sum(finite) / len(finite)

    @property
    def all_counts_match(self) -> bool:
        return all(r.matches_paper_counts() for r in self.rows)


def evaluate_all(
    scale: float = 1.0,
    machine: SimulatedMachine = EVAL_MACHINE,
    measure_slowdown: bool = True,
    repeats: int = 1,
) -> EvaluationSummary:
    """Evaluate the whole seven-program benchmark (Table IV)."""
    rows = tuple(
        evaluate_workload(
            w,
            scale=scale,
            machine=machine,
            measure_slowdown=measure_slowdown,
            repeats=repeats,
        )
        for w in EVALUATION_WORKLOADS
    )
    return EvaluationSummary(rows=rows)

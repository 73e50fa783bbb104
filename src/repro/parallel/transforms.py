"""Applying recommended actions: estimated transform outcomes.

Given a detected :class:`~repro.usecases.model.UseCase`, this module
estimates the work that the recommended transform parallelizes (from the
use case's own evidence and profile) and evaluates it on a
:class:`~repro.parallel.machine.SimulatedMachine`.  The result mirrors
the paper's evaluation procedure: "we manually looked through all 24 use
cases and followed the recommended actions ... and classified the use
cases in true and false positives" — a use case is a *true positive*
when following its recommendation yields a speedup.

Work units are access events (one event ≈ one element operation), which
is exactly the granularity the profiles record.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..events.types import OperationKind
from ..usecases.model import UseCase, UseCaseKind
from .executor import ParallelExecutor, chunk_ranges
from .machine import ParallelRegion, SimulatedMachine

#: A transform must beat this to count as a successful parallelization.
SPEEDUP_SUCCESS_THRESHOLD = 1.1


@dataclass(frozen=True, slots=True)
class TransformOutcome:
    """Result of (virtually) applying one recommendation."""

    use_case: UseCase
    region: ParallelRegion
    sequential_time: float
    parallel_time: float

    @property
    def speedup(self) -> float:
        if self.parallel_time <= 0:
            return 1.0
        return self.sequential_time / self.parallel_time

    @property
    def is_true_positive(self) -> bool:
        """Did following the recommendation pay off?"""
        return self.speedup > SPEEDUP_SUCCESS_THRESHOLD

    def describe(self) -> str:
        verdict = "true positive" if self.is_true_positive else "false positive"
        return (
            f"{self.use_case.kind.label}: work={self.region.work:.0f}, "
            f"speedup={self.speedup:.2f} ({verdict})"
        )


def _max_size(use_case: UseCase) -> int:
    """Largest size the structure reached: from the analysis fold's
    features when the use case carries them, else measured on the
    profile (a pass over its events)."""
    features = use_case.features
    if features is not None and features.max_size is not None:
        return features.max_size
    return use_case.profile.max_size


def _count(use_case: UseCase, op: OperationKind) -> int:
    """Events of ``op``: from the analysis fold's features when the use
    case carries them, else counted on the profile."""
    if use_case.features is not None:
        return use_case.features.count(op)
    return use_case.profile.count(op)


def estimate_region(use_case: UseCase) -> ParallelRegion:
    """Parallelizable work implied by a use case's evidence.

    - Long-Insert: the events inside insertion phases.
    - Implement-Queue: end-operations overlap producer/consumer style,
      so at most 2-way parallelism.
    - Sort-After-Insert: insert phase plus the sort's n·log n work.
    - Frequent-Search: each explicit search costs half a scan of the
      structure on average.
    - Frequent-Long-Read: the events inside the long read patterns.
    """
    kind = use_case.kind
    analysis = use_case.analysis
    evidence = use_case.evidence

    if kind is UseCaseKind.LONG_INSERT:
        work = analysis.events_in(lambda p: p.pattern_type.is_insert)
        return ParallelRegion(work=float(work), name="insert phases")

    if kind is UseCaseKind.IMPLEMENT_QUEUE:
        work = _count(use_case, OperationKind.INSERT) + _count(
            use_case, OperationKind.DELETE
        )
        return ParallelRegion(
            work=float(work), max_parallelism=2, name="queue end operations"
        )

    if kind is UseCaseKind.SORT_AFTER_INSERT:
        import math

        insert_work = analysis.events_in(lambda p: p.pattern_type.is_insert)
        n = max(_max_size(use_case), 2)
        sort_work = n * math.log2(n)
        return ParallelRegion(
            work=float(insert_work + sort_work), name="insert + sort"
        )

    if kind is UseCaseKind.FREQUENT_SEARCH:
        # Granularity matters: each search is its own fork/join region
        # (one scan of half the structure on average), so thousands of
        # tiny searches do NOT aggregate into one big parallel region.
        avg_scan = max(_max_size(use_case), 1) / 2
        return ParallelRegion(work=float(avg_scan), name="single search scan")

    if kind is UseCaseKind.FREQUENT_LONG_READ:
        work = analysis.events_in(lambda p: p.pattern_type.is_read)
        return ParallelRegion(work=float(work), name="long read patterns")

    # Sequential-optimization kinds carry no parallel region.
    return ParallelRegion(work=0.0, max_parallelism=1, name="sequential advice")


def estimate_operations(use_case: UseCase) -> int:
    """How many times the region executes (fork/join paid per run).

    One for the phase-shaped use cases; the number of explicit searches
    for Frequent-Search, whose region is a single scan.
    """
    if use_case.kind is UseCaseKind.FREQUENT_SEARCH:
        # Counted only when the rule's evidence lacks the count.
        search_ops = use_case.evidence.get("search_ops")
        if search_ops is None:
            search_ops = _count(use_case, OperationKind.SEARCH)
        return int(search_ops)
    return 1


def transform_ways(
    region_work: float, max_parallelism: int | None, cores: int
) -> int:
    """How many ways a transform actually splits its region: capped by
    the core count, the region's structural limit (e.g. 2-way for a
    producer/consumer queue), and the number of work items.  Shared by
    the analytic what-if prediction and the measured execution so both
    describe the same schedule."""
    items = max(int(round(region_work)), 1)
    ways = cores if max_parallelism is None else min(cores, max_parallelism)
    return max(1, min(ways, items))


#: Execution correctness is checked on at most this many real items;
#: the *accounted* schedule always reflects the full region.
_MAX_EXECUTED_ITEMS = 1 << 16


@dataclass(frozen=True, slots=True)
class ExecutedTransform:
    """Result of *really* applying one recommendation.

    Unlike :class:`TransformOutcome` (equal-split accounting of a
    virtual schedule), this runs the recommended transform on a thread
    pool via :class:`~repro.parallel.executor.ParallelExecutor`, checks
    the parallel result against the sequential one, and accounts the
    *actual* chunk schedule — including per-task spawn overhead and LPT
    placement — on the machine model.  The gap between this and the
    analytic prediction is what the ``bench --whatif`` accuracy band
    measures.
    """

    use_case: UseCase
    region: ParallelRegion
    operations: int
    ways: int
    chunk_sizes: tuple[int, ...]
    matches_sequential: bool
    sequential_time: float
    parallel_time: float

    @property
    def speedup(self) -> float:
        if self.parallel_time <= 0:
            return 1.0
        return self.sequential_time / self.parallel_time


def _run_transform_body(
    kind: UseCaseKind, n: int, executor: ParallelExecutor
) -> bool:
    """Execute a representative body of the recommended transform on
    real threads and verify it against the sequential result."""
    items = list(range(n))
    if kind is UseCaseKind.FREQUENT_SEARCH:
        # Parallel chunked search — the recommended transform itself.
        target = items[-1]
        return executor.parallel_index(items, target) == items.index(target)
    if kind is UseCaseKind.IMPLEMENT_QUEUE:
        # End-operations overlap 2-way: a chunked fold stands in for the
        # producer/consumer split.
        parallel = executor.parallel_reduce(
            items, lambda acc, x: acc + x, lambda a, b: a + b, 0
        )
        return parallel == sum(items)
    # Insert/read phases (LI, SAI, FLR): parallel fill of the phase.
    filled = executor.parallel_fill(lambda i: i * 2 + 1, n)
    return filled == [i * 2 + 1 for i in items]


def execute_transform(
    use_case: UseCase,
    machine: SimulatedMachine,
    executor: ParallelExecutor | None = None,
) -> ExecutedTransform:
    """Apply the recommendation for real and measure its schedule.

    The region is split into :func:`transform_ways` contiguous chunks
    (:func:`~repro.parallel.executor.chunk_ranges` — the exact split the
    executor runs), the body executes on a thread pool with the result
    checked against the sequential computation, and the measured
    parallel time is the machine model's accounting of the actual chunk
    sizes: ``fork_join + LPT-makespan(chunk + task_overhead)`` per
    operation.
    """
    region = estimate_region(use_case)
    operations = estimate_operations(use_case)
    sequential = region.work * operations
    if not use_case.kind.parallel or sequential <= 0:
        return ExecutedTransform(
            use_case=use_case,
            region=region,
            operations=operations,
            ways=1,
            chunk_sizes=(),
            matches_sequential=True,
            sequential_time=0.0,
            parallel_time=0.0,
        )
    n = max(int(round(region.work)), 1)
    ways = transform_ways(region.work, region.max_parallelism, machine.cores)
    if executor is None:
        executor = ParallelExecutor(workers=ways)
    exec_n = min(n, _MAX_EXECUTED_ITEMS)
    matches = _run_transform_body(use_case.kind, exec_n, executor)
    # Account the real chunk split of the full region; each item carries
    # region.work / n work units (== 1 except for rounding).
    unit = region.work / n
    chunks = chunk_ranges(n, ways)
    chunk_sizes = tuple(len(r) for r in chunks)
    parallel = operations * machine.parallel_time(
        [size * unit for size in chunk_sizes]
    )
    return ExecutedTransform(
        use_case=use_case,
        region=region,
        operations=operations,
        ways=ways,
        chunk_sizes=chunk_sizes,
        matches_sequential=matches,
        sequential_time=sequential,
        parallel_time=parallel,
    )


def apply_recommendation(
    use_case: UseCase, machine: SimulatedMachine
) -> TransformOutcome:
    """Virtually apply the recommendation and measure on ``machine``."""
    region = estimate_region(use_case)
    operations = estimate_operations(use_case)
    sequential = region.work * operations
    if sequential <= 0:
        return TransformOutcome(
            use_case=use_case,
            region=region,
            sequential_time=0.0,
            parallel_time=0.0,
        )
    parallel = operations * machine.parallel_time(region.chunks(machine))
    return TransformOutcome(
        use_case=use_case,
        region=region,
        sequential_time=sequential,
        parallel_time=parallel,
    )


def apply_all(
    use_cases: list[UseCase], machine: SimulatedMachine
) -> list[TransformOutcome]:
    """Outcomes for every *parallel* use case (sequential advice is
    excluded, as in Table IV's true-positive accounting)."""
    return [
        apply_recommendation(u, machine) for u in use_cases if u.kind.parallel
    ]

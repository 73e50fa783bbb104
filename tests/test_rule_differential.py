"""The rule pass against its verbatim former self.

:mod:`tests.reference_rules` keeps the eight rules and
``evaluate_rules`` as they were before each rule tested its scalar
preconditions ahead of its pattern scans.  Every case here folds a set
of profiles once per detector setting and asserts that the production
rule pass fires the same rules, in the same order, with equal evidence,
as the reference — under the paper's thresholds and under
``Thresholds.decimated(s)`` for s in 2, 5 and 10.

One evidence value may differ in its last bits: Frequent-Long-Read's
``mean_coverage`` is now ``math.fsum`` over the count (the arithmetic of
``statistics.fmean``, an exactly rounded sum), where the reference took
``numpy.mean`` (a pairwise sum), so it is compared to a relative
tolerance of 64 float64 epsilons; every other value must be equal.

Decimated thresholds run twice: on the full profiles with the strict
detector, and on 1-in-s thinned profiles with the widened detector
(``max_gap = 2s - 1``) that :meth:`UseCaseEngine.for_sampling` pairs
them with.

Cases:

- seeded synthetic traces (:func:`repro.testing.traces.generate_trace`),
  single- and multi-thread;
- the 7 Table V workloads at scale 1.0;
- the alloc-churn benchmark program for seeds 1-3, at 2,400 instances
  (100 planted long lists; the same step shapes as the benchmark's
  20,000);
- edge profiles whose counts sit one below, at and one above every
  count each rule checks before scanning patterns, plus a read fraction
  of exactly one half, so an off-by-one in an early exit changes the
  outcome.
"""

from __future__ import annotations

import math
import sys

import pytest

from benchmarks.e2e.workloads import CHURN_PERIOD, churn_plan, write_churn_program
from repro.events import collecting
from repro.events.types import AccessKind, OperationKind, StructureKind
from repro.instrument.runner import run_instrumented_file
from repro.patterns.detector import DetectorConfig
from repro.testing.traces import generate_trace
from repro.usecases.engine import evaluate_rules
from repro.usecases.features import InstanceFold
from repro.usecases.thresholds import PAPER_THRESHOLDS, Thresholds
from repro.workloads import EVALUATION_WORKLOADS

from .reference_rules import reference_evaluate_rules

STRIDES = (2, 5, 10)

# One profile, as the fold sees it: (kind, raw event tuples).
Case = tuple[StructureKind, list[tuple]]


def _features(cases: list[Case], max_gap: int) -> list:
    config = DetectorConfig(max_gap=max_gap)
    out = []
    for kind, raws in cases:
        fold = InstanceFold(0, kind, None, "", max_gap)
        fold.fold_raws(raws)
        out.append(fold.features(config))
    return out


def _thinned(cases: list[Case], stride: int) -> list[Case]:
    """Every ``stride``-th event, from a per-profile offset."""
    return [(kind, raws[i % stride :: stride]) for i, (kind, raws) in enumerate(cases)]


def _fired(result) -> list[tuple[str, dict]]:
    return [(rule.kind.abbreviation, evidence) for rule, evidence in result]


# A sum of n non-negative doubles errs by at most about log2(n) epsilons,
# relative, whether pairwise or exactly rounded; 64 covers any n here.
_MEAN_TOLERANCE = 64 * sys.float_info.epsilon


def _assert_same(got: list[tuple[str, dict]], want: list[tuple[str, dict]], where) -> None:
    """Equal fired rules and evidence, bar the last bits of a mean."""
    assert [(k, list(ev)) for k, ev in got] == [(k, list(ev)) for k, ev in want], where
    for (_, ev), (_, ref) in zip(got, want):
        for key, value in ev.items():
            if key == "mean_coverage":
                assert math.isclose(value, ref[key], rel_tol=_MEAN_TOLERANCE), where
            else:
                assert value == ref[key], where


def assert_rule_pass_matches(cases: list[Case]) -> int:
    """Compare both rule passes over ``cases`` under every threshold
    set; returns how many (profile, threshold) evaluations fired."""
    settings = [(PAPER_THRESHOLDS, cases, 1)]
    for stride in STRIDES:
        decimated = PAPER_THRESHOLDS.decimated(stride)
        settings.append((decimated, cases, 1))
        settings.append((decimated, _thinned(cases, stride), 2 * stride - 1))
    fired = 0
    full_features = _features(cases, 1)
    for thresholds, profiles, max_gap in settings:
        features = full_features if profiles is cases else _features(profiles, max_gap)
        for index, f in enumerate(features):
            got = _fired(evaluate_rules(f, thresholds))
            want = _fired(reference_evaluate_rules(f, thresholds))
            _assert_same(got, want, (index, thresholds, max_gap))
            fired += bool(got)
    return fired


def _cases_of(profiles) -> list[Case]:
    return [(p.kind, list(p.raws)) for p in profiles]


# -- synthetic traces -----------------------------------------------------------


@pytest.mark.parametrize("threads", [1, 3], ids=["single-thread", "multi-thread"])
def test_generated_traces(threads):
    cases: list[Case] = []
    for seed in range(40):
        trace = generate_trace(seed, max_threads=threads)
        for instance in trace.instances:
            cases.append((instance.kind, trace.events_of(instance.instance_id)))
    assert assert_rule_pass_matches(cases) > 0


# -- Table V ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", EVALUATION_WORKLOADS, ids=lambda w: w.name)
def test_table_v_profiles(workload):
    with collecting() as collector:
        workload.run_tracked(scale=1.0)
    assert assert_rule_pass_matches(_cases_of(collector.profiles())) > 0


# -- alloc-churn ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_alloc_churn_plans(seed, tmp_path):
    plan, planted = churn_plan(seed, 100 * CHURN_PERIOD)
    run = run_instrumented_file(write_churn_program(tmp_path, plan), entry="main")
    profiles = run.collector.profiles()
    assert len(profiles) == 100 * CHURN_PERIOD and len(planted) == 100
    assert assert_rule_pass_matches(_cases_of(profiles)) >= len(planted)


# -- edges of the scalar early exits ------------------------------------------------

_W = int(AccessKind.WRITE)
_R = int(AccessKind.READ)
_INIT = int(OperationKind.INIT)
_INSERT = int(OperationKind.INSERT)
_DELETE = int(OperationKind.DELETE)
_READ = int(OperationKind.READ)
_WRITE = int(OperationKind.WRITE)
_SORT = int(OperationKind.SORT)


def _appends(n: int) -> list[tuple]:
    return [(0, _INIT, _W, None, 0, 0, None)] + [
        (0, _INSERT, _W, i, i + 1, 0, None) for i in range(n)
    ]


def _edge_cases(th: Thresholds) -> list[Case]:
    lists = StructureKind.LIST
    cases: list[Case] = []
    for n in {th.li_long_phase, th.sai_long_phase}:
        for m in (n - 1, n, n + 1):
            reads = [(0, _READ, _R, 0, m, 0, None)] * (m // 2)
            cases.append((lists, _appends(m) + reads))  # LI
            cases.append((lists, _appends(m) + [(0, _SORT, _W, None, m, 0, None)]))  # SAI
    for n in {th.iq_min_ops_per_end, th.si_min_inserts, th.si_min_deletes}:
        for m in (n - 1, n, n + 1):
            front = [(0, _DELETE, _W, 0, m - 1 - i, 0, None) for i in range(m)]
            back = [(0, _DELETE, _W, m - 1 - i, m - 1 - i, 0, None) for i in range(m)]
            cases.append((lists, _appends(m) + front))  # IQ: queue-like
            cases.append((lists, _appends(m) + back))  # SI: stack-like
    # FLR with reads exactly half the events: 10 appends, 99 writes and
    # 11 forward scans of 10 reads (INIT + 10 + 99 = 110 = 11 * 10).
    writes = [(0, _WRITE, _W, 0, 10, 0, None)] * 99
    scans = [(0, _READ, _R, j, 10, 0, None) for _ in range(11) for j in range(10)]
    cases.append((lists, _appends(10) + writes + scans))
    return cases


@pytest.mark.parametrize(
    "thresholds",
    [PAPER_THRESHOLDS, *(PAPER_THRESHOLDS.decimated(s) for s in STRIDES)],
    ids=["paper", *(f"decimated-{s}" for s in STRIDES)],
)
def test_early_exit_edges(thresholds):
    cases = _edge_cases(thresholds)
    fired_kinds = set()
    for index, f in enumerate(_features(cases, 1)):
        got = _fired(evaluate_rules(f, thresholds))
        _assert_same(got, _fired(reference_evaluate_rules(f, thresholds)), index)
        fired_kinds.update(kind for kind, _ in got)
    assert {"LI", "SAI", "IQ", "SI", "FLR"} <= fired_kinds

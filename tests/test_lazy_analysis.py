"""An instance no rule can flag costs little more than its events.

- Features classify their patterns only when a rule whose scalar
  preconditions pass reads them (or a rule fires and the report needs
  them), checked on a capture shaped like the alloc-churn benchmark.
- The Frequent-Long-Read precondition on the READ count is exact: at
  its bound the rule still fires, one read below it does not, under the
  paper's thresholds and under decimated ones.
- Allocation sites are interned per line and variable, also under
  concurrent construction, and ``--no-sites`` still reports
  ``<unknown>``.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest

import repro.usecases.features as features_module
from repro.events import AccessKind, OperationKind, StructureKind, collecting
from repro.events.event import materialize
from repro.events.profile import RuntimeProfile
from repro.events.types import LINEAR_KINDS
from repro.patterns import DetectorConfig
from repro.structures import TrackedList, base
from repro.structures.base import capture_site, set_site_capture
from repro.usecases import UseCaseEngine, features_of
from repro.usecases.rules import FrequentLongReadRule
from repro.usecases.thresholds import PAPER_THRESHOLDS, Thresholds

_INSERT = OperationKind.INSERT
_READ = OperationKind.READ
_SEARCH = OperationKind.SEARCH


def _churn(lists: int, seed: int) -> None:
    """Short-lived lists like the alloc-churn benchmark's: every 24th
    gets a long insert phase and a full read scan, the others 2-9
    appends and 1-10 reads."""
    rng = random.Random(seed)
    for i in range(lists):
        if i % 24 == 5:
            planted = TrackedList([], label="planted")
            for value in range(150 + i % 71):
                planted.append(value)
            for value in planted:
                pass
        else:
            xs = TrackedList([], label="xs")
            count = rng.randrange(2, 10)
            for value in range(count):
                xs.append(value)
            for _ in range(rng.randrange(1, 11)):
                xs[rng.randrange(count)]


def _may_scan_patterns(f, th: Thresholds) -> bool:
    """The scalar preconditions after which LI, SAI, FS or FLR read
    patterns (IQ and SI never read them)."""
    if f.kind not in LINEAR_KINDS or f.total_events == 0:
        return False
    inserts = f.count(_INSERT)
    return (
        inserts >= th.li_long_phase
        or (f.sort_count > 0 and inserts >= th.sai_long_phase)
        or f.count(_SEARCH) > th.fs_min_search_ops
        or (
            f.read_fraction >= th.flr_read_fraction
            and f.count(_READ) >= (th.flr_min_patterns + 1) * th.flr_min_pattern_length
        )
    )


def test_patterns_are_classified_only_where_a_rule_may_read_them(monkeypatch):
    with collecting() as collector:
        _churn(2000, seed=1)
    profiles = collector.profiles()
    assert len(profiles) == 2000

    calls: Counter[int] = Counter()
    classify = features_module.patterns_from_runs
    current = [None]

    def counting(runs, config):
        calls[current[0]] += 1
        return classify(runs, config)

    monkeypatch.setattr(features_module, "patterns_from_runs", counting)
    engine = UseCaseEngine()
    flagged = set()
    for profile in profiles:
        current[0] = profile.instance_id
        if engine.analyze_profile(profile):
            flagged.add(profile.instance_id)

    # Scalars only: reading them classifies nothing.
    scanned = {
        p.instance_id
        for p in profiles
        if _may_scan_patterns(features_of(p, engine.detector.config), PAPER_THRESHOLDS)
    }
    assert set(calls) <= scanned | flagged
    assert all(n == 1 for n in calls.values())  # classified once, then kept
    planted = {p.instance_id for p in profiles if p.label == "planted"}
    assert flagged == planted
    assert set(calls) == planted  # here only the planted lists pass a check


# -- the Frequent-Long-Read precondition ---------------------------------------


def _scans(scans: int, reads_per_scan: int, step: int, drop_last: int) -> RuntimeProfile:
    """A list of 8 filled by appends, then ``scans`` forward read scans of
    ``reads_per_scan`` reads ``step`` apart, the last one ``drop_last``
    reads short."""
    raws = [(0, int(OperationKind.INIT), int(AccessKind.WRITE), None, 0, 0, None)]
    raws += [
        (0, int(_INSERT), int(AccessKind.WRITE), i, i + 1, 0, None) for i in range(8)
    ]
    for scan in range(scans):
        reads = reads_per_scan - (drop_last if scan == scans - 1 else 0)
        raws += [
            (0, int(_READ), int(AccessKind.READ), k * step, 8, 0, None)
            for k in range(reads)
        ]
    profile = RuntimeProfile(0, StructureKind.LIST)
    for seq, raw in enumerate(raws):
        profile.append(materialize(seq, raw))
    return profile


@pytest.mark.parametrize(
    "thresholds, config, step",
    [
        (PAPER_THRESHOLDS, DetectorConfig(), 1),
        # Decimated 1-in-10: patterns of 2 reads, 7 positions apart,
        # still span the 8-element list under the widened max_gap.
        (PAPER_THRESHOLDS.decimated(10), DetectorConfig(max_gap=19), 7),
    ],
    ids=["paper", "decimated-10"],
)
def test_flr_fires_at_its_read_bound_and_not_one_below(thresholds, config, step):
    rule = FrequentLongReadRule()
    patterns = thresholds.flr_min_patterns + 1
    length = thresholds.flr_min_pattern_length
    bound = patterns * length

    exact = features_of(_scans(patterns, length, step, drop_last=0), config)
    assert exact.count(_READ) == bound
    evidence = rule.evaluate_features(exact, thresholds)
    assert evidence is not None
    assert evidence["long_read_patterns"] == patterns

    short = features_of(_scans(patterns, length, step, drop_last=1), config)
    assert short.count(_READ) == bound - 1
    assert rule.evaluate_features(short, thresholds) is None


# -- allocation sites --------------------------------------------------------------


def _site_at_one_line(variable: str):
    return capture_site(variable)


def test_sites_are_interned_per_line_and_variable():
    first = _site_at_one_line("xs")
    assert _site_at_one_line("xs") is first
    assert _site_at_one_line("ys") is not first
    assert _site_at_one_line("ys") == _site_at_one_line("ys")
    other_line = capture_site("xs")
    assert other_line is not first and other_line.lineno != first.lineno

    with collecting():
        built = [TrackedList([], label="xs") for _ in range(3)]
    assert built[0].allocation_site is built[1].allocation_site is built[2].allocation_site
    assert built[0].allocation_site.variable == "xs"


def test_interned_sites_stay_right_under_threads():
    """Threads intern sites concurrently, with more distinct variables
    than the table holds, so it is cleared while others read and fill
    it: every site still carries the fields it was asked for."""
    wrong: list = []

    def intern(worker: int) -> None:
        for k in range(base._SITES_LIMIT // 2):
            variable = f"v{worker}-{k % 1500}"
            site = capture_site(variable)
            if site.variable != variable or site.function != "intern":
                wrong.append(site)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=intern, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(base._SITES) <= base._SITES_LIMIT


def test_no_sites_reports_unknown(tmp_path, capsys):
    from repro.cli import main

    program = tmp_path / "prog.py"
    program.write_text(
        "def main():\n"
        "    xs = []\n"
        "    for i in range(300):\n"
        "        xs.append(i)\n"
        "    return xs\n",
        encoding="utf-8",
    )
    try:
        assert main(["analyze", str(program), "--entry", "main", "--no-sites"]) == 0
    finally:
        set_site_capture(True)
    out = capsys.readouterr().out
    assert "<unknown>" in out
    assert "Long-Insert" in out

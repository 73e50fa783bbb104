"""``compare``: parent runs against change runs, per workload and metric.

Verdicts follow the benchmark rules (the choosing-metrics method, §6 and
§8), with the bounds ``BENCHMARK.json`` fixes:

* ``improved`` -- at least ten pairs, the change wins at least nine
  tenths of them, and the medians differ by more than the parent's own
  interquartile distance;
* ``unresolved`` -- the run-to-run spread (interquartile distance over
  the median, on either side) is wider than the bound, unless every
  change run reads better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``no worse`` -- everything else.

Runs pair up in the order their files are given (``--parent`` file *i*
with ``--change`` file *i*).
"""

from __future__ import annotations

import json
from pathlib import Path

from .stats import quartiles, spread, win_fraction

MIN_PAIRS_FOR_GAIN = 10


def load_results(paths: list[str]) -> dict[str, list[dict]]:
    """Workload -> results, in file order, from ``run -o`` files."""
    out: dict[str, list[dict]] = {}
    for path in paths:
        for result in json.loads(Path(path).read_text(encoding="utf-8")):
            out.setdefault(result["workload"], []).append(result)
    return out


def verdict(parent: list[float], change: list[float], bound: float, lower_is_better: bool) -> str:
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (c_median - p_median) / p_median

    def better(c: float, p: float) -> bool:
        return c < p if lower_is_better else c > p

    if (
        min(len(parent), len(change)) >= MIN_PAIRS_FOR_GAIN
        and win_fraction(parent, change, lower_is_better) >= 0.9
        and worse < 0
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        return "improved"
    every_better = all(better(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "no worse"


def compare(
    parent_paths: list[str], change_paths: list[str], bench: dict
) -> tuple[list[str], bool]:
    """Report lines, and whether nothing regressed and no more
    operations failed than at the parent."""
    parent, change = load_results(parent_paths), load_results(change_paths)
    lines = [
        f"{'workload':15s} {'metric':14s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>5s}  verdict"
    ]
    ok = True
    for workload in sorted(parent.keys() & change.keys()):
        for entry in bench["end_to_end"]:
            name = entry["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[workload] if name in r["metrics"]]
            if not p or not c:
                lines.append(f"{workload:15s} {name:14s} missing on one side")
                ok = False
                continue
            lower = entry["better"] == "lower"
            outcome = verdict(p, c, entry["bound"], lower)
            ok &= outcome != "regressed"
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
            lines.append(
                f"{workload:15s} {name:14s} {_fmt(pm, pq1, pq3):>34s} {_fmt(cm, cq1, cq3):>34s} "
                f"{(cm - pm) / pm:+8.1%} {win_fraction(p, c, lower):5.0%}  {outcome}"
            )
        shares = []
        for side in (parent[workload], change[workload]):
            attempted = sum(r["attempted"] for r in side)
            shares.append(sum(r["failed"] for r in side) / attempted if attempted else 1.0)
        worse = shares[1] > shares[0]
        ok &= not worse
        lines.append(
            f"{workload:15s} failed operations: parent {shares[0]:.2%}, change {shares[1]:.2%}"
            + ("  MORE FAILURES" if worse else "")
        )
    for workload in sorted(parent.keys() ^ change.keys()):
        lines.append(f"{workload:15s} runs on one side only")
        ok = False
    return lines, ok


def _fmt(median: float, q1: float, q3: float) -> str:
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

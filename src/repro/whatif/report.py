"""Textual rendering of what-if predictions (``dsspy whatif``)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..parallel.machine import SimulatedMachine
from ..usecases.model import UseCase
from .dag import WorkSpan
from .predict import Prediction, predict_use_case

if TYPE_CHECKING:  # pragma: no cover - usecases.features imports whatif.dag
    from ..usecases.engine import UseCaseReport


def _site_of(use_case: UseCase) -> str:
    site = use_case.site
    if site is None:
        label = use_case.profile.label
        return label if label else f"#{use_case.instance_id}"
    import os

    return f"{os.path.basename(site.filename)}:{site.lineno}"


def format_whatif_table(
    report: UseCaseReport,
    machine: SimulatedMachine,
    workspans: dict[int, WorkSpan] | None = None,
    top: int | None = None,
    title: str = "What-if speedup predictions",
) -> str:
    """Ranked table: one row per use case, highest predicted payoff
    first.  ``report`` should already be annotated and ranked."""
    spans = workspans or {}
    header = (
        f"{'#':>2}  {'pred':>6}  {'kind':<4} {'site':<28} "
        f"{'region':<20} {'work':>10} {'ops':>6} {'ways':>4} {'dag-par':>7}"
    )
    lines = [
        f"{title} (cores={machine.cores})",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    shown = report.use_cases if top is None else report.use_cases[:top]
    for i, use_case in enumerate(shown, start=1):
        p: Prediction = predict_use_case(
            use_case, machine, spans.get(use_case.instance_id)
        )
        predicted = (
            use_case.predicted_speedup
            if use_case.predicted_speedup is not None
            else p.predicted_speedup
        )
        lines.append(
            f"{i:>2}  {predicted:>5.2f}x  {use_case.kind.abbreviation:<4} "
            f"{_site_of(use_case):<28} {p.region_name:<20} "
            f"{p.region_work:>10.0f} {p.operations:>6} {p.ways:>4} "
            f"{p.dag_parallelism:>6.2f}x"
        )
    if not shown:
        lines.append("(no use cases)")
    if top is not None and len(report.use_cases) > top:
        lines.append(f"... {len(report.use_cases) - top} more below the cut")
    return "\n".join(lines)


__all__ = ["format_whatif_table"]

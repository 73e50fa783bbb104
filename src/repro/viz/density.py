"""Access-density heatmap for large profiles.

Figure-2-style per-event bars stop being readable past a few thousand
events; this view bins the profile into a (time × position) grid and
renders access density as shaded characters — hot regions (the inner
loop hammering one index range) pop out immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..events.profile import NO_POSITION, RuntimeProfile

if TYPE_CHECKING:
    import numpy as np

_SHADES = " .:-=+*#%@"


def density_grid(
    profile: RuntimeProfile, time_bins: int = 60, position_bins: int = 16
) -> np.ndarray:
    """(position_bins, time_bins) array of event counts.

    Positionless events are excluded; an empty/positionless profile
    yields an all-zero grid.
    """
    import numpy as np

    grid = np.zeros((position_bins, time_bins), dtype=np.int64)
    n = len(profile)
    if n == 0:
        return grid
    positions = profile.positions
    has_pos = positions != NO_POSITION
    if not has_pos.any():
        return grid
    indices = np.flatnonzero(has_pos)
    pos = positions[indices]
    max_pos = max(int(pos.max()), 1)

    time_idx = np.minimum(indices * time_bins // n, time_bins - 1)
    pos_idx = np.minimum(pos * position_bins // (max_pos + 1), position_bins - 1)
    np.add.at(grid, (pos_idx, time_idx), 1)
    return grid


def render_density(
    profile: RuntimeProfile,
    time_bins: int = 60,
    position_bins: int = 12,
) -> str:
    """ASCII heatmap: rows are position bands (top = high index),
    columns temporal bins, shade ∝ access count."""
    grid = density_grid(profile, time_bins, position_bins)
    peak = int(grid.max())
    if peak == 0:
        return "(no positional events)"

    lines = [
        f"access density — {len(profile)} events, peak {peak}/bin "
        f"({profile.kind.value}#{profile.instance_id})"
    ]
    for row in range(position_bins - 1, -1, -1):
        cells = []
        for col in range(time_bins):
            value = int(grid[row, col])
            shade = _SHADES[
                min(int(value / peak * (len(_SHADES) - 1)), len(_SHADES) - 1)
            ] if value else " "
            cells.append(shade)
        lines.append("|" + "".join(cells) + "|")
    lines.append(" " + "-" * time_bins)
    lines.append(" time →   (shade: " + _SHADES.strip() + " = low..high)")
    return "\n".join(lines)

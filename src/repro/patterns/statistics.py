"""Profile statistics: quantitative summaries of access behaviour.

The mining workflow needs more than pattern lists: end affinity (how
much activity hits the front/back), stride distribution (sequential vs
jumping access), phase structure, and the operation mix.  These metrics
feed the explanation engine (`repro.usecases.explain`) and give tests a
vocabulary for asserting profile *shapes*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..events.profile import NO_POSITION, RuntimeProfile
from ..events.types import AccessKind, OperationKind


@dataclass(frozen=True, slots=True)
class EndAffinity:
    """Share of positional events touching the structure's ends."""

    front: float
    back: float

    @property
    def ends_total(self) -> float:
        # Front and back can overlap on size-1 structures; clamp.
        return min(self.front + self.back, 1.0)


@dataclass(frozen=True, slots=True)
class StrideStats:
    """Distribution of |Δposition| between consecutive positional events.

    ``sequential_share`` (|Δ| ≤ 1) is what separates scan-heavy profiles
    from jump-heavy ones (hash probing, tree walking), and is the
    quantitative backbone of "contains regularity".
    """

    sequential_share: float
    mean_stride: float
    max_stride: int


@dataclass(frozen=True, slots=True)
class ProfileStats:
    """Full quantitative summary of one runtime profile."""

    events: int
    read_share: float
    write_share: float
    op_mix: dict[OperationKind, float]
    end_affinity: EndAffinity
    stride: StrideStats
    distinct_positions: int
    max_size: int
    growth: int  # final size − initial size

    def describe(self) -> str:
        mix = ", ".join(
            f"{op.name.lower()} {share:.0%}"
            for op, share in sorted(self.op_mix.items(), key=lambda kv: -kv[1])[:4]
        )
        return (
            f"{self.events} events ({mix}); reads {self.read_share:.0%}; "
            f"ends {self.end_affinity.ends_total:.0%} "
            f"(front {self.end_affinity.front:.0%} / back {self.end_affinity.back:.0%}); "
            f"sequential strides {self.stride.sequential_share:.0%}"
        )


def compute_stats(profile: RuntimeProfile) -> ProfileStats:
    """All summary statistics in one pass over the vectorized views."""
    n = len(profile)
    if n == 0:
        return ProfileStats(
            events=0,
            read_share=0.0,
            write_share=0.0,
            op_mix={},
            end_affinity=EndAffinity(front=0.0, back=0.0),
            stride=StrideStats(0.0, 0.0, 0),
            distinct_positions=0,
            max_size=0,
            growth=0,
        )

    import numpy as np

    kinds = profile.kinds
    read_share = float(np.count_nonzero(kinds == AccessKind.READ)) / n

    op_values, op_counts = np.unique(profile.ops, return_counts=True)
    op_mix = {
        OperationKind(int(v)): int(c) / n for v, c in zip(op_values, op_counts)
    }

    positions = profile.positions
    sizes = profile.sizes
    has_pos = positions != NO_POSITION
    positional = int(np.count_nonzero(has_pos))
    if positional:
        front = int(np.count_nonzero(has_pos & (positions == 0))) / positional
        back = int(
            np.count_nonzero(has_pos & (positions >= sizes - 1))
        ) / positional
        pos_only = positions[has_pos]
        distinct = int(np.unique(pos_only).size)
        if pos_only.size >= 2:
            strides = np.abs(np.diff(pos_only))
            sequential_share = float(np.count_nonzero(strides <= 1)) / strides.size
            mean_stride = float(strides.mean())
            max_stride = int(strides.max())
        else:
            sequential_share, mean_stride, max_stride = 1.0, 0.0, 0
    else:
        front = back = 0.0
        distinct = 0
        sequential_share, mean_stride, max_stride = 0.0, 0.0, 0

    return ProfileStats(
        events=n,
        read_share=read_share,
        write_share=1.0 - read_share,
        op_mix=op_mix,
        end_affinity=EndAffinity(front=front, back=back),
        stride=StrideStats(
            sequential_share=sequential_share,
            mean_stride=mean_stride,
            max_stride=max_stride,
        ),
        distinct_positions=distinct,
        max_size=profile.max_size,
        growth=int(profile.sizes[-1]) - int(profile.sizes[0]),
    )

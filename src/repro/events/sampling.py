"""Burst sampling for the hot recording path.

The paper keeps the instrumentation slowdown tolerable by doing nothing
but recording at runtime (§IV), yet Table IV still reports a 47× average
slowdown — the cost of recording *every* event.  :class:`Burst` decides,
per event, whether the collector posts it to the channel at all; no
policy (``None``) is the paper's full capture.

:class:`Burst` keeps the first K events of every instance verbatim,
then falls back to jittered 1-in-N decimation.  Instances with at most
K events — in practice most of the analysis search space — are captured
*exactly*; only the heavy hitters that dominate recording cost get
thinned.  The analysis side exploits the split: see
:meth:`~repro.usecases.engine.UseCaseEngine.analyze_collector`, which
applies the paper's engine to exact instances and a stride-recalibrated
engine to the decimated tails.  Plain 1-in-N decimation of whole
instances is not offered: a missed trailing write cannot be recovered
from a 1-in-N sample, and it changed the reports of Table V programs.

Decimation is *jittered*: one pseudo-random event per block of N
rather than every N-th event.  Strided decimation aliases against
periodic access patterns — a read-modify-write loop has period 2, so
"every 10th op" sees only one phase of it and the captured op mix is
wildly biased.  Jitter decorrelates the sample from any fixed period
while keeping the exact 1-in-N rate and full determinism (the offset is
a hash of the block index and instance id, not a global RNG).

Decimated captures stretch position deltas: a Read-Forward scan sampled
1-in-10 with jitter steps by 1..19 positions per surviving event.
Analyze them with a gap-tolerant detector —
:meth:`~repro.usecases.engine.UseCaseEngine.for_sampling` builds one
from the policy's decimation factor.

Counters are plain dict updates without locking: under free threading a
race can very occasionally admit or skip one extra event.  Sampling is
approximate by construction, so this is documented rather than paid for
with a hot-path lock.
"""

from __future__ import annotations

# Jitter hash multipliers: Knuth's MMIX LCG multiplier truncated to 31
# bits for the block term, and a Weyl-ish odd constant for the instance
# term.  Quality requirements are mild — any odd multipliers that
# decorrelate (block, instance) pairs from small periods will do.
_BLOCK_MIX = 1103515245
_INSTANCE_MIX = 747796405
_JITTER_MASK = 0x7FFFFFFF
_SALT = 12345


def _jitter(block: int, instance_id: int, n: int) -> int:
    """Deterministic pseudo-random offset in ``[0, n)`` for one block."""
    return (
        (block * _BLOCK_MIX + instance_id * _INSTANCE_MIX + _SALT) & _JITTER_MASK
    ) % n


class Burst:
    """Keep the first ``keep`` events per instance, then decimate 1-in-``n``.

    The burst prefix preserves each instance's early life exactly —
    construction, initial fill, the phases short-lived instances consist
    of entirely — while long steady-state phases are decimated with
    jitter.  :meth:`admit` runs once per recorded event, so it stays
    allocation-free and branch-light.
    """

    def __init__(self, keep: int, n: int) -> None:
        if keep < 0:
            raise ValueError(f"burst length must be >= 0, got {keep}")
        if n < 1:
            raise ValueError(f"decimation factor must be >= 1, got {n}")
        self.keep = keep
        #: Steady-state thinning factor of the tail (1 admitted per ``n``
        #: events, per instance).  The analysis side uses it to widen
        #: the pattern detector's ``max_gap`` and rescale count thresholds.
        self.n = n
        #: Per instance: [events seen, index of the next admitted one
        #: past the burst].  The jitter hash runs once per block, when
        #: its event is admitted.
        self._state: dict[int, list[int]] = {}

    def admit(self, instance_id: int) -> bool:
        """Whether the next event of ``instance_id`` should be recorded."""
        state = self._state.get(instance_id)
        if state is None:
            state = self._state[instance_id] = [
                0, self.keep + _jitter(0, instance_id, self.n)
            ]
        c = state[0]
        state[0] = c + 1
        if c != state[1]:
            return c < self.keep
        block = (c - self.keep) // self.n + 1
        state[1] = self.keep + block * self.n + _jitter(block, instance_id, self.n)
        return True

    def is_exact(self, instance_id: int) -> bool:
        """Whether everything this instance did so far was admitted.

        Exact instances can be analyzed with the paper's unmodified
        engine; decimated ones need the stride-recalibrated engine."""
        return self.n == 1 or self.observed(instance_id) <= self.keep

    def exact_prefix(self, instance_id: int) -> int:
        """How many *leading captured events* of this instance's profile
        were recorded at full rate (the burst prefix).

        The analysis side drops the prefix when analyzing a decimated
        instance, because mixing full-rate and thinned regimes in one
        profile biases every fraction-based rule toward whatever the
        prefix contains."""
        return 0 if self.is_exact(instance_id) else self.keep

    def observed(self, instance_id: int) -> int:
        """Total events this instance produced (admitted or not)."""
        state = self._state.get(instance_id)
        return state[0] if state is not None else 0

    def describe(self) -> str:
        return f"burst:{self.keep}/{self.n}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Burst {self.describe()}>"

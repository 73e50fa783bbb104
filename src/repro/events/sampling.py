"""Sampling policies for the hot recording path.

The paper keeps the instrumentation slowdown tolerable by doing nothing
but recording at runtime (§IV), yet Table IV still reports a 47× average
slowdown — the cost of recording *every* event.  Sampling profilers
(TASKPROF, PROMPT) show that decimated event streams preserve enough
structure for detection while cutting overhead proportionally.  A
:class:`SamplingPolicy` decides, per event, whether the collector posts
it to the channel at all.

Three policies are provided:

``RecordAll``
    The identity policy (paper-faithful full capture).  The collector
    special-cases it to literally zero added cost.

``Decimate``
    1-in-N decimation with an independent counter per instance, so a
    chatty instance cannot starve a quiet one.  Admission is *jittered*:
    one pseudo-random event per block of N rather than every N-th event.
    Strided decimation aliases against periodic access patterns — a
    read-modify-write loop has period 2, so "every 10th op" sees only
    one phase of it and the captured op mix is wildly biased.  Jitter
    decorrelates the sample from any fixed period while keeping the
    exact 1-in-N rate and full determinism (the offset is a hash of the
    block index and instance id, not a global RNG).

``Burst``
    Keeps the first K events of every instance verbatim, then falls
    back to jittered 1-in-N decimation.  Instances with at most K
    events — in practice most of the analysis search space — are
    captured *exactly*; only the heavy hitters that dominate recording
    cost get thinned.  The analysis side exploits the split: see
    :meth:`~repro.usecases.engine.UseCaseEngine.analyze_collector`,
    which applies the paper's engine to exact instances and a
    stride-recalibrated engine to the decimated ones.

Decimated captures stretch position deltas: a Read-Forward scan sampled
1-in-10 with jitter steps by 1..19 positions per surviving event.
Analyze them with a gap-tolerant detector —
:meth:`~repro.usecases.engine.UseCaseEngine.for_sampling` builds one
from the policy's :attr:`~SamplingPolicy.stride`.

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
_DEFAULT_SALT = 12345
_SEED_MIX = 0x9E3779B1  # golden-ratio odd constant (Fibonacci hashing)


def _salt_from_seed(seed: int | None) -> int:
    """Additive salt for the jitter hash.  ``None`` keeps the historic
    constant so unseeded policies admit exactly the events they always
    have (overhead baselines depend on that)."""
    if seed is None:
        return _DEFAULT_SALT
    return ((seed * _SEED_MIX) + _DEFAULT_SALT) & _JITTER_MASK


class SamplingPolicy:
    """Base policy: admit everything.

    Subclasses override :meth:`admit`; it runs once per recorded event,
    so implementations must stay allocation-free and branch-light.
    """

    #: Steady-state thinning factor (1 admitted per ``stride`` events,
    #: per instance).  The analysis side uses it to widen the pattern
    #: detector's ``max_gap`` and rescale count thresholds.
    stride: int = 1

    def admit(self, instance_id: int) -> bool:
        """Whether the next event of ``instance_id`` should be recorded."""
        return True

    def is_exact(self, instance_id: int) -> bool:
        """Whether everything this instance did so far was admitted.

        Exact instances can be analyzed with the paper's unmodified
        engine; decimated ones need the stride-recalibrated engine."""
        return True

    def exact_prefix(self, instance_id: int) -> int:
        """How many *leading captured events* of this instance's profile
        were recorded at full rate (the burst prefix).

        Zero for uniform policies.  The analysis side drops the prefix
        when analyzing a decimated instance, because mixing full-rate
        and thinned regimes in one profile biases every fraction-based
        rule toward whatever the prefix contains."""
        return 0

    def describe(self) -> str:
        return "record-all"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class RecordAll(SamplingPolicy):
    """Full capture (the paper's behavior)."""


#: Shared identity policy; ``EventCollector`` treats it like ``None``.
RECORD_ALL = RecordAll()


def _jitter(block: int, instance_id: int, n: int, salt: int = _DEFAULT_SALT) -> int:
    """Deterministic pseudo-random offset in ``[0, n)`` for one block."""
    return (
        (block * _BLOCK_MIX + instance_id * _INSTANCE_MIX + salt) & _JITTER_MASK
    ) % n


class Decimate(SamplingPolicy):
    """Keep 1 event in every ``n``, counted per instance, with jitter.

    ``seed`` perturbs the jitter hash: runs with the same seed admit
    bit-identical event sets (reproducible experiments), different
    seeds draw an independent 1-in-``n`` sample (for averaging out
    sampling luck across repeated runs).  ``None`` — the default —
    preserves the historic unseeded jitter exactly.
    """

    def __init__(self, n: int, seed: int | None = None) -> None:
        if n < 1:
            raise ValueError(f"decimation factor must be >= 1, got {n}")
        self.n = n
        self.stride = n
        self.seed = seed
        self._salt = _salt_from_seed(seed)
        #: Per instance: [events seen, index of the next admitted one].
        #: The jitter hash runs once per block, when its event is admitted.
        self._state: dict[int, list[int]] = {}

    def admit(self, instance_id: int) -> bool:
        state = self._state.get(instance_id)
        if state is None:
            state = self._state[instance_id] = [
                0, _jitter(0, instance_id, self.n, self._salt)
            ]
        c = state[0]
        state[0] = c + 1
        if c != state[1]:
            return False
        block = c // self.n + 1
        state[1] = block * self.n + _jitter(block, instance_id, self.n, self._salt)
        return True

    def is_exact(self, instance_id: int) -> bool:
        return self.n == 1

    def observed(self, instance_id: int) -> int:
        """Total events this instance produced (admitted or not)."""
        state = self._state.get(instance_id)
        return state[0] if state is not None else 0

    def describe(self) -> str:
        if self.seed is None:
            return f"1-in-{self.n}"
        return f"1-in-{self.n} (seed {self.seed})"


class Burst(SamplingPolicy):
    """Keep the first ``keep`` events per instance, then decimate 1-in-``n``.

    The burst prefix preserves each instance's early life exactly —
    construction, initial fill, the phases short-lived instances consist
    of entirely — while long steady-state phases are decimated with the
    same jittered scheme as :class:`Decimate`.
    """

    def __init__(self, keep: int, n: int, seed: int | None = None) -> None:
        if keep < 0:
            raise ValueError(f"burst length must be >= 0, got {keep}")
        if n < 1:
            raise ValueError(f"decimation factor must be >= 1, got {n}")
        self.keep = keep
        self.n = n
        self.stride = n
        self.seed = seed
        self._salt = _salt_from_seed(seed)
        #: Per instance: [events seen, index of the next admitted one
        #: past the burst], as in :class:`Decimate`.
        self._state: dict[int, list[int]] = {}

    def admit(self, instance_id: int) -> bool:
        state = self._state.get(instance_id)
        if state is None:
            state = self._state[instance_id] = [
                0, self.keep + _jitter(0, instance_id, self.n, self._salt)
            ]
        c = state[0]
        state[0] = c + 1
        if c != state[1]:
            return c < self.keep
        block = (c - self.keep) // self.n + 1
        state[1] = (
            self.keep + block * self.n + _jitter(block, instance_id, self.n, self._salt)
        )
        return True

    def is_exact(self, instance_id: int) -> bool:
        return self.n == 1 or self.observed(instance_id) <= self.keep

    def exact_prefix(self, instance_id: int) -> int:
        return 0 if self.is_exact(instance_id) else self.keep

    def observed(self, instance_id: int) -> int:
        """Total events this instance produced (admitted or not)."""
        state = self._state.get(instance_id)
        return state[0] if state is not None else 0

    def describe(self) -> str:
        if self.seed is None:
            return f"burst:{self.keep}/{self.n}"
        return f"burst:{self.keep}/{self.n} (seed {self.seed})"


def parse_sampling(spec: str, seed: int | None = None) -> SamplingPolicy:
    """Parse a CLI sampling spec into a policy.

    Accepted forms::

        all               record everything (default)
        1/N  or  1:N      1-in-N decimation per instance
        burst:K/N         keep the first K events, then 1-in-N

    ``seed`` (CLI ``--sample-seed``) makes the jittered admission
    bit-reproducible across runs; it is ignored by ``all``.

    Raises ``ValueError`` on anything else, with the accepted grammar in
    the message so argparse surfaces a usable error.
    """
    text = spec.strip().lower()
    try:
        if text in ("all", "full", "1", "1/1"):
            return RECORD_ALL
        if text.startswith("burst:"):
            body = text[len("burst:"):]
            keep_s, _, n_s = body.replace(":", "/").partition("/")
            return Burst(int(keep_s), int(n_s), seed=seed)
        if "/" in text or ":" in text:
            one, _, n_s = text.replace(":", "/").partition("/")
            if int(one) != 1:
                raise ValueError(spec)
            return Decimate(int(n_s), seed=seed)
    except (ValueError, TypeError):
        pass
    raise ValueError(
        f"unrecognized sampling spec {spec!r}; expected 'all', '1/N', or 'burst:K/N'"
    )

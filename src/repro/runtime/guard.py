"""Exception firewall for the instrumentation hot path.

DSspy's contract is that profiling is an *observer*: the instrumented
program must behave identically even when the profiler itself
misbehaves.  The :class:`RuntimeGuard` enforces that contract at the
host-process boundary.  When a guard is *armed* (via :func:`arm`, the
:func:`firewall` context manager, or ``dsspy analyze --guard-budget``),
every recording hook — the record hook (``EventCollector.record``),
``register_instance``, channel ``post``/``flush``, remote sends, the
exit drain — runs under it:

* profiler-internal exceptions are swallowed and counted by category
  instead of propagating into user code;
* a thread-local *in-profiler* flag suppresses re-entrant recording, so
  profiler internals that touch tracked structures cannot recurse or
  deadlock;
* a :class:`~repro.runtime.breaker.CircuitBreaker` spends one unit of
  error budget per fault and trips to **pass-through mode** when it is
  exhausted: the guard's blocked cell flips, tracked structures degrade
  to near-zero-overhead plain delegates, and watched channels fail
  open so no producer can block on a dead drainer.

Arming is explicit and scoped.  With no guard armed the seed behaviour
is byte-identical: profiler exceptions propagate loudly, which is what
the test-bench and library-embedding modes want (a silently broken
profiler is worse than a loud one there).  The firewall is a production
posture you opt into.

Hot-path cost discipline: the ambient guard lives in a one-slot list
cell (``ACTIVE_GUARD[0]`` is a single C subscript, the same trick as
``BatchingChannel``'s ``_open`` gate), the blocked flag is another
cell, and the re-entrancy flag is a ``threading.local`` subclass with a
class-level default so unarmed and healthy-armed paths never take a
lock or raise.  The added cost is gated by the ``guard_vs_plain``
metric in ``benchmarks/overhead.py``.
"""

from __future__ import annotations

import threading
import traceback
import weakref
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..testing.clock import Clock
from .breaker import CircuitBreaker

#: Fault categories the firewall distinguishes (GuardReport keys).
FAULT_CATEGORIES = (
    "record",  # EventCollector.record (and its per-thread bind)
    "register",  # instance registration at construction
    "site",  # allocation-site frame walk
    "post",  # channel post/producer
    "flush",  # channel flush/drain paths
    "send",  # remote wire writes
    "drain",  # terminal drain / exit drain
    "fork",  # after-fork reinitialization
    "stall",  # watchdog-detected stalls
    "watchdog",  # a health probe itself raised
    "internal",  # fault handling machinery failed
)

#: One-slot cell holding the armed guard (or None).  Read on every
#: recorded operation — keep it a plain list subscript.
ACTIVE_GUARD: list = [None]

_guard_stack: list = []
_stack_lock = threading.Lock()


class _GuardLocal(threading.local):
    """Re-entrancy flag with a class-level default: reading
    ``tls.inside`` on a fresh thread costs one attribute lookup and no
    ``__init__`` call."""

    inside = False


@dataclass
class GuardReport:
    """Point-in-time snapshot of the firewall's health, surfaced via
    collector stats and ``dsspy analyze``."""

    state: str
    budget: int
    faults: int
    by_category: dict = field(default_factory=dict)
    recent: list = field(default_factory=list)
    trip_reason: str | None = None
    trips: int = 0
    reprobes: int = 0

    @property
    def tripped(self) -> bool:
        return self.state == CircuitBreaker.OPEN

    def describe(self) -> str:
        """Human-oriented one-paragraph rendering for the CLI."""
        lines = [
            f"guard: {self.state} "
            f"({self.faults}/{self.budget} fault budget spent, "
            f"{self.trips} trip(s), {self.reprobes} re-probe(s))"
        ]
        if self.trip_reason:
            lines.append(f"  tripped: {self.trip_reason}")
        for category, count in sorted(self.by_category.items()):
            lines.append(f"  {category}: {count} contained fault(s)")
        for category, text in self.recent:
            first = text.strip().splitlines()[-1] if text.strip() else text
            lines.append(f"  last {category}: {first}")
        return "\n".join(lines)


class RuntimeGuard:
    """Containment boundary between the profiler and the host program.

    Parameters
    ----------
    budget:
        Contained faults tolerated before the breaker trips to
        pass-through mode.
    cooldown / probation:
        Optional half-open re-probe schedule (see
        :class:`~repro.runtime.breaker.CircuitBreaker`).  The default
        ``cooldown=None`` means a trip is final for the run.
    exit_deadline:
        Seconds the bounded exit drain may spend flushing pending
        events before giving up (see
        :func:`~repro.runtime.lifecycle.finish_with_deadline`).
    clock:
        Injectable time source for deterministic tests.
    """

    def __init__(
        self,
        budget: int = 25,
        cooldown: float | None = None,
        probation: float = 1.0,
        exit_deadline: float = 5.0,
        clock: Clock | None = None,
    ) -> None:
        self.exit_deadline = exit_deadline
        self._breaker = CircuitBreaker(
            budget=budget, cooldown=cooldown, probation=probation, clock=clock
        )
        #: One-slot pass-through cell: True once the breaker has
        #: tripped.  Hot path reads ``guard._blocked[0]`` only.
        self._blocked: list = [False]
        self._tls = _GuardLocal()
        self._lock = threading.Lock()
        self._by_category: Counter = Counter()
        self._recent: deque = deque(maxlen=8)
        self._channels: list = []  # weakrefs to watched channels

    # -- hot-path state ---------------------------------------------------

    @property
    def tripped(self) -> bool:
        return self._blocked[0]

    @property
    def budget(self) -> int:
        return self._breaker.budget

    @property
    def faults(self) -> int:
        return self._breaker.faults

    # -- fault intake -----------------------------------------------------

    def fault(self, category: str, exc: BaseException) -> None:
        """Record one contained profiler fault.  Never raises: this is
        the last line of defence between the profiler and user code."""
        try:
            self._note_fault(category, exc)
        except Exception:
            # The fault machinery itself failed; force pass-through so
            # nothing else can go wrong.
            self._blocked[0] = True

    def _note_fault(self, category: str, exc: BaseException) -> None:
        with self._lock:
            self._by_category[category] += 1
            try:
                text = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
            except Exception:
                text = repr(exc)
            self._recent.append((category, text))
        if self._breaker.record_fault(category):
            self._apply_trip()

    @contextmanager
    def shield(self, category: str):
        """Run a profiler-internal block under the firewall: exceptions
        are contained and counted, re-entrant recording is suppressed
        for the duration."""
        tls = self._tls
        outer = tls.inside
        tls.inside = True
        try:
            yield
        except Exception as exc:
            self.fault(category, exc)
        finally:
            tls.inside = outer

    def trip(self, reason: str) -> None:
        """Force pass-through mode (watchdog stalls, exit-drain
        timeouts)."""
        if self._breaker.trip(reason):
            self._apply_trip()

    def _apply_trip(self) -> None:
        self._blocked[0] = True
        with self._lock:
            channels = [ref() for ref in self._channels]
        for channel in channels:
            if channel is None:
                continue
            fail_open = getattr(channel, "fail_open", None)
            if fail_open is not None:
                try:
                    fail_open()
                except Exception:
                    pass

    def poll(self) -> None:
        """Advance the breaker's time-based transitions (watchdog
        tick): re-open the pass-through cell on half-open/closed."""
        transition = self._breaker.poll()
        if transition in ("half-open", "closed"):
            self._blocked[0] = False

    # -- watched channels -------------------------------------------------

    def watch_channel(self, channel) -> None:
        """Register a channel whose ``fail_open()`` must run when the
        breaker trips (so producers can never block on a dead
        drainer).  Held by weakref when possible, so drained channels
        just drop out; slotted channels without ``__weakref__`` (the
        synchronous one) are held strongly — they have no ``fail_open``
        anyway and the guard's lifetime is one run."""
        try:
            ref = weakref.ref(channel)
        except TypeError:
            def ref(obj=channel):
                return obj
        with self._lock:
            self._channels.append(ref)

    # -- reporting --------------------------------------------------------

    def report(self) -> GuardReport:
        with self._lock:
            by_category = dict(self._by_category)
            recent = list(self._recent)
        return GuardReport(
            state=self._breaker.state,
            budget=self._breaker.budget,
            faults=self._breaker.faults,
            by_category=by_category,
            recent=recent,
            trip_reason=self._breaker.trip_reason,
            trips=self._breaker.trips,
            reprobes=self._breaker.reprobes,
        )

    # -- arming -----------------------------------------------------------

    def __enter__(self) -> "RuntimeGuard":
        arm(self)
        return self

    def __exit__(self, *exc) -> None:
        disarm(self)


def arm(guard: RuntimeGuard) -> RuntimeGuard:
    """Make ``guard`` the ambient firewall.  Nests: re-arming pushes the
    previous guard, :func:`disarm` restores it."""
    with _stack_lock:
        _guard_stack.append(ACTIVE_GUARD[0])
        ACTIVE_GUARD[0] = guard
    return guard


def disarm(guard: RuntimeGuard | None = None) -> None:
    """Pop the ambient firewall (restoring whatever was armed before).

    Passing the guard is optional but asserts you are disarming the one
    you armed."""
    with _stack_lock:
        current = ACTIVE_GUARD[0]
        if guard is not None and current is not guard:
            raise RuntimeError(
                "disarm(): the active guard is not the one being disarmed "
                "(unbalanced arm/disarm nesting)"
            )
        ACTIVE_GUARD[0] = _guard_stack.pop() if _guard_stack else None


def active_guard() -> RuntimeGuard | None:
    """The currently armed firewall, or None (seed fail-loud mode)."""
    return ACTIVE_GUARD[0]


@contextmanager
def firewall(budget: int = 25, **kwargs):
    """``with firewall(budget=10) as guard: ...`` — arm a fresh guard
    for the block."""
    guard = RuntimeGuard(budget=budget, **kwargs)
    arm(guard)
    try:
        yield guard
    finally:
        disarm(guard)

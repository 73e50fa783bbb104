"""Proxy base for instrumented data structures.

The paper implements its dynamic profiler "using the proxy design
pattern so that it is easily extensible to runtime profiles of other
data structures or use cases" (§IV).  :class:`TrackedBase` is that
proxy root: it registers the instance with the active
:class:`~repro.events.collector.EventCollector`, captures the allocation
site from the call stack, and funnels every interface interaction
through the record hook it caches at construction (``_record_fn``,
reached via :meth:`TrackedBase._record` or called directly on the
hottest paths).

Fail-open containment: when a :class:`~repro.runtime.guard.RuntimeGuard`
is armed, the constructor runs under the exception firewall (a raising
registration untracks the instance).  Recording needs no guard branch
here: every event is one call of the cached ``collector.record``, and
that hook (:meth:`~repro.events.collector.EventCollector.record`)
checks the guard per event.  Recording faults are contained and
counted, re-entrant recording from profiler internals is suppressed,
and recording stops once the circuit breaker trips, also for instances
built before the guard was armed.  With no guard armed (the default),
behaviour is byte-identical to the fail-loud seed: profiler exceptions
propagate, which is what tests and debugging want.
"""

from __future__ import annotations

import sys

from ..events.collector import EventCollector, get_collector
from ..events.profile import AllocationSite, RuntimeProfile
from ..events.types import AccessKind, OperationKind, StructureKind
from ..runtime.guard import ACTIVE_GUARD

_PACKAGE_PREFIX = __name__.rsplit(".", 1)[0]  # "repro.structures"

_UNKNOWN_SITE = AllocationSite(filename="<unknown>", lineno=0)

#: One-slot switch for the allocation-site frame walk (the CLI's
#: ``--no-sites`` fast path clears it).
_SITE_CAPTURE: list = [True]


def set_site_capture(enabled: bool) -> None:
    """Globally enable/disable allocation-site capture.

    Disabling skips the per-construction stack walk entirely — the
    fast path for workloads that allocate many short-lived structures
    and don't need sites in the report."""
    _SITE_CAPTURE[0] = bool(enabled)


def site_capture_enabled() -> bool:
    return _SITE_CAPTURE[0]


#: Interned sites, keyed by their fields: allocation-heavy code builds
#: many structures at a few lines, and the collector then keeps one
#: shared frozen site per line instead of one site per instance.
#: Cleared when full, so a program that makes up labels cannot grow it
#: without bound.
_SITES: dict[tuple[str, int, str, str], AllocationSite] = {}
_SITES_LIMIT = 4096


def _interned_site(filename: str, lineno: int, function: str, variable: str) -> AllocationSite:
    key = (filename, lineno, function, variable)
    site = _SITES.get(key)
    if site is None:
        if len(_SITES) >= _SITES_LIMIT:
            _SITES.clear()
        site = _SITES[key] = AllocationSite(*key)
    return site


def capture_site(variable: str = "") -> AllocationSite:
    """Allocation site of the nearest caller outside this package.

    Walks the stack past all ``repro.structures`` frames so that user
    code constructing a tracked structure -- directly or through a
    factory -- is reported, mirroring how DSspy binds events to the
    instantiation location in the analyzed program.  Repeated
    constructions at one line with one variable share one site object.

    Fail-open: the frame walk is best-effort observability, never worth
    an exception in user code.  If it raises (``sys._getframe`` missing
    on an alternative interpreter, exotic frame objects, re-entrant
    interpreter states) the ``<unknown>`` site is returned instead, and
    an armed guard counts the fault.
    """
    if not _SITE_CAPTURE[0]:
        return _interned_site("<unknown>", 0, "<module>", variable)
    try:
        frame = sys._getframe(1)
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if not module.startswith(_PACKAGE_PREFIX):
                code = frame.f_code
                return _interned_site(
                    code.co_filename, frame.f_lineno, code.co_name, variable
                )
            frame = frame.f_back
    except Exception as exc:
        guard = ACTIVE_GUARD[0]
        if guard is not None:
            guard.fault("site", exc)
    return _interned_site("<unknown>", 0, "<module>", variable)


def _discard_event(
    instance_id: int,
    op: OperationKind,
    kind: AccessKind,
    position: int | None,
    size: int,
) -> None:
    """Recording no-op installed on untracked (contained-failure)
    instances: the cheapest possible pass-through delegate."""


class TrackedBase:
    """Common machinery for all instrumented containers.

    Subclasses declare their species via ``KIND`` and call
    :meth:`_record` (or, on the hottest paths, the cached ``_record_fn``
    directly) from every interface method.  The recording path is
    deliberately minimal -- one hook call, one tuple, one buffer append
    -- because the instrumentation slowdown (Table IV) is dominated by
    exactly this path.
    """

    KIND: StructureKind = StructureKind.OTHER

    __slots__ = ("_collector", "_instance_id", "_site", "_label", "_record_fn")

    def __init__(
        self,
        label: str = "",
        collector: EventCollector | None = None,
        site: AllocationSite | None = None,
    ) -> None:
        self._label = label
        guard = ACTIVE_GUARD[0]
        if guard is None:
            self._register(label, collector, site)
            return
        if guard._blocked[0] or guard._tls.inside:
            # Breaker tripped, or a profiler internal is constructing a
            # container: plain delegate, no registration.
            self._untrack(site)
            return
        try:
            self._register(label, collector, site)
        except Exception as exc:
            guard.fault("register", exc)
            self._untrack(site)

    def _register(
        self,
        label: str,
        collector: EventCollector | None,
        site: AllocationSite | None,
    ) -> None:
        if collector is None:
            collector = get_collector()
        if site is None:
            site = capture_site(label)
        self._collector = collector
        self._site = site
        self._instance_id = collector.register_instance(self.KIND, site, label)
        # Bound method cached at construction: saves one attribute hop
        # per access event, measurable on the hot path.
        self._record_fn = collector.record

    def _untrack(self, site: AllocationSite | None = None) -> None:
        """Degrade this instance to an uninstrumented plain delegate."""
        self._collector = None
        self._instance_id = -1
        self._site = site if site is not None else _UNKNOWN_SITE
        self._record_fn = _discard_event

    # -- identity ------------------------------------------------------

    @property
    def instance_id(self) -> int:
        """Collector-assigned id; key into the collector's profiles
        (``-1`` when containment untracked this instance)."""
        return self._instance_id

    @property
    def tracked(self) -> bool:
        """False when fail-open containment degraded this instance to a
        plain delegate (registration failed or the breaker was open at
        construction)."""
        return self._collector is not None

    @property
    def allocation_site(self) -> AllocationSite:
        return self._site

    @property
    def label(self) -> str:
        return self._label

    def profile(self) -> RuntimeProfile:
        """This instance's runtime profile (finishes the collector)."""
        if self._collector is None:
            raise RuntimeError(
                "this instance was untracked by the fail-open guard "
                "(registration failed or the circuit breaker was open); "
                "no profile was recorded"
            )
        return self._collector.profile_of(self._instance_id)

    # -- recording ------------------------------------------------------

    def _record(
        self,
        op: OperationKind,
        kind: AccessKind,
        position: int | None,
        size: int,
    ) -> None:
        self._record_fn(self._instance_id, op, kind, position, size)

"""Span tracer for traced runs of the end-to-end benchmark.

Every Python process of a traced run loads this module through the
``sitecustomize`` next to it (the benchmark puts this directory on
``PYTHONPATH`` and sets ``E2E_TRACE_DIR``); the benchmark's own process
installs it directly around the fleet load generator.  The tracer times
calls into the public functions of :mod:`repro` from outside: it wraps
each name in :data:`TARGETS` where callers look it up -- a method on its
class, a function in its defining module *and* in every module that
imported it by name -- and records one span per call:

``[id, name, start, end, parent id, thread id, session id, attrs]``

``start``/``end`` come from ``CLOCK_MONOTONIC``, which every process on
one host shares, so spans of different processes line up.  The parent
is the innermost open span of the calling thread; a call on a thread
with no open span is parented to the main thread's innermost open span
(the exit drain and the remote drainer work on behalf of the main
thread).  Spans stay in memory and are written to
``$E2E_TRACE_DIR/<pid>.jsonl`` at interpreter exit: one header object,
then one JSON array per span.

Per-event calls (``EventCollector.record``, ``StreamingUseCaseEngine.feed``)
are deliberately not wrapped; the cheapest wrapped call runs once per
instance.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import importlib.abc
import json
import os
import sys
import threading
import time

#: ``(module, qualified name, span name, attribute extractor)``.  The
#: extractor maps ``(args, result)`` to a small dict of counts.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.cli", "main", "cli.main", None),
    ("repro.instrument.rewriter", "rewrite_source", "instrument.rewrite", None),
    ("repro.instrument.runner", "run_instrumented", "record.run", None),
    ("repro.events.collector", "EventCollector.finish", "events.finish", "instances"),
    ("repro.usecases.engine", "UseCaseEngine.analyze_collector", "usecases.analyze", "flagged"),
    ("repro.patterns.detector", "PatternDetector.detect", "patterns.detect", None),
    ("repro.usecases.features", "features_of", "usecases.features", None),
    ("repro.usecases.engine", "evaluate_rules", "usecases.rules", None),
    ("repro.usecases.report", "format_table_v", "usecases.format", None),
    ("repro.usecases.report", "format_summary", "usecases.format", None),
    ("repro.whatif.predict", "workspans_from_profiles", "whatif.workspans", None),
    ("repro.whatif.predict", "annotate_report", "whatif.rank", None),
    ("repro.whatif.predict", "rank_report", "whatif.rank", None),
    ("repro.service.client", "ServiceClient.__init__", "client.connect", None),
    ("repro.service.client", "ServiceClient.register_instances", "client.register", None),
    ("repro.service.client", "ServiceClient.send_events", "client.send", "window"),
    ("repro.service.client", "ServiceClient.fin", "client.fin_wait", None),
    ("repro.service.client", "RemoteChannel.drain", "client.drain", "reconnects"),
    ("repro.service.protocol", "encode_events", "protocol.encode", "bytes"),
    ("repro.service.protocol", "decode_events", "protocol.decode", None),
    ("repro.service.session", "Session.ingest", "session.ingest", None),
    ("repro.service.session", "IngestPipeline.submit", "session.submit_wait", None),
    ("repro.service.session", "Session.finish", "session.finish", None),
    ("repro.service.durability", "SessionJournal.append_events", "journal.append", "journal"),
    ("repro.service.durability", "SessionJournal.checkpoint", "journal.checkpoint", None),
    ("repro.service.streaming", "StreamingUseCaseEngine.feed_window", "streaming.fold", "window"),
    ("repro.service.streaming", "StreamingUseCaseEngine.report", "streaming.report", None),
    ("repro.service.daemon", "ProfilingDaemon.stats", "daemon.stats", None),
)


def _attrs(kind: str, args: tuple, result) -> dict:
    if kind == "instances":
        return {"instances": len(result)}
    if kind == "flagged":
        return {"flagged": result.instances_flagged}
    if kind == "window":
        return {"events": len(args[-1])}
    if kind == "reconnects":
        return {"reconnects": args[0].reconnects}
    if kind == "bytes":
        return {"bytes": len(result)}
    if kind == "journal":
        from repro.events.spill import RECORD_SIZE

        return {"bytes": len(args[2]) * RECORD_SIZE}
    raise ValueError(kind)


_now = time.monotonic  # CLOCK_MONOTONIC: shared by every process on the host
_SPANS: list[list] = []
_THREADS: dict[int, str] = {}
_local = threading.local()
_main_stack: list[list] = []
#: ``id(StreamingUseCaseEngine) -> session id``, so spans of the engine
#: (which has no session of its own) carry the session they serve.
_ENGINE_SESSIONS: dict[int, str] = {}
_wrappers: dict[int, object] = {}  # id(original function) -> wrapper
_installed: dict[object, object] = {}
#: Launch timestamp handed over by the benchmark (``E2E_LAUNCH_T``); taken
#: out of the environment so processes this one spawns do not inherit it.
_launch: float | None = None


def _stack() -> list[list]:
    try:
        return _local.stack
    except AttributeError:
        stack = _local.stack = []
        thread = threading.current_thread()
        _THREADS[thread.ident] = thread.name
        return stack


def _make_wrapper(fn, name: str, attrs: str | None, method: bool):
    main_ident = threading.main_thread().ident

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != main_ident and _main_stack:
            try:
                parent = _main_stack[-1]
            except IndexError:  # the main thread closed its span meanwhile
                parent = None
        else:
            parent = None
        span = [name, 0.0, 0.0, parent, threading.get_ident(), None, None]
        _SPANS.append(span)
        stack.append(span)
        span[1] = _now()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[6] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = _now()
            stack.pop()
        try:
            if method:
                owner = args[0]
                span[5] = getattr(owner, "session_id", None) or _ENGINE_SESSIONS.get(id(owner))
            if attrs is not None:
                span[6] = _attrs(attrs, args, result)
        except Exception:  # noqa: BLE001 - a tracer must never break the traced program
            pass
        return result

    return wrapper


def _wrap_session_init(cls) -> None:
    """Remember which session each streaming engine serves."""
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, session_id, engine, *args, **kwargs):
        original(self, session_id, engine, *args, **kwargs)
        _ENGINE_SESSIONS[id(engine)] = session_id

    cls.__init__ = __init__


def _define_wrappers(module) -> None:
    for mod_name, qualname, name, attrs in TARGETS:
        if mod_name != module.__name__ or (mod_name, qualname) in _installed:
            continue
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = _make_wrapper(original, name, attrs, method=bool(owner_name))
        setattr(owner, attr, wrapper)
        _wrappers[id(original)] = wrapper
        _installed[(mod_name, qualname)] = original
    if module.__name__ == "repro.service.session" and "Session.__init__" not in _installed:
        _wrap_session_init(module.Session)
        _installed["Session.__init__"] = module.Session


def _rebind_imports(module) -> None:
    """Point names a module imported from a traced module at the wrapper."""
    namespace = module.__dict__
    for key, value in list(namespace.items()):
        wrapper = _wrappers.get(id(value))
        if wrapper is not None and value is not wrapper:
            namespace[key] = wrapper


def _patch(module) -> None:
    _define_wrappers(module)
    _rebind_imports(module)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Lets the normal finders locate ``repro`` modules, then patches
    each module right after its body ran."""

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        exec_module = loader.exec_module

        def patched_exec(module):
            exec_module(module)
            _patch(module)

        loader.exec_module = patched_exec
        return spec


def _run_cli_as_main(run_module_as_main):
    """``python -m repro.cli`` executes the CLI as ``__main__``, which no
    import hook sees; import it as ``repro.cli`` instead so its ``main``
    is wrapped, and call it the way the module's ``__main__`` block does."""

    @functools.wraps(run_module_as_main)
    def wrapper(mod_name, alter_argv=True):
        if mod_name != "repro.cli":
            return run_module_as_main(mod_name, alter_argv)
        module = importlib.import_module("repro.cli")
        if alter_argv:
            sys.argv[0] = module.__file__
        raise SystemExit(module.main())

    return wrapper


def install(trace_dir: str | None, dump_at_exit: bool = True) -> None:
    """Patch already-imported ``repro`` modules, hook future imports, and
    (with ``dump_at_exit``) write the spans to ``trace_dir`` at exit."""
    global _main_stack, _launch
    launch = os.environ.pop("E2E_LAUNCH_T", None)
    if launch:
        _launch = float(launch)
    if threading.current_thread() is threading.main_thread():
        _main_stack = _stack()
    loaded = [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]
    for module in loaded:
        _define_wrappers(module)
    for module in loaded:
        _rebind_imports(module)
    if not any(isinstance(f, _PatchingFinder) for f in sys.meta_path):
        sys.meta_path.insert(0, _PatchingFinder())
        import runpy

        runpy._run_module_as_main = _run_cli_as_main(runpy._run_module_as_main)
    if dump_at_exit and trace_dir:
        atexit.register(dump, trace_dir)


def reset() -> None:
    """Forget every span recorded so far."""
    del _SPANS[:]


def records() -> tuple[dict, list[list]]:
    """``(header, spans)`` in the on-disk layout, without touching disk."""
    ids = {id(span): index for index, span in enumerate(_SPANS)}
    rows = []
    for index, span in enumerate(list(_SPANS)):
        name, start, end, parent, tid, session, attrs = span
        if session is None:  # inherit the session of the enclosing span
            up = parent
            while up is not None and session is None:
                session, up = up[5], up[3]
        rows.append(
            [index, name, start, end, ids.get(id(parent)) if parent else None, tid, session, attrs]
        )
    header = {
        "pid": os.getpid(),
        "argv": sys.argv,
        "launch": _launch,
        "threads": {str(k): v for k, v in _THREADS.items()},
        "dump_start": _now(),
    }
    return header, rows


def dump(trace_dir: str) -> None:
    header, rows = records()
    path = os.path.join(trace_dir, f"{os.getpid()}.jsonl")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    os.replace(path + ".tmp", path)

"""Session-affine accept-loop router for the worker fleet.

One :class:`SessionRouter` fronts N :class:`~repro.service.ProfilingDaemon`
worker processes.  Clients dial the router as if it were the daemon;
the router reads the first frame of each connection and either

- **answers it itself** — STATS and SNAPSHOT are observability
  queries: STATS fans out to every worker and returns the aggregated
  view, and a SNAPSHOT is fetched from the shard that owns its session
  (this is what makes ``dsspy sessions ROUTER_ADDR`` and the fleet
  coordinator work against a single address), or
- **routes the connection** — a HELLO is pinned to the worker chosen
  by :func:`shard_for` over its session id, after which the router is
  a dumb byte pump in both directions until either side hangs up.

Hashing the *session id* (not the connection) is what gives the fleet
its sharding invariant: a client that reconnects to resume lands on
the worker that holds its session state, journal, and engine.  A HELLO
that carries no session id is assigned one by the router — the frame
is rewritten before forwarding, so the id the worker sees, the id the
client learns from its ACK, and the id the hash routed on are all the
same string.

The router deliberately terminates no protocol state: workers keep
their own sessions, journals, and admission ladders.  If the chosen
worker is down (e.g. between a crash and its supervised restart) the
router answers the HELLO with an ERROR frame; the client's reconnect
backoff retries and lands on the restarted worker.
"""

from __future__ import annotations

import hashlib
import socket
import threading
from typing import Any, Sequence

from .protocol import (
    MessageType,
    ProtocolError,
    decode_json,
    encode_json,
    recv_frame,
    snapshot_session,
)


def shard_for(session_id: str, n_workers: int) -> int:
    """Stable worker index for a session id.

    sha1 rather than ``hash()``: the assignment must agree across
    processes and interpreter runs (PYTHONHASHSEED randomizes ``str``
    hashing), because the supervisor rebalances on-disk session
    directories with the same function the router routes live
    connections with.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    digest = hashlib.sha1(session_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_workers


def gather_snapshots(
    addresses: Sequence[str], timeout: float, session: str | None = None
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """SNAPSHOT every session (or just ``session``) of every address,
    one session per reply: the fan-out behind the fleet coordinator and
    ``dsspy whatif --address``.

    Each address's STATS lists its sessions, then each is fetched on
    its own, so no frame holds more than one session's engine.  A
    snapshot is tagged with the ``worker`` its STATS row names (a
    router's rows carry one), else with its address's index.  An
    unreachable address, a failed fetch and a worker a router's STATS
    reports down each become an error ``{worker, address, error}``.
    """
    from .client import fetch_snapshot, fetch_stats

    snapshots: list[dict[str, Any]] = []
    errors: list[dict[str, Any]] = []
    for index, address in enumerate(addresses):
        try:
            stats = fetch_stats(address, timeout=timeout)
        except (OSError, ProtocolError) as exc:
            errors.append({"worker": index, "address": address, "error": str(exc)})
            continue
        errors.extend(
            {key: row[key] for key in ("worker", "address", "error")}
            for row in stats.get("workers", ())
            if "error" in row
        )
        for row in stats["sessions"]:
            if session is not None and row["session"] != session:
                continue
            worker = row.get("worker", index)
            try:
                reply = fetch_snapshot(address, session=row["session"], timeout=timeout)
            except (OSError, ProtocolError) as exc:
                errors.append({"worker": worker, "address": address, "error": str(exc)})
                continue
            for snap in reply["snapshots"]:
                snap.setdefault("worker", worker)
                snapshots.append(snap)
    return snapshots, errors


class SessionRouter:
    """Accept-loop front for a fixed-size worker fleet.

    ``workers`` is a list of dialable ``host:port`` addresses, indexed
    by shard number.  The list is mutable through :meth:`set_worker` —
    the supervisor updates an entry when it restarts a crashed worker
    (the address normally stays the same, since restarts reuse the
    port, but the hook keeps the router correct if it ever cannot).
    """

    def __init__(
        self,
        workers: list[str],
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = 5.0,
    ) -> None:
        if not workers:
            raise ValueError("a router needs at least one worker address")
        self._workers = list(workers)
        self._workers_lock = threading.Lock()
        self._draining: set[int] = set()
        self.drain_refusals = 0  # HELLOs turned away from draining shards
        self.drain_retry_after = 0.5
        #: Workers cycled through an upgrade — maintained by the
        #: supervisor so wire STATS readers (``dsspy fleet upgrade
        #: --address``) can watch a rolling upgrade converge.
        self.upgrades = 0
        self._connect_timeout = connect_timeout
        self._closed = False
        self._close_lock = threading.Lock()
        self._conns: dict[int, socket.socket] = {}
        self._conns_lock = threading.Lock()
        self.routed = 0  # connections pinned to a worker (stats counter)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._listener.listen(128)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dsspy-router-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def workers(self) -> list[str]:
        with self._workers_lock:
            return list(self._workers)

    def set_worker(self, index: int, address: str) -> None:
        with self._workers_lock:
            self._workers[index] = address

    def set_draining(self, index: int, draining: bool) -> None:
        """Mark one shard as draining for a rolling upgrade.

        While marked, new HELLOs hashing to that shard are answered
        with RETRY_AFTER instead of being routed — clients back off
        and land after the respawned worker is serving again.
        Connections already pumped are left alone; the worker's own
        drain quiesces them."""
        with self._workers_lock:
            if draining:
                self._draining.add(index)
            else:
                self._draining.discard(index)

    def worker_for(self, session_id: str) -> str:
        with self._workers_lock:
            return self._workers[shard_for(session_id, len(self._workers))]

    def _drain_check(self, session_id: str) -> bool:
        with self._workers_lock:
            return shard_for(session_id, len(self._workers)) in self._draining

    # -- accept / dispatch -----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._handle,
                args=(conn,),
                name="dsspy-router-conn",
                daemon=True,
            )
            thread.start()

    def _handle(self, conn: socket.socket) -> None:
        key = id(conn)
        with self._conns_lock:
            self._conns[key] = conn
        upstream: socket.socket | None = None
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    return  # clean EOF before (or between) queries
                mtype, payload = frame
                if mtype == MessageType.STATS:
                    conn.sendall(encode_json(MessageType.ACK, self.stats()))
                elif mtype == MessageType.SNAPSHOT:
                    conn.sendall(
                        encode_json(
                            MessageType.ACK,
                            self.snapshot(snapshot_session(decode_json(payload))),
                        )
                    )
                elif mtype == MessageType.HELLO:
                    upstream = self._route(conn, payload)
                    return  # _route pumped until EOF (or failed and replied)
                else:
                    raise ProtocolError(
                        f"{MessageType.name(mtype)} before HELLO"
                    )
        except ProtocolError as exc:
            try:
                conn.sendall(encode_json(MessageType.ERROR, {"error": str(exc)}))
            except OSError:
                pass
        except OSError:
            pass
        finally:
            with self._conns_lock:
                self._conns.pop(key, None)
            for sock in (conn, upstream):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def _route(
        self, conn: socket.socket, hello_payload: bytes
    ) -> socket.socket | None:
        """Pin ``conn`` to its session's worker and pump bytes until
        either side closes.  Returns the upstream socket (for cleanup)
        or ``None`` when the worker was unreachable."""
        obj = decode_json(hello_payload)
        session_id = obj.get("session")
        if session_id is None:
            # Assign the id here so the hash, the worker, and the
            # client all agree on it; the worker honors a caller-chosen
            # id, so rewriting the HELLO is transparent to it.
            import uuid

            session_id = uuid.uuid4().hex[:12]
            obj["session"] = session_id
        elif not isinstance(session_id, str):
            raise ProtocolError("HELLO 'session' must be a string")
        if self._drain_check(session_id):
            # The shard is mid-upgrade: refuse with the same contract
            # the admission ladder uses, so the client's existing
            # backoff machinery handles the deploy for free.
            self.drain_refusals += 1
            try:
                conn.sendall(
                    encode_json(
                        MessageType.RETRY_AFTER,
                        {"retry_after": self.drain_retry_after},
                    )
                )
            except OSError:
                pass
            return None
        address = self.worker_for(session_id)
        try:
            upstream = _dial(address, self._connect_timeout)
        except OSError as exc:
            try:
                conn.sendall(
                    encode_json(
                        MessageType.ERROR,
                        {"error": f"worker {address} unreachable: {exc}"},
                    )
                )
            except OSError:
                pass
            return None
        self.routed += 1
        upstream.sendall(encode_json(MessageType.HELLO, obj))
        # From here on the router adds nothing: splice raw bytes both
        # ways.  The reverse pump runs on its own thread; this thread
        # pumps client -> worker and joins on EOF either way.
        done = threading.Event()
        reverse = threading.Thread(
            target=_pump,
            args=(upstream, conn, done),
            name="dsspy-router-pump",
            daemon=True,
        )
        reverse.start()
        _pump(conn, upstream, done)
        reverse.join(timeout=5.0)
        return upstream

    # -- aggregated observability ----------------------------------------

    def stats(self) -> dict[str, Any]:
        """Fleet-wide STATS: per-worker summaries + concatenated
        session list, shaped like a single daemon's reply so existing
        consumers (``dsspy sessions``) render it unchanged."""
        from .client import fetch_stats

        sessions: list[dict[str, Any]] = []
        worker_rows: list[dict[str, Any]] = []
        for index, address in enumerate(self.workers()):
            row: dict[str, Any] = {"worker": index, "address": address}
            try:
                stats = fetch_stats(address, timeout=self._connect_timeout)
            except (OSError, ProtocolError) as exc:
                row["error"] = str(exc)
            else:
                row["sessions"] = len(stats["sessions"])
                row["recovered_sessions"] = stats.get("recovered_sessions", [])
                row["build"] = stats.get("build")
                row["frames_skipped"] = stats.get("frames_skipped", 0)
                governor = stats.get("admission", {}).get("governor", {})
                row["pressure"] = governor.get("pressure_stage")
                for entry in stats["sessions"]:
                    entry["worker"] = index
                    sessions.append(entry)
            with self._workers_lock:
                row["draining"] = index in self._draining
            worker_rows.append(row)
        return {
            "address": self.address,
            "fleet": True,
            "routed_connections": self.routed,
            "drain_refusals": self.drain_refusals,
            "upgrades": self.upgrades,
            "workers": worker_rows,
            "sessions": sessions,
        }

    def snapshot(self, session_id: str) -> dict[str, Any]:
        """One session's SNAPSHOT, fetched from the shard that owns it,
        in a reply shaped like a single daemon's."""
        from .client import fetch_snapshot

        out = fetch_snapshot(
            self.worker_for(session_id), session_id, timeout=self._connect_timeout
        )
        out["address"] = self.address
        return out

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        with self._conns_lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def __enter__(self) -> "SessionRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _dial(address: str, timeout: float) -> socket.socket:
    from .client import parse_address

    family, connect_arg = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(connect_arg)
    sock.settimeout(None)
    return sock


def _pump(src: socket.socket, dst: socket.socket, done: threading.Event) -> None:
    """Copy bytes ``src`` -> ``dst`` until EOF or error, then signal the
    peer pump by shutting both sockets down (recv unblocks with EOF)."""
    try:
        while not done.is_set():
            data = src.recv(65536)
            if not data:
                break
            dst.sendall(data)
    except OSError:
        pass
    finally:
        done.set()
        for sock in (src, dst):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

"""The Postgres wire-protocol listener.

:class:`PGWireServer` binds a port any PostgreSQL v3 client can speak
to and runs one :class:`~repro.pg.session.PGSession` coroutine per
accepted connection on the shared asyncio core
(:class:`~repro.net.aio.IOLoop`). It can host an engine by itself
(``drive_scheduler=True`` starts the scheduler thread the framed
server runs, :class:`repro.core.live.ServingLoop`) or ride next to a
:class:`~repro.net.server.DataCellServer` on one loop and one engine —
``repro serve --pg-port`` does exactly that, with the framed server
driving the scheduler.

CancelRequest support: each session gets a (pid, secret) key pair at
startup (``BackendKeyData``); a second connection carrying
``CancelRequest`` with a matching pair sets the session's cancel
event, which interrupts a running ``TAIL``.

Typical use::

    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    with PGWireServer(engine, drive_scheduler=True) as server:
        ...  # psql -h server.host -p server.port
"""

from __future__ import annotations

import asyncio
import random
import threading
from typing import Any, Dict, List, Optional

from repro.core.clock import WallClock
from repro.core.emitter import SERVED_MAX_BATCHES
from repro.core.engine import DataCellEngine
from repro.core.live import ServingLoop
from repro.errors import NetError, StreamError
from repro.net.aio import IOLoop
from repro.pg.session import PGSession


class PGWireServer:
    """Hosts one engine behind a Postgres-speaking listen socket."""

    def __init__(self, engine: Optional[DataCellEngine] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_client_queue: int = 256,
                 drive_scheduler: bool = False,
                 io_loop: Optional[IOLoop] = None):
        """``port=0`` binds an ephemeral port (read :attr:`port` after
        :meth:`start`; the conventional choice is 5433 to stay clear
        of a real Postgres on 5432). ``max_client_queue`` bounds each
        ``TAIL``'s delivery queue, exactly like the framed server's
        subscriber queues. ``drive_scheduler`` starts a scheduler
        thread stepping the engine — leave it off when a
        :class:`~repro.net.server.DataCellServer` on the same engine
        already drives one. ``io_loop`` shares an existing
        :class:`~repro.net.aio.IOLoop`; by default the server runs its
        own."""
        if engine is None:
            engine = DataCellEngine(clock=WallClock())
        if not isinstance(engine.clock, WallClock):
            raise StreamError("PGWireServer needs an engine on a "
                              "WallClock")
        self.engine = engine
        self.host = host
        self.port = port
        self.max_client_queue = max_client_queue
        self.drive_scheduler = drive_scheduler
        self.io = io_loop if io_loop is not None else IOLoop()
        # serializes pg statements against each other (engine calls
        # run on worker threads; see PGSession._exec_engine)
        self.exec_lock = threading.Lock()
        self._aio_server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[ServingLoop] = None
        self._lock = threading.Lock()
        self._sessions: List[PGSession] = []
        self._cancel_keys: Dict[tuple, PGSession] = {}
        # counters folded in from closed sessions, so aggregate stats
        # survive disconnects (mirrors the framed server's totals)
        self._totals = {"queries": 0, "rows_sent": 0, "tails": 0,
                        "errors": 0}
        self._session_counter = 0
        self._rng = random.Random()
        self.connections_total = 0
        self.cancels = 0
        self.running = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "PGWireServer":
        if self.running:
            raise StreamError("server already started")
        if self.engine.net_edge is None:
            # no framed server to size the built-in result sinks
            self.engine.bound_result_sinks(SERVED_MAX_BATCHES)
        self.io.acquire()
        try:
            self._aio_server = self.io.call(self._open_listener())
        except Exception:
            self.io.release()
            raise
        sockname = self._aio_server.sockets[0].getsockname()
        self.host, self.port = sockname[:2]
        self.engine.pg_edge = self
        self.running = True
        if self.drive_scheduler:
            self._loop = ServingLoop(self.engine, "datacell-pg-scheduler")
        return self

    async def _open_listener(self) -> asyncio.AbstractServer:
        return await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port,
            backlog=512, reuse_address=True)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Stop accepting, drain the net (when driving the scheduler),
        close every session, release the loop (idempotent)."""
        if not self.running:
            return
        self.running = False
        if self._aio_server is not None:
            server = self._aio_server
            self._aio_server = None
            try:
                self.io.call(_close_listener(server), timeout_s)
            except Exception:
                pass
        if self._loop is not None:
            self._loop.stop(timeout_s)  # its drain fires what is enabled
            self._loop = None
        for session in self._snapshot_sessions():
            try:
                self.io.call(self._close_session(session), timeout_s)
            except Exception:
                pass
        if self.engine.pg_edge is self:
            self.engine.pg_edge = None
        self.io.release(timeout_s)

    def __enter__(self) -> "PGWireServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- connections (coroutines on the I/O loop) ----------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        if not self.running:
            writer.close()
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                import socket as _socket
                sock.setsockopt(_socket.IPPROTO_TCP,
                                _socket.TCP_NODELAY, 1)
            except OSError:
                pass
        with self._lock:
            self._session_counter += 1
            session = PGSession(self, reader, writer,
                                self._session_counter,
                                self._rng.getrandbits(31))
            self._sessions.append(session)
            self._cancel_keys[(session.cid, session.secret)] = session
            self.connections_total += 1
        session.task = asyncio.current_task()
        try:
            await session.run()
        except NetError:
            pass  # peer vanished or spoke garbage; drop the session
        except asyncio.CancelledError:
            # teardown cancelled the conversation; end normally —
            # asyncio's streams done-callback calls task.exception(),
            # which throws on a task left in the cancelled state
            pass
        finally:
            await self._close_session(session)

    async def _close_session(self, session: PGSession) -> None:
        with self._lock:
            if session.closed:
                return
            session.closed = True
            self._sessions = [s for s in self._sessions
                              if s is not session]
            self._cancel_keys.pop((session.cid, session.secret), None)
            for key in self._totals:
                self._totals[key] += getattr(session, key)
        try:
            session.writer.close()
        except Exception:
            pass
        # join the conversation task so nothing is torn down mid-await
        # when the loop later stops (no-op on the self-close path)
        task = session.task
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            await asyncio.wait({task}, timeout=2.0)

    def cancel_request(self, pid: int, secret: int) -> None:
        """Handle a CancelRequest connection's key pair: wake the
        matching session's cancel event (unknown keys are ignored, as
        in Postgres)."""
        with self._lock:
            session = self._cancel_keys.get((pid, secret))
        if session is not None:
            self.cancels += 1
            session.cancel()

    # -- inspection ----------------------------------------------------

    def _snapshot_sessions(self) -> List[PGSession]:
        with self._lock:
            return list(self._sessions)

    def pg_stats(self) -> Dict[str, Any]:
        """Per-session and aggregate counters (the ``"pg"`` section of
        :meth:`DataCellEngine.network_stats`)."""
        with self._lock:
            entries = [s.stats() for s in self._sessions]
            totals = dict(self._totals)
        return {"address": f"{self.host}:{self.port}",
                "running": self.running,
                "connections_total": self.connections_total,
                "cancels": self.cancels,
                "queries": totals["queries"]
                + sum(e["queries"] for e in entries),
                "rows_sent": totals["rows_sent"]
                + sum(e["rows_sent"] for e in entries),
                "tails": totals["tails"]
                + sum(e["tails"] for e in entries),
                "errors": totals["errors"]
                + sum(e["errors"] for e in entries),
                "sessions": entries}

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (f"PGWireServer({self.host}:{self.port}, {state}, "
                f"sessions={len(self._sessions)})")


async def _close_listener(server: asyncio.AbstractServer) -> None:
    server.close()
    await server.wait_closed()

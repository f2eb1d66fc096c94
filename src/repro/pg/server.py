"""The Postgres wire protocol, mounted on the one host.

:class:`PGFrontEnd` is what :class:`~repro.net.server.DataCellServer`
mounts on its second listener when it is given a ``pg_port``: it runs
one :class:`~repro.pg.session.PGSession` coroutine per accepted
connection on the host's I/O loop, keeps the cancel-key registry and
counts what the sessions did (:meth:`PGFrontEnd.pg_stats`, the
``"pg"`` section of ``STATS``). It has no listener, loop or thread of
its own; every engine statement a session runs is handed to the host's
serving loop (:meth:`DataCellServer.submit`).

CancelRequest support: each session gets a (pid, secret) key pair at
startup (``BackendKeyData``); a second connection carrying
``CancelRequest`` with a matching pair sets the session's cancel
event, which interrupts a running ``TAIL``.

Typical use::

    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    with DataCellServer(engine, pg_port=5433) as server:
        ...  # psql -h server.pg_host -p server.pg_port
"""

from __future__ import annotations

import asyncio
import random
import threading
from typing import Any, Dict, List

from repro.errors import NetError
from repro.pg.session import PGSession


class PGFrontEnd:
    """The pg protocol's connection handler on a host's listener."""

    def __init__(self, server):
        self.server = server          # the DataCellServer mounting us
        self._lock = threading.Lock()
        self._sessions: List[PGSession] = []
        self._cancel_keys: Dict[tuple, PGSession] = {}
        # counters folded in from closed sessions, so aggregate stats
        # survive disconnects (mirrors the framed side's totals)
        self._totals = {"queries": 0, "rows_sent": 0, "tails": 0,
                        "errors": 0}
        self._session_counter = 0
        self._rng = random.Random()
        self.connections_total = 0
        self.cancels = 0

    # -- connections (coroutines on the I/O loop) ----------------------

    async def on_connection(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
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
            await self.close_session(session)

    async def close_session(self, session: PGSession) -> None:
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

    def sessions(self) -> List[PGSession]:
        with self._lock:
            return list(self._sessions)

    def pg_stats(self) -> Dict[str, Any]:
        """Per-session and aggregate counters (the ``"pg"`` section of
        :meth:`DataCellEngine.network_stats`)."""
        with self._lock:
            entries = [s.stats() for s in self._sessions]
            totals = dict(self._totals)
        server = self.server
        return {"address": f"{server.pg_host}:{server.pg_port}",
                "running": server.running,
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
        return (f"PGFrontEnd({self.server.pg_host}:{self.server.pg_port}, "
                f"sessions={len(self._sessions)})")

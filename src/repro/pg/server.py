"""The Postgres wire protocol in its own process: the pg edge.

When :class:`~repro.net.server.DataCellServer` is given a ``pg_port``,
:meth:`PGEdge.start` binds the pg listener and forks one *edge*
process before the host starts a thread, so the edge starts with every
module imported. The edge runs its own asyncio loop: the listener, one
:class:`~repro.pg.session.PGSession` coroutine per connection, the
cancel keys, statement parsing and ``DataRow`` encoding. The engine
process keeps the serving loop — still the one thread that mutates the
engine — the catalog, the recycler and the framed edge. The two halves
run on two cores, where before they shared one interpreter lock.

One channel joins them, a ``socketpair`` carrying length-prefixed
pickles, and the serving loop waits on it beside its wake: every
request is read, run and answered on that one thread. The edge sends
``(rid, op, args, stats)``: ``run`` or ``describe`` a classified
statement; ``follow``, ``next`` or ``untail`` a ``TAIL``'s cursor;
``bye`` when a session closes. ``stats`` is the sender's counters, from
which the host builds ``STATS``'s ``"pg"`` section without waiting on
the edge. The host answers ``(rid, ok, value)``, a relation as column
buffers (:func:`~repro.pg.session.columns_of`); rid 0 carries
``"quiesce"`` (stop accepting), ``"shutdown"`` (the serving loop has
stopped: every statement gets 57P01) and ``"stop"``.

A ``TAIL``'s :class:`~repro.core.emitter.Follower` stays in the host
and advances only on the edge's ``next``, sent once the edge has
written the last batch. A client that stops reading stops the
requests, so its follower lags and, more than ``max_client_queue``
batches behind, is evicted (SQLSTATE 55000), as a framed subscriber is.

The edge exits when the channel reaches EOF (the host died). When the
edge dies, the host closes its pg side and goes on serving framed
clients.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import pickle
import random
import signal
import socket
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NetError
from repro.mal.relation import Relation
from repro.pg.session import (SHUTDOWN, PGSession, columns_of,
                              sqlstate_for)
from repro.sql import ast
from repro.sql.optimizer import Optimizer
from repro.sql.planner import Planner
from repro.storage import types as dt

_LEN = struct.Struct("!I")
_COUNTERS = ("queries", "rows_sent", "tails", "errors")
# the requests answered as soon as they are read, and who answers them
_ANSWERED = {"run": "_run", "describe": "_describe", "follow": "_follow",
             "untail": "_untail"}


def _frame(obj: Any) -> bytes:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _LEN.pack(len(data)) + data


async def _read(reader: asyncio.StreamReader) -> Any:
    """The channel's next message; ``IncompleteReadError`` at EOF."""
    (length,) = _LEN.unpack(await reader.readexactly(4))
    return pickle.loads(await reader.readexactly(length))


class PGEdge:
    """The engine process's side of the pg edge: the child, the
    channel, the tails' followers and the counters the edge pushed.

    The serving loop watches the channel: it reads each request, runs
    it and answers it on its own thread, between steps. A reply never
    blocks: what the socket does not take waits in an outbox that the
    loop drains once the socket is writable. When the loop stops, the
    thread stopping the host takes the channel over."""

    def __init__(self, server):
        self.server = server      # the DataCellServer hosting us
        self.pid: Optional[int] = None
        self._process = None
        self._sock: Optional[socket.socket] = None
        self._loop = None         # the serving loop watching the channel
        self._inbox = bytearray()
        self._chunk = memoryview(bytearray(1 << 16))
        self._outbox = bytearray()
        # each TAIL's cursor, and the rid of its waiting ``next``
        self._tails: Dict[int, Any] = {}
        self._demand: Dict[int, int] = {}
        self._tail_ids = 0
        # (open sessions by id, totals of the closed ones): a close
        # swaps both at once, so a reader on another thread needs no lock
        self._counters = ({}, dict.fromkeys(_COUNTERS, 0))
        self.connections_total = 0
        self.cancels = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Bind the listener and fork the edge. Call before the host
        starts a thread: the child keeps only the calling one."""
        server = self.server
        family = socket.getaddrinfo(server.pg_host, server.pg_port,
                                    type=socket.SOCK_STREAM,
                                    flags=socket.AI_PASSIVE)[0][0]
        listener = socket.create_server((server.pg_host, server.pg_port),
                                        family=family, backlog=512)
        server.pg_host, server.pg_port = listener.getsockname()[:2]
        host_end, edge_end = socket.socketpair()
        # a daemon: an interpreter that exits without stop() ends it
        self._process = multiprocessing.get_context("fork").Process(
            target=_edge_main, args=(listener, edge_end),
            name="datacell-pg-edge", daemon=True)
        self._process.start()
        listener.close()
        edge_end.close()
        host_end.setblocking(False)
        self.pid = self._process.pid
        self._sock = host_end

    def attach(self, loop) -> None:
        """Have *loop*, the serving loop, read the channel (on it)."""
        self._loop = loop
        loop.watch(self._sock, self._on_readable)

    def detach(self) -> None:
        """The serving loop's last act: tell the edge that the engine
        runs no more statements (57P01 for each). The thread stopping
        the host writes the channel from here, blocking briefly."""
        if self._sock is not None:
            outbox, self._outbox = self._outbox, bytearray()
            self._sock.settimeout(1.0)
            try:
                self._sock.sendall(outbox + _frame((0, True, "shutdown")))
            except OSError:
                pass  # the edge is gone or stuck; stop() reaps it

    def quiesce(self) -> None:
        """Stop accepting pg connections (open ones carry on)."""
        self._send((0, True, "quiesce"))

    def stop(self, timeout_s: float = 5.0) -> None:
        """End every session — a tail first writes the batch it holds —
        then wait for the edge to exit, reap it and close the channel.
        Any thread: the channel is touched on the serving loop while it
        runs (see :meth:`ServingLoop.call`)."""
        self._loop.call(self._send, (0, True, "stop"))
        self._process.join(timeout_s)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._process.close()
        self._loop.call(self._release)

    def _release(self) -> None:
        """Close the channel and release every follower."""
        sock, self._sock = self._sock, None
        tails, self._tails, self._demand = self._tails, {}, {}
        for follower in tails.values():
            follower.close()
        if sock is not None:
            self._loop.watch(sock)
            sock.close()

    # -- the channel (serving loop) ------------------------------------

    def _on_readable(self) -> None:
        """Run every whole request the socket holds."""
        try:
            size = self._sock.recv_into(self._chunk)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            size = 0
        if not size:  # the edge stopped, or died: carry on framed-only
            self._release()
            return
        inbox = self._inbox
        inbox += self._chunk[:size]
        pos, end = 0, len(inbox)
        while end - pos >= 4:
            (length,) = _LEN.unpack_from(inbox, pos)
            if end - pos - 4 < length:
                break
            rid, op, args, stats = pickle.loads(
                inbox[pos + 4:pos + 4 + length])
            pos += 4 + length
            # noted first: the reply may reach a client that then reads
            # the counters
            self._note(stats, closed=op == "bye")
            if op == "next":  # answered once there is a batch
                self._next(rid, args[0])
            elif op in _ANSWERED:
                self._answer(rid, getattr(self, _ANSWERED[op]), args[0])
        del inbox[:pos]

    def _send(self, message: Tuple) -> None:
        """Send *message* to the edge without blocking."""
        sock = self._sock
        if sock is None:
            return
        data = _frame(message)
        if not self._outbox:
            try:
                data = data[sock.send(data):]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                return  # the reader sees the EOF
            if not data:
                return
            self._loop.watch(sock, self._on_readable, self._drain_outbox)
        self._outbox += data

    def _drain_outbox(self) -> None:
        sock = self._sock
        if sock is None:
            return
        try:
            sent = sock.send(self._outbox)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            sent = len(self._outbox)  # the reader sees the EOF
        del self._outbox[:sent]
        if not self._outbox:
            self._loop.watch(sock, self._on_readable)

    def _answer(self, rid: int, fn, arg) -> None:
        """Answer *rid* with ``fn(arg)``, or with the error that running
        it, or pickling its value, raised."""
        try:
            return self._send((rid, True, fn(arg)))
        except Exception as exc:
            self._send((rid, False, (sqlstate_for(exc), str(exc))))

    def _follow(self, name: str) -> Tuple[int, List[Tuple[str, Any]]]:
        query = self.server.engine.continuous_query(name)
        self._tail_ids += 1
        tid = self._tail_ids
        # a delivery pumps on the serving loop that made it
        self._tails[tid] = query.emitter.queue.follow(
            lambda: self._pump(tid))
        schema = query.plan.schema
        return tid, list(zip(schema.names, schema.types))

    def _next(self, rid: int, tid: int) -> None:
        if tid not in self._tails:
            return self._send((rid, False, ("55000", "the tail is closed")))
        self._demand[tid] = rid
        self._pump(tid)

    def _pump(self, tid: int) -> None:
        """Answer the tail's waiting ``next`` once there is a batch, or
        once it is evicted and flushed."""
        rid = self._demand.get(tid)
        if rid is None:
            return
        follower = self._tails[tid]
        item = follower.next()
        if item is not None:
            del self._demand[tid]
            self._send((rid, True, ("batch", columns_of(item[2]))))
        elif follower.evicted:
            del self._demand[tid]
            self._send((rid, True, ("evicted",
                                    follower.queue.max_batches)))

    def _untail(self, tid: int) -> None:
        self._demand.pop(tid, None)
        follower = self._tails.pop(tid, None)
        if follower is not None:
            follower.close()

    def tail_followers(self) -> List[Any]:
        return list(self._tails.values())

    # -- engine calls (serving loop) -----------------------------------

    def _run(self, command) -> Any:
        engine = self.server.engine
        if command.kind == "register":
            engine.register_continuous(command.query, command.name,
                                       command.mode)
            return None
        if command.kind == "unregister":
            engine.remove_query(command.name)
            return None
        if command.kind == "show":
            return _show_rows(engine, command.what)
        result = engine.execute_statement(command.stmt)
        if isinstance(result, Relation):
            return result.names, columns_of(result)
        return result

    def _describe(self, command
                  ) -> Optional[List[Tuple[str, dt.DataType]]]:
        """RowDescription columns without executing (``None`` = no
        result set)."""
        engine = self.server.engine
        if command.kind == "tail":
            schema = engine.continuous_query(command.name).plan.schema
            return list(zip(schema.names, schema.types))
        stmt = command.stmt
        if isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
            plan = Optimizer().optimize(Planner(engine.catalog).plan(stmt))
            return list(zip(plan.schema.names, plan.schema.types))
        if isinstance(stmt, ast.ExplainStmt):
            return [("QUERY PLAN", dt.STRING)]
        return None

    # -- counters ------------------------------------------------------

    def _note(self, stats: Tuple, closed: bool) -> None:
        self.connections_total, self.cancels, session = stats
        if session is None:
            return
        sessions, totals = self._counters
        if closed:
            self._counters = (
                {k: v for k, v in sessions.items() if k != session["id"]},
                {key: totals[key] + session[key] for key in _COUNTERS})
        else:
            sessions[session["id"]] = session

    def pg_stats(self) -> Dict[str, Any]:
        """Per-session and aggregate counters as the edge last pushed
        them (the ``"pg"`` section of
        :meth:`DataCellEngine.network_stats`)."""
        sessions, totals = self._counters
        entries = list(sessions.values())
        server = self.server
        out: Dict[str, Any] = {
            "address": f"{server.pg_host}:{server.pg_port}",
            "running": self._sock is not None and server.running,
            "pid": self.pid, "connections_total": self.connections_total,
            "cancels": self.cancels}
        for key in _COUNTERS:
            out[key] = totals[key] + sum(e[key] for e in entries)
        out["sessions"] = entries
        return out

    def __repr__(self) -> str:
        return (f"PGEdge({self.server.pg_host}:{self.server.pg_port}, "
                f"pid={self.pid}, sessions={len(self._counters[0])})")


def _show_rows(engine, what: str) -> List[tuple]:
    """The catalog rows ``SHOW`` reports (on the serving loop)."""
    if what == "streams":
        return [(stream.name,
                 ", ".join(f"{c.name} {c.dtype.name}"
                           for c in stream.schema.columns),
                 engine.basket(stream.name).next_oid)
                for stream in engine.catalog.streams()]
    return [(query.name, query.mode, query.sql_text)
            for query in engine.queries()]


# -- the edge process -------------------------------------------------------


def _edge_main(listener: socket.socket, channel: socket.socket) -> None:
    """The forked edge's whole life; ends in ``os._exit``, never
    returning into the caller's stack."""
    code = 1
    try:
        # Ctrl-C is the host's to handle; it stops us over the channel
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        # the host's objects are never collected here, so none of them
        # closes a descriptor number this process reuses
        gc.freeze()
        keep = {0, 1, 2, listener.fileno(), channel.fileno()}
        for fd in map(int, os.listdir("/proc/self/fd")):
            if fd not in keep:
                try:
                    os.close(fd)
                except OSError:
                    pass
        asyncio.run(_Edge(listener, channel).main())
        code = 0
    finally:
        os._exit(code)


class _Edge:
    """The edge process: pg sessions on one event loop, and the
    channel's client end."""

    def __init__(self, listener: socket.socket, channel: socket.socket):
        self._listener_sock = listener
        self._channel_sock = channel
        self._listener: Optional[asyncio.AbstractServer] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._rid = 0
        self._sessions: Dict[Tuple[int, int], PGSession] = {}
        self._session_ids = 0
        self._rng = random.Random()
        self.connections_total = 0
        self.cancels = 0
        self.stopping = False

    async def main(self) -> None:
        reader, self._writer = await asyncio.open_connection(
            sock=self._channel_sock)
        self._listener = await asyncio.start_server(
            self._accept, sock=self._listener_sock, backlog=512)
        try:
            while True:
                rid, ok, value = await _read(reader)
                if rid:
                    future = self._pending.pop(rid, None)
                    if future is not None and not future.done():
                        future.set_result((ok, value))
                elif value == "quiesce":
                    self._listener.close()
                elif value == "shutdown":
                    self._refuse()
                else:
                    await self._shutdown()
                    return
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            os._exit(0)  # the host is gone; the kernel closes sockets

    def _refuse(self) -> None:
        """The engine runs no more statements: each one waiting, and
        each one to come, gets 57P01; no connection is accepted."""
        self.stopping = True
        self._listener.close()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_result((False, SHUTDOWN))

    async def _shutdown(self) -> None:
        """Orderly stop: each statement still waiting gets 57P01, each
        tail writes the batch it holds, then every session ends."""
        self._refuse()
        deadline = time.monotonic() + 2.0
        while any(s.tailing for s in self._sessions.values()) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        tasks = [s.task for s in self._sessions.values()
                 if s.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)
        self._writer.close()

    # -- requests to the host ------------------------------------------

    def request(self, op: str, args: Tuple,
                session: PGSession) -> asyncio.Future:
        """Send *op* to the engine process; the future gets its reply
        as ``(ok, value)``."""
        future = asyncio.get_running_loop().create_future()
        if self.stopping:
            future.set_result((False, SHUTDOWN))
            return future
        self._rid += 1
        self._pending[self._rid] = future
        self._send(self._rid, op, args, session)
        return future

    def _send(self, rid: int, op: str, args: Tuple,
              session: PGSession) -> None:
        self._writer.write(_frame(
            (rid, op, args, (self.connections_total, self.cancels,
                             session.stats()))))

    # -- connections ---------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        if self.stopping:
            writer.close()
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self._session_ids += 1
        self.connections_total += 1
        session = PGSession(self, reader, writer, self._session_ids,
                            self._rng.getrandbits(31))
        key = (session.cid, session.secret)
        self._sessions[key] = session
        session.task = asyncio.current_task()
        try:
            await session.run()
        except NetError:
            pass  # peer vanished or spoke garbage; drop the session
        except asyncio.CancelledError:
            # shutdown cancelled the conversation; end normally —
            # asyncio's streams done-callback calls task.exception(),
            # which throws on a task left in the cancelled state
            pass
        finally:
            del self._sessions[key]
            self._send(0, "bye", (), session)
            writer.close()

    def cancel_request(self, pid: int, secret: int) -> None:
        """A CancelRequest's key pair: interrupt the matching session
        (unknown keys are ignored, as in Postgres)."""
        session = self._sessions.get((pid, secret))
        if session is not None:
            self.cancels += 1
            session.cancel()

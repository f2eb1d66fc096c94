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
pickles. The edge sends ``(rid, op, args, stats)``: ``run`` or
``describe`` a classified statement (on the serving loop); ``follow``,
``next`` or ``untail`` a ``TAIL``'s cursor (on the host's I/O loop);
``bye`` when a session closes. ``stats`` is the sender's counters, from
which the host builds ``STATS``'s ``"pg"`` section without waiting on
the edge. The host answers ``(rid, ok, value)``, a relation as column
buffers (:func:`~repro.pg.session.columns_of`); rid 0 carries
``"quiesce"`` (stop accepting) and ``"stop"``.

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
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DataCellError, NetError
from repro.mal.relation import Relation
from repro.pg.session import (SHUTDOWN, PGSession, columns_of,
                              sqlstate_for)
from repro.sql import ast
from repro.sql.optimizer import Optimizer
from repro.sql.planner import Planner
from repro.storage import types as dt

_LEN = struct.Struct("!I")
_COUNTERS = ("queries", "rows_sent", "tails", "errors")


def _frame(obj: Any) -> bytes:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _LEN.pack(len(data)) + data


async def _read(reader: asyncio.StreamReader) -> Any:
    """The channel's next message; ``IncompleteReadError`` at EOF."""
    (length,) = _LEN.unpack(await reader.readexactly(4))
    return pickle.loads(await reader.readexactly(length))


def _error_of(exc: BaseException) -> Tuple[str, str]:
    return sqlstate_for(exc), str(exc)


class _Tail:
    """The host half of one ``TAIL``: its cursor, and the rid of the
    edge's request for the next batch while one is waiting."""

    __slots__ = ("follower", "demand")

    def __init__(self):
        self.follower = None
        self.demand: Optional[int] = None


class PGEdge:
    """The engine process's side of the pg edge: the child, the
    channel, the tails' followers and the counters the edge pushed.

    The channel is read by a callback on the host's I/O loop. A reply is
    sent by the thread that has it — the serving loop for a statement
    it ran or a batch it delivered, else the I/O loop — and never
    blocks: what the socket does not take waits in an outbox that the
    I/O loop drains."""

    def __init__(self, server):
        self.server = server      # the DataCellServer hosting us
        self.pid: Optional[int] = None
        self._process = None
        self._sock: Optional[socket.socket] = None
        self._inbox = bytearray()
        self._chunk = memoryview(bytearray(1 << 16))
        self._outbox = bytearray()
        self._io_lock = threading.RLock()   # the socket and the tails
        self._tails: Dict[int, _Tail] = {}
        self._tail_ids = 0
        self._lock = threading.Lock()       # the counters
        self._sessions: Dict[int, Dict[str, Any]] = {}
        self._totals = dict.fromkeys(_COUNTERS, 0)
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

    def attach(self) -> None:
        """Start reading the channel on the host's I/O loop."""
        self.server.io.call(self._open())

    async def _open(self) -> None:
        asyncio.get_running_loop().add_reader(self._sock,
                                              self._on_readable)

    async def _close(self) -> None:
        self._release()

    def _release(self) -> None:
        """Close the channel (I/O loop) and release every follower."""
        with self._io_lock:
            sock, self._sock = self._sock, None
            tails, self._tails = self._tails, {}
        for tail in tails.values():
            tail.follower.close()
        if sock is not None:
            loop = asyncio.get_running_loop()
            loop.remove_reader(sock)
            loop.remove_writer(sock)
            sock.close()

    def quiesce(self) -> None:
        """Stop accepting pg connections (open ones carry on)."""
        self._send((0, True, "quiesce"))

    def stop(self, timeout_s: float = 5.0) -> None:
        """End every session — a tail first writes the batch it holds —
        then wait for the edge to exit, and reap it."""
        self._send((0, True, "stop"))
        self._process.join(timeout_s)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        try:
            self.server.io.call(self._close(), timeout_s)
        except Exception:
            pass  # the I/O loop is already gone

    # -- the channel ---------------------------------------------------

    def _on_readable(self) -> None:
        """Run every whole request the socket holds (I/O loop)."""
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
            if op == "run" or op == "describe":
                self._submit(rid, op, args[0])
            elif op == "follow":
                self._follow(rid, args[0])
            elif op == "next":
                self._next(rid, args[0])
            elif op == "untail":
                self._untail(rid, args[0])
            # after the op: a tail is counted once it follows
            self._note(stats, closed=op == "bye")
        del inbox[:pos]

    def _send(self, message: Tuple) -> None:
        """Send *message* to the edge without blocking (any thread)."""
        data = _frame(message)
        with self._io_lock:
            if self._sock is None:
                return
            if not self._outbox:
                try:
                    data = data[self._sock.send(data):]
                except (BlockingIOError, InterruptedError):
                    pass
                except OSError:
                    return  # the reader sees the EOF
                if not data:
                    return
                self.server.io.call_soon(self._want_write)
            self._outbox += data

    def _want_write(self) -> None:
        if self._sock is not None:
            asyncio.get_running_loop().add_writer(self._sock,
                                                  self._drain_outbox)

    def _drain_outbox(self) -> None:
        with self._io_lock:
            try:
                sent = self._sock.send(self._outbox)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                sent = len(self._outbox)  # the reader sees the EOF
            del self._outbox[:sent]
            if not self._outbox:
                asyncio.get_running_loop().remove_writer(self._sock)

    def _reply(self, rid: int, future) -> None:
        exc = future.exception()
        if exc is None:
            try:
                return self._send((rid, True, future.result()))
            except Exception as err:  # a result that cannot cross
                exc = err
        self._send((rid, False, _error_of(exc)))

    def _submit(self, rid: int, op: str, command) -> None:
        fn = self._run if op == "run" else self._describe
        try:
            future = self.server.submit(fn, command)
        except DataCellError as exc:
            self._send((rid, False, _error_of(exc)))
            return
        future.add_done_callback(lambda f: self._reply(rid, f))

    def _follow(self, rid: int, name: str) -> None:
        try:
            query = self.server.engine.continuous_query(name)
        except DataCellError as exc:
            self._send((rid, False, _error_of(exc)))
            return
        with self._io_lock:
            self._tail_ids += 1
            tid = self._tail_ids
            tail = self._tails[tid] = _Tail()
            # a delivery pumps on the serving loop that made it
            tail.follower = query.emitter.queue.follow(
                lambda: self._pump(tail))
        schema = query.plan.schema
        self._send((rid, True, (tid, list(zip(schema.names,
                                              schema.types)))))

    def _next(self, rid: int, tid: int) -> None:
        with self._io_lock:
            tail = self._tails.get(tid)
            if tail is not None:
                tail.demand = rid
                return self._pump(tail)
        self._send((rid, False, ("55000", "the tail is closed")))

    def _pump(self, tail: _Tail) -> None:
        """Answer the tail's request once there is a batch, or once
        it is evicted and flushed."""
        with self._io_lock:
            rid = tail.demand
            if rid is None:
                return
            follower = tail.follower
            item = follower.next()
            if item is not None:
                tail.demand = None
                self._send((rid, True, ("batch", columns_of(item[2]))))
            elif follower.evicted:
                tail.demand = None
                self._send((rid, True, ("evicted",
                                        follower.queue.max_batches)))

    def _untail(self, rid: int, tid: int) -> None:
        with self._io_lock:
            tail = self._tails.pop(tid, None)
            if tail is not None:
                tail.demand = None
                tail.follower.close()
        self._send((rid, True, None))

    def tail_followers(self) -> List[Any]:
        with self._io_lock:
            return [tail.follower for tail in self._tails.values()]

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
        connections_total, cancels, session = stats
        with self._lock:
            self.connections_total = connections_total
            self.cancels = cancels
            if closed:
                self._sessions.pop(session["id"], None)
                for key in _COUNTERS:
                    self._totals[key] += session[key]
            elif session is not None:
                self._sessions[session["id"]] = session

    def pg_stats(self) -> Dict[str, Any]:
        """Per-session and aggregate counters as the edge last pushed
        them (the ``"pg"`` section of
        :meth:`DataCellEngine.network_stats`)."""
        with self._lock:
            entries = list(self._sessions.values())
            totals = dict(self._totals)
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
                f"pid={self.pid}, sessions={len(self._sessions)})")


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
                else:
                    await self._shutdown()
                    return
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            os._exit(0)  # the host is gone; the kernel closes sockets

    async def _shutdown(self) -> None:
        """Orderly stop: each statement still waiting gets 57P01, each
        tail writes the batch it holds, then every session ends."""
        self.stopping = True
        self._listener.close()
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_result((False, SHUTDOWN))
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

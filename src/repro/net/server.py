"""A long-running DataCell server: the engine behind a socket.

The demo architecture runs "a set of separate processes per stream and
per client" at the engine's edges. :class:`DataCellServer` realizes
that boundary and is the one host of a served engine: one engine on a
wall clock, a scheduler thread running the serving loop
(:class:`repro.core.live.ServingLoop`: asleep until a producer's offer
or a submitted command wakes it, or a window timer falls due), one
:class:`~repro.core.receptor.SocketReceptor` per connected stream
producer, and one cursor + pump task per subscription. Given a
``pg_port`` it also serves PostgreSQL clients through a forked edge
process (:class:`~repro.pg.server.PGEdge`), which owns the pg listener
and sessions and reaches this engine over one channel.

One thread mutates the engine: the serving loop. It reads the pg
edge's channel itself, so a pg statement runs there in the wake-up that
read it; what the framed edge asks of the engine — registering a
producer, ``STATS`` — goes through :meth:`DataCellServer.submit` and
runs there between steps. Framed I/O runs on one asyncio core
(:class:`~repro.net.aio.IOLoop`): one event loop thread accepts framed
connections and runs a coroutine per connection plus a pump task per
subscription, so an idle subscriber costs a heap entry instead of a
thread. Both directions are woken across the thread boundary
(``engine.wake`` inbound, ``call_soon_threadsafe`` wakers outbound),
never polled. A served engine thus runs two threads: the serving loop
and the framed I/O loop.

Backpressure is explicit at both edges:

* **ingress** — each producer's receptor has a bounded admission queue;
  when baskets back up the producer either blocks (``admission=
  "block"``, backpressure rides the TCP connection) or gets a shed
  ERROR frame (``admission="shed"``), with shed/blocked counts in
  :meth:`net_stats` and the shell's ``.net`` pane;
* **egress** — each standing query has one result queue, bounded at
  ``max_client_queue`` batches, and every subscriber of either
  protocol is a cursor into it; a consumer that falls further behind
  is *evicted* (ERROR frame / SQLSTATE 55000, subscription torn down)
  rather than allowed to buffer the engine into the ground.

Typical use::

    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.register_continuous("SELECT k, v FROM s WHERE v > 0.5",
                               name="q")
    with DataCellServer(engine) as server:
        ...  # clients connect to server.host:server.port
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.core.live import ServingLoop, wait_until
from repro.core.receptor import SocketReceptor
from repro.errors import CatalogError, DataCellError, NetError, \
    StoreError, StreamError, TypeMismatchError
from repro.net import protocol
from repro.net.aio import IOLoop
from repro.pg.server import PGEdge

_TOTAL_KEYS = ("offered", "ingested", "shed", "blocked",
               "delivered_batches", "delivered_rows", "evicted")


class _StreamSubscription:
    """One subscriber of a connection: a cursor and the pump task that
    follows it, parked on an ``asyncio.Event`` while there is nothing
    to send (the scheduler thread's wake only hops onto the loop).

    A *query* subscriber is a :class:`~repro.core.emitter.Follower` of
    the query's one result queue, read on the loop: one RESULT frame
    per firing, ``seq`` = the batch's queue offset. One that falls
    more than ``max_client_queue`` batches behind is evicted: it
    flushes what it had not read, then an ``evicted`` ERROR frame.

    A *stream* subscriber owns a cursor into the stream's oid/offset
    space (``acked`` trails it by what the client has not confirmed;
    a reconnect resumes from its last delivered offset). The pump reads
    ``[cursor, head)`` through
    :meth:`~repro.core.engine.DataCellEngine.read_stream_range` — the
    durable log below the basket's retained prefix, memory above — so
    replay and live tuples splice without a gap or duplicate. A slow
    stream subscriber lags and later resumes; it is never evicted. A
    ``from`` offset below the log's retention floor lags to the floor:
    the rows passed over are counted in ``skipped_rows``.
    """

    def __init__(self, conn: "_Connection", engine: DataCellEngine,
                 io: IOLoop, *, query: Optional[str] = None,
                 stream: Optional[str] = None, start_offset: int = 0,
                 chunk_rows: int = 2048):
        self.conn = conn
        self.engine = engine
        self.query = query
        self.stream = stream
        self.sent_batches = 0
        self.sent_rows = 0
        self.dead = False
        self._stopping = False
        self._event = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        # one bound callable: the basket removes taps by identity
        self._wake = lambda *_: io.call_soon(self._event.set)
        if query is not None:
            # attached now, before the OK reply: nothing delivered
            # after the subscribe is missed
            self.follower = engine.results(query).follow(self._wake)
            self._read = self._read_query
            return
        self._read = self._read_stream
        self.basket = engine.basket(stream)
        self.cursor = self.acked = int(start_offset)
        self.replay_rows = 0  # rows sent from history
        self.resumes = 0      # catch-ups after falling behind
        self.chunk_rows = max(int(chunk_rows), 1)
        # tuples below this existed before we subscribed: replay
        self.replay_upto = self.basket.next_oid
        # rows requested but already discarded by retention: the
        # subscriber lagged to the floor instead of erroring out
        self.skipped_rows = 0
        self._behind = False

    def start(self) -> None:
        if self.stream is not None:
            self.basket.add_tap(self._wake)
        self._task = asyncio.get_running_loop().create_task(
            self._run())

    async def _run(self) -> None:
        try:
            while not self._stopping:
                # cleared before the read: a delivery after it sets it
                self._event.clear()
                frames = await self._read()
                if frames is None:
                    return
                if not frames:
                    await self._event.wait()
                for frame in frames:
                    await self.conn.send(frame)
        except NetError:
            return  # the peer is gone
        finally:
            self._detach()

    async def _read_query(self) -> Optional[List[Dict[str, Any]]]:
        """The next firing's RESULT frame; once evicted and flushed,
        the ERROR frame that ends the subscription."""
        follower = self.follower
        item = follower.next()
        if item is not None:
            offset, now, rel = item
            self.sent_batches += 1
            self.sent_rows += rel.row_count
            return [protocol.result(self.query, offset, now, rel.names,
                                    rel.to_rows())]
        if not follower.evicted:
            return []
        self._stopping = True
        return [protocol.error(
            "evicted", f"subscriber too slow for query {self.query!r}; "
            f"fell more than {follower.queue.max_batches} batches "
            f"behind", query=self.query)]

    async def _read_stream(self) -> Optional[List[Dict[str, Any]]]:
        """RESULT frames for the next chunk of ``[cursor, head)`` that
        the log still holds (``[]`` at the head); ``None`` when the
        stream was dropped under us."""
        frames: List[Dict[str, Any]] = []
        while not frames and self.cursor < self.basket.next_oid:
            lo, head = self.cursor, self.basket.next_oid
            if head - lo > self.chunk_rows:
                self._behind = True
            hi = min(head, lo + self.chunk_rows)
            try:
                # log reads can touch disk; keep the loop live
                parts = await asyncio.get_running_loop().run_in_executor(
                    None, self.engine.read_stream_range, self.stream,
                    lo, hi)
            except DataCellError:
                return None
            # rows below the first part predate what the log retains
            skipped_to = parts[0][0] if parts else hi
            self.skipped_rows += skipped_to - lo
            self.cursor = skipped_to
            for plo, phi, rel in parts:
                replay = phi <= self.replay_upto
                frames.append(protocol.result(
                    "", self.sent_batches, self.engine.now(), rel.names,
                    rel.to_rows(), stream=self.stream, offset=plo,
                    end=phi, replay=replay))
                # advance BEFORE send: the client may ack the batch
                # before this task runs again, and a cursor behind the
                # delivery would clamp that ack away
                self.cursor = phi
                self.sent_batches += 1
                self.sent_rows += phi - plo
                self.replay_rows += (phi - plo) if replay else 0
        if self._behind and self.cursor >= self.basket.next_oid:
            self._behind = False
            self.resumes += 1
        return frames

    def ack(self, offset: int) -> None:
        """Record the client's confirmation, clamped to what was sent
        (a client cannot ack the future)."""
        self.acked = max(self.acked, min(int(offset), self.cursor))

    def _detach(self) -> None:
        self.dead = True
        if self.query is not None:
            self.follower.close()
        else:
            self.basket.remove_tap(self._wake)

    async def shutdown(self) -> None:
        """Join the pump task (loop thread): stop, wake, await."""
        self._stopping = True
        self._detach()
        task = self._task
        if task is not None and task is not asyncio.current_task():
            self._event.set()
            done, _pending = await asyncio.wait({task}, timeout=2.0)
            if not done:
                task.cancel()
                await asyncio.wait({task}, timeout=1.0)
        self._task = None

    def stats(self) -> Dict[str, Any]:
        out = {"sent_batches": self.sent_batches,
               "sent_rows": self.sent_rows, "dead": self.dead}
        if self.query is not None:
            out.update(query=self.query, lag=self.follower.lag(),
                       evicted=self.follower.evicted)
        else:
            out.update(stream=self.stream, cursor=self.cursor,
                       acked=self.acked, replay_rows=self.replay_rows,
                       resumes=self.resumes,
                       lag=max(0, self.basket.next_oid - self.cursor),
                       skipped_rows=self.skipped_rows)
        return out


class _Connection:
    """Server-side state of one accepted socket (loop-thread owned)."""

    def __init__(self, cid: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.cid = cid
        self.reader = reader
        self.writer = writer
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else str(peer)
        self.codec = protocol.JSONCodec
        self.receptors: Dict[str, SocketReceptor] = {}
        self.subscriptions: List[_StreamSubscription] = []  # queries
        self.stream_subs: Dict[str, _StreamSubscription] = {}
        self.closed = False
        # one frame at a time per socket: replies and subscription
        # deliveries interleave at frame granularity, and drain() may
        # not be awaited concurrently from two tasks
        self._send_lock = asyncio.Lock()

    async def send(self, message: Dict[str, Any]) -> None:
        frame = protocol.encode_frame(message, self.codec)
        try:
            async with self._send_lock:
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, OSError, RuntimeError) as exc:
            raise NetError(f"send failed: {exc}", code="io") from exc

    async def recv(self) -> Optional[Dict[str, Any]]:
        """Next framed message, ``None`` on orderly EOF."""
        try:
            header = await self.reader.readexactly(
                protocol.HEADER.size)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise NetError("connection closed mid-frame",
                               code="io") from exc
            return None
        except (ConnectionError, OSError) as exc:
            raise NetError(f"recv failed: {exc}", code="io") from exc
        length, _codec_id = protocol.HEADER.unpack(header)
        if length > protocol.MAX_FRAME_BYTES:
            raise NetError(
                f"peer announced a {length}-byte frame "
                f"(limit {protocol.MAX_FRAME_BYTES})", code="too_large")
        try:
            payload = await self.reader.readexactly(length) \
                if length else b""
        except (asyncio.IncompleteReadError, ConnectionError,
                OSError) as exc:
            raise NetError("connection closed mid-frame",
                           code="io") from exc
        return protocol.decode_frame(header, payload)


class DataCellServer:
    """Hosts one engine: its serving loop, its I/O loop, its listeners."""

    def __init__(self, engine: Optional[DataCellEngine] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 pg_port: Optional[int] = None,
                 pg_host: Optional[str] = None,
                 admission: str = "block",
                 max_pending_batches: int = 64,
                 block_timeout_s: float = 5.0,
                 max_client_queue: int = 256,
                 replay_chunk_rows: int = 2048):
        """``port=0`` binds an ephemeral port (read :attr:`port` after
        :meth:`start`). ``pg_port`` adds a Postgres listener (``0`` =
        ephemeral, read :attr:`pg_port`; 5433 stays clear of a real
        Postgres) on ``pg_host``, by default ``host``.
        ``admission``/``max_pending_batches`` shape the per-producer
        admission queues. ``max_client_queue`` bounds every standing
        query's result queue: how many batches ``engine.results``
        keeps, and how far a subscriber or pg ``TAIL`` may lag before
        it is evicted. ``replay_chunk_rows``
        bounds how many tuples one stream-replay RESULT frame carries
        while a subscriber catches up.
        """
        if engine is None:
            engine = DataCellEngine(clock=WallClock())
        if not isinstance(engine.clock, WallClock):
            raise StreamError("DataCellServer needs an engine on a "
                              "WallClock")
        if admission not in SocketReceptor.POLICIES:
            raise StreamError(f"unknown admission policy {admission!r}")
        self.engine = engine
        self.host = host
        self.port = port
        self.pg_host = pg_host if pg_host is not None else host
        self.pg_port = pg_port
        self.admission = admission
        self.max_pending_batches = max_pending_batches
        self.block_timeout_s = block_timeout_s
        self.max_client_queue = max_client_queue
        self.replay_chunk_rows = replay_chunk_rows
        self.io = IOLoop()
        self.pg: Optional[PGEdge] = None
        self._listeners: List[asyncio.AbstractServer] = []
        self._loop: Optional[ServingLoop] = None
        self._lock = threading.Lock()
        self._conns: List[_Connection] = []
        self._orphan_receptors: List[SocketReceptor] = []
        self._conn_counter = 0
        self.connections_total = 0
        self.running = False
        self._totals: Dict[str, int] = {k: 0 for k in _TOTAL_KEYS}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "DataCellServer":
        if self.running:
            raise StreamError("server already started")
        if self.pg_port is not None:
            # first: the edge is forked before this host starts a thread
            self.pg = PGEdge(self)
            self.pg.start()
        # one bound for every standing query's result queue; queries
        # registered later read it off net_edge
        for query in self.engine.queries():
            query.emitter.queue.set_max_batches(self.max_client_queue)
        self.engine.net_edge = self
        self.io.start()
        self._loop = ServingLoop(
            self.engine, "datacell-server-scheduler",
            after_step=self._reap_receptors,
            on_exit=self.pg.detach if self.pg else lambda: None)
        self.running = True
        try:
            if self.pg is not None:
                self._loop.call(self.pg.attach, self._loop)
            self.host, self.port = self._listen(
                self._on_connection, self.host, self.port)
        except Exception:
            self.stop()
            raise
        return self

    def _listen(self, handler, host: str, port: int) -> tuple:
        """Open one listener on the I/O loop; returns its bound
        ``(host, port)``. Accepted sockets get ``TCP_NODELAY``."""
        async def accept(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            if not self.running:
                writer.close()
                return
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                except OSError:
                    pass
            await handler(reader, writer)

        async def open_listener() -> asyncio.AbstractServer:
            return await asyncio.start_server(
                accept, host=host, port=port, backlog=512,
                reuse_address=True)

        listener = self.io.call(open_listener())
        self._listeners.append(listener)
        return listener.sockets[0].getsockname()[:2]

    def _close_listeners(self, timeout_s: float) -> None:
        listeners, self._listeners = self._listeners, []
        for listener in listeners:
            try:
                self.io.call(_close_listener(listener), timeout_s)
            except Exception:
                pass

    def submit(self, fn: Callable, *args: Any) -> Future:
        """Run ``fn(*args)`` on the serving loop — the one thread that
        mutates the engine — and return its future. After :meth:`stop`
        the future fails promptly with ``NetError(code="shutdown")``."""
        if self._loop is None:
            raise StreamError("server not started")
        return self._loop.submit(fn, *args)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Orderly shutdown: stop accepting, drain ingested tuples
        through the net, let every query reader of both protocols reach
        its queue's head, close connections and the pg edge, and only
        then stop the serving loop, which pg tails need for each batch
        (idempotent)."""
        if not self.running:
            return
        self.running = False
        # 1. no new connections
        self._close_listeners(timeout_s)
        if self.pg is not None:
            self._loop.call(self.pg.quiesce)
        # 2. let the serving loop drain admission queues and the net,
        # and every query reader of both protocols reach its queue's head
        wait_until(self._drained, timeout_s)
        # 3. tear down connections (joins pump tasks), then the pg edge
        for conn in self._snapshot_conns():
            try:
                self.io.call(self._close_conn(conn), timeout_s)
            except Exception:
                pass
        if self.pg is not None:
            self.pg.stop(timeout_s)
        # 4. stop the serving loop (one final bounded drain); queued
        # commands fail
        self._loop.stop(timeout_s)
        self._reap_receptors(force=True)
        self.io.stop(timeout_s)
        if self.engine.net_edge is self:
            self.engine.net_edge = None

    def _drained(self) -> bool:
        """No admission backlog, no enabled transition, and every query
        reader of both protocols at its queue's head."""
        if any(r.pending_batches() for r in self._all_socket_receptors()) \
                or self.engine.scheduler.enabled_transitions():
            return False
        tails = self.pg.tail_followers() if self.pg else []
        followers = [sub.follower for conn in self._snapshot_conns()
                     for sub in conn.subscriptions if not sub.dead]
        return all(f.lag() == 0 for f in followers + tails)

    def __enter__(self) -> "DataCellServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- scheduler thread ----------------------------------------------

    def _reap_receptors(self, force: bool = False) -> None:
        """Unregister closed-and-drained socket receptors of departed
        connections, folding their counters into the totals (after
        every step of the serving loop, and at stop)."""
        if not self._orphan_receptors:
            return
        with self._lock:
            keep = []
            for receptor in self._orphan_receptors:
                if force or receptor.exhausted:
                    self._fold_receptor(receptor)
                    self.engine.remove_receptor(receptor)
                else:
                    keep.append(receptor)
            self._orphan_receptors = keep

    def _fold_receptor(self, receptor: SocketReceptor) -> None:
        self._totals["offered"] += receptor.total_offered
        self._totals["ingested"] += receptor.total_ingested
        self._totals["shed"] += receptor.total_shed
        self._totals["blocked"] += receptor.total_blocked

    # -- connection handling (all coroutines run on the I/O loop) ------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        with self._lock:
            self._conn_counter += 1
            conn = _Connection(self._conn_counter, reader, writer)
            self._conns.append(conn)
            self.connections_total += 1
        try:
            if await self._handshake(conn):
                while True:
                    message = await conn.recv()
                    if message is None:
                        break
                    await self._dispatch(conn, message)
        except NetError:
            pass  # peer vanished or spoke garbage; drop the connection
        finally:
            await self._close_conn(conn)

    async def _handshake(self, conn: _Connection) -> bool:
        first = await conn.recv()
        if first is None:
            return False
        if first.get("type") != protocol.HELLO:
            await conn.send(protocol.error(
                "bad_frame", "expected a HELLO frame first"))
            return False
        conn.codec = protocol.get_codec(
            str(first.get("codec", "json")))
        await conn.send(protocol.ok(
            server="datacell-repro",
            version=protocol.PROTOCOL_VERSION, codec=conn.codec.name,
            streams=[s.name for s in self.engine.catalog.streams()],
            queries=[q.name for q in self.engine.queries()]))
        return True

    async def _dispatch(self, conn: _Connection,
                        message: Dict[str, Any]) -> None:
        kind = message.get("type")
        if kind == protocol.INGEST:
            await self._on_ingest(conn, message)
        elif kind == protocol.SUBSCRIBE:
            if message.get("stream"):
                await self._on_subscribe_stream(conn, message)
            else:
                await self._on_subscribe(conn, message)
        elif kind == protocol.ACK:
            self._on_ack(conn, message)
        elif kind == protocol.STATS:
            try:
                stats = await asyncio.wrap_future(
                    self.submit(self.engine.network_stats))
            except NetError as exc:
                await conn.send(protocol.error(exc.code, str(exc)))
                return
            await conn.send(protocol.stats(stats))
        elif kind == protocol.ERROR:
            pass  # client-side complaint; nothing to do server-side
        else:
            await conn.send(protocol.error(
                "bad_frame", f"unexpected frame type {kind!r}"))

    async def _on_ingest(self, conn: _Connection,
                         message: Dict[str, Any]) -> None:
        stream_name = str(message.get("stream", "")).lower()
        rows = message.get("rows") or []
        seq = message.get("seq")
        receptor = conn.receptors.get(stream_name)
        if receptor is None:
            try:
                receptor = await asyncio.wrap_future(self.submit(
                    self.engine.add_socket_receptor, stream_name,
                    f"c{conn.cid}_{stream_name}",
                    self.max_pending_batches, self.admission,
                    self.block_timeout_s))
            except (CatalogError, StreamError) as exc:
                await conn.send(protocol.error(
                    "no_stream", str(exc), stream=stream_name, seq=seq))
                return
            except NetError as exc:
                await conn.send(protocol.error(
                    exc.code, str(exc), stream=stream_name, seq=seq))
                return
            with self._lock:
                if conn.closed:  # stop() tore it down during the await
                    receptor.close()
                    self._orphan_receptors.append(receptor)
                    return
                conn.receptors[stream_name] = receptor
        try:
            if self._offer_may_block(receptor):
                # a blocking admission (queue full, policy="block")
                # must not stall the event loop — push it to a worker
                # thread; backpressure still rides this connection
                # because its coroutine awaits the result before
                # reading the next frame
                accepted = await asyncio.get_running_loop() \
                    .run_in_executor(None, receptor.offer, rows)
            else:
                accepted = receptor.offer(rows)
        except TypeMismatchError as exc:  # the batch does not fit
            await conn.send(protocol.error(
                "bad_row", str(exc), stream=stream_name, seq=seq))
            return
        except StreamError as exc:
            await conn.send(protocol.error(
                "overload", str(exc), stream=stream_name, seq=seq))
            return
        except StoreError as exc:  # the stream's log has failed
            await conn.send(protocol.error(
                "io", str(exc), stream=stream_name, seq=seq))
            return
        if accepted == 0 and rows:
            await conn.send(protocol.error(
                "shed", f"admission queue for {stream_name!r} is full "
                f"({receptor.max_pending} batches); batch shed",
                stream=stream_name, seq=seq, rows=len(rows)))
            return
        await conn.send(protocol.ok(accepted=accepted, seq=seq,
                                    stream=stream_name))

    @staticmethod
    def _offer_may_block(receptor: SocketReceptor) -> bool:
        # shed admission never blocks
        return receptor.policy == "block" \
            and receptor.pending_batches() >= receptor.max_pending

    async def _on_subscribe(self, conn: _Connection,
                            message: Dict[str, Any]) -> None:
        query_name = str(message.get("query", "")).lower()
        try:
            query = self.engine.continuous_query(query_name)
        except DataCellError as exc:
            await conn.send(protocol.error(
                "no_query", str(exc), query=query_name))
            return
        if any(s.query == query_name and not s.dead
               for s in conn.subscriptions):
            await conn.send(protocol.error(
                "duplicate", f"already subscribed to {query_name!r}",
                query=query_name))
            return
        subscription = _StreamSubscription(conn, self.engine, self.io,
                                           query=query_name)
        conn.subscriptions.append(subscription)
        await conn.send(protocol.ok(query=query_name,
                                    columns=query.plan.schema.names))
        subscription.start()

    async def _on_subscribe_stream(self, conn: _Connection,
                                   message: Dict[str, Any]) -> None:
        stream_name = str(message.get("stream", "")).lower()
        try:
            basket = self.engine.basket(stream_name)
        except DataCellError as exc:
            await conn.send(protocol.error(
                "no_stream", str(exc), stream=stream_name))
            return
        existing = conn.stream_subs.get(stream_name)
        if existing is not None and not existing.dead:
            await conn.send(protocol.error(
                "duplicate",
                f"already subscribed to stream {stream_name!r}",
                stream=stream_name))
            return
        head = basket.next_oid
        raw_from = message.get("from")
        start = head if raw_from is None \
            else max(0, min(int(raw_from), head))
        sub = _StreamSubscription(conn, self.engine, self.io,
                                  stream=stream_name, start_offset=start,
                                  chunk_rows=self.replay_chunk_rows)
        conn.stream_subs[stream_name] = sub
        await conn.send(protocol.ok(
            stream=stream_name, columns=basket.schema.names,
            offset=start, head=head))
        sub.start()

    def _on_ack(self, conn: _Connection,
                message: Dict[str, Any]) -> None:
        # fire-and-forget: no reply frame, bad acks are dropped
        sub = conn.stream_subs.get(
            str(message.get("stream", "")).lower())
        if sub is not None:
            try:
                sub.ack(int(message.get("offset", 0)))
            except (TypeError, ValueError):
                pass

    async def _close_conn(self, conn: _Connection) -> None:
        """Tear one connection down on the loop: join its pump tasks,
        fold every counter, release taps/followers/receptors.
        Runs on *every* departure path — orderly stop, client EOF, or
        a mid-replay drop — so nothing leaks (idempotent)."""
        with self._lock:
            if conn.closed:
                return
            conn.closed = True
            self._conns = [c for c in self._conns if c is not conn]
            for receptor in conn.receptors.values():
                receptor.close()
                self._orphan_receptors.append(receptor)
        for sub in [*conn.subscriptions, *conn.stream_subs.values()]:
            await sub.shutdown()
            _fold_subscription(self._totals, sub.stats())
        try:
            conn.writer.close()
        except Exception:
            pass

    # -- inspection ----------------------------------------------------

    def _snapshot_conns(self) -> List[_Connection]:
        with self._lock:
            return list(self._conns)

    def _all_socket_receptors(self) -> List[SocketReceptor]:
        with self._lock:
            out = list(self._orphan_receptors)
            for conn in self._conns:
                out.extend(conn.receptors.values())
            return out

    def net_stats(self) -> Dict[str, Any]:
        """Per-connection and aggregate edge counters (the ``"net"``
        section of :meth:`DataCellEngine.network_stats`). Runs on the
        serving loop while the I/O loop mutates connections, so it reads
        copies of their receptor and subscription collections."""
        conns = self._snapshot_conns()
        entries = []
        totals = dict(self._totals)
        for conn in conns:
            receptors = dict(conn.receptors)
            entry = {"id": conn.cid, "peer": conn.peer,
                     "receptors": {s: r.stats()
                                   for s, r in receptors.items()},
                     "subscriptions": [
                         s.stats() for s in list(conn.subscriptions)],
                     "stream_subscriptions": [
                         s.stats()
                         for s in list(conn.stream_subs.values())]}
            entries.append(entry)
            for r in receptors.values():
                totals["offered"] += r.total_offered
                totals["ingested"] += r.total_ingested
                totals["shed"] += r.total_shed
                totals["blocked"] += r.total_blocked
            for sub in entry["subscriptions"] \
                    + entry["stream_subscriptions"]:
                _fold_subscription(totals, sub)
        with self._lock:
            for receptor in self._orphan_receptors:
                totals["offered"] += receptor.total_offered
                totals["ingested"] += receptor.total_ingested
                totals["shed"] += receptor.total_shed
                totals["blocked"] += receptor.total_blocked
        return {"address": f"{self.host}:{self.port}",
                "running": self.running,
                "admission": self.admission,
                "max_pending_batches": self.max_pending_batches,
                "max_client_queue": self.max_client_queue,
                "connections_total": self.connections_total,
                "connections": entries,
                "totals": totals}

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (f"DataCellServer({self.host}:{self.port}, {state}, "
                f"conns={len(self._conns)})")


def _fold_subscription(totals: Dict[str, int],
                       stats: Dict[str, Any]) -> None:
    totals["delivered_batches"] += stats["sent_batches"]
    totals["delivered_rows"] += stats["sent_rows"]
    totals["evicted"] += int(stats.get("evicted", False))


async def _close_listener(server: asyncio.AbstractServer) -> None:
    server.close()
    await server.wait_closed()

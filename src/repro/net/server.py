"""A long-running DataCell server: the engine behind a socket.

The demo architecture runs "a set of separate processes per stream and
per client" at the engine's edges. :class:`DataCellServer` realizes
that boundary: one engine on a wall clock, a scheduler thread running
the serving loop (:class:`repro.core.live.ServingLoop`: asleep until
a producer's offer wakes it or a window timer falls due), one
:class:`~repro.core.receptor.SocketReceptor` per connected stream
producer, and one :class:`~repro.core.emitter.QueueSink` + writer task
per subscribed client.

I/O runs on the shared asyncio core (:class:`~repro.net.aio.IOLoop`):
one event loop thread accepts connections and runs a coroutine per
connection plus a writer/pump task per subscription, so an idle
subscriber costs a heap entry instead of the former thread (PR 3's
thread-per-connection model). The engine side is unchanged — the
scheduler thread still pumps admission queues and fills delivery
queues; both directions are woken across the thread boundary
(``engine.wake`` inbound, ``call_soon_threadsafe`` wakers outbound),
never polled.

Backpressure is explicit at both edges:

* **ingress** — each producer's receptor has a bounded admission queue;
  when baskets back up the producer either blocks (``admission=
  "block"``, backpressure rides the TCP connection) or gets a shed
  ERROR frame (``admission="shed"``), with shed/blocked counts in
  :meth:`net_stats` and the shell's ``.net`` pane;
* **egress** — each subscriber has a bounded delivery queue drained in
  order by its writer task; a slow consumer is *evicted* (ERROR
  frame, subscription torn down) rather than allowed to buffer the
  engine into the ground.

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
import threading
import time
from typing import Any, Dict, List, Optional

from repro.core.clock import WallClock
from repro.core.emitter import (SERVED_MAX_BATCHES, QueueSink,
                                SubscriberCursor)
from repro.core.engine import DataCellEngine
from repro.core.live import ServingLoop
from repro.core.receptor import SocketReceptor
from repro.errors import CatalogError, DataCellError, NetError, \
    StreamError
from repro.net import protocol
from repro.net.aio import IOLoop

_TOTAL_KEYS = ("offered", "ingested", "shed", "blocked",
               "delivered_batches", "delivered_rows", "evicted")


class _Subscription:
    """One subscribed client: a queued sink plus its writer task.

    The sink is filled by the scheduler thread; its waker sets an
    ``asyncio.Event`` on the I/O loop, and the writer task drains the
    queue into RESULT frames. Idle = parked on the event, zero cost.
    """

    def __init__(self, conn: "_Connection", query_name: str,
                 sink: QueueSink, emitter, io: IOLoop):
        self.conn = conn
        self.query = query_name
        self.sink = sink
        self.emitter = emitter
        self.sent_batches = 0
        self.sent_rows = 0
        self.dead = False
        self._io = io
        self._stopping = False
        self._event = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        sink.set_waker(lambda: io.call_soon(self._event.set))

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run())

    async def _run(self) -> None:
        try:
            while True:
                self._event.clear()
                while True:
                    item = self.sink.get_nowait()
                    if item is None:
                        break
                    seq, now, rel = item
                    frame = protocol.result(
                        self.query, seq, now, rel.names, rel.to_rows())
                    try:
                        await self.conn.send(frame)
                    except NetError:
                        self._detach()
                        return
                    self.sent_batches += 1
                    self.sent_rows += rel.row_count
                if self.sink.evicted and self.sink.drained():
                    await self._evict()
                    return
                if self._stopping:
                    return
                await self._event.wait()
        except asyncio.CancelledError:
            self._detach()
            raise

    async def _evict(self) -> None:
        try:
            await self.conn.send(protocol.error(
                "evicted",
                f"subscriber too slow for query {self.query!r}; "
                f"delivery queue overflowed", query=self.query))
        except NetError:
            pass
        self._detach()

    def _detach(self) -> None:
        self.dead = True
        self.sink.set_waker(None)
        self.emitter.remove_sink(self.sink)

    async def shutdown(self) -> None:
        """Join the writer task (loop thread): stop, wake, await."""
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
        out = self.sink.stats()
        out.update({"query": self.query,
                    "sent_batches": self.sent_batches,
                    "sent_rows": self.sent_rows,
                    "dead": self.dead})
        return out


class _StreamSubscription:
    """One replay-capable raw-stream subscriber: a cursor pump task.

    Where :class:`_Subscription` buffers emitter deliveries in a
    bounded queue (and evicts slow consumers), a stream subscriber
    owns a :class:`~repro.core.emitter.SubscriberCursor` into the
    stream's oid/offset space. Its pump task reads
    ``[cursor, head)`` through
    :meth:`~repro.core.engine.DataCellEngine.read_stream_range` — the
    durable log below the basket's retained prefix, live basket memory
    above — so historical replay flows through the same delivery path
    as live tuples and splices into them without a gap or duplicate.
    A slow consumer simply lags and later resumes; it is never
    evicted. A basket tap wakes the pump on every append (via the I/O
    loop's threadsafe trampoline — the tap itself runs under the
    basket lock on the scheduler thread and must stay tiny).

    Retention contract: a ``from`` offset below the log's retention
    floor is not an error — the read path skips the discarded prefix,
    the first delivered batch starts at the floor, and the rows passed
    over are counted in ``skipped_rows`` (the ``.net`` pane). The
    connection stays up; only genuinely dropped streams detach it.
    """

    def __init__(self, conn: "_Connection", engine: DataCellEngine,
                 stream: str, start_offset: int, io: IOLoop,
                 chunk_rows: int = 2048):
        self.conn = conn
        self.engine = engine
        self.stream = stream
        self.basket = engine.basket(stream)
        self.cursor = SubscriberCursor(
            f"c{conn.cid}:{stream}", start_offset)
        self.chunk_rows = max(int(chunk_rows), 1)
        # tuples below this existed before we subscribed: replay
        self.replay_upto = self.basket.next_oid
        # rows requested but already discarded by retention: the
        # subscriber lagged to the floor instead of erroring out
        self.skipped_rows = 0
        self.dead = False
        self._io = io
        self._seq = 0
        self._stopping = False
        self._behind = False
        self._event = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        # captured once: each `self._tap` access builds a fresh bound
        # method, and the basket removes taps by identity
        self._tap_cb = self._tap

    def start(self) -> None:
        self.basket.add_tap(self._tap_cb)
        self._task = asyncio.get_running_loop().create_task(
            self._run())

    def _tap(self, lo: int, hi: int, now: int) -> None:
        # called under the basket lock on every append: tiny, lock-free
        self._io.call_soon(self._event.set)

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while not self._stopping:
                head = self.basket.next_oid
                if self.cursor.cursor >= head:
                    self._event.clear()
                    if self.basket.next_oid > self.cursor.cursor:
                        continue  # append raced the clear
                    await self._event.wait()
                    continue
                if self.cursor.lag(head) > self.chunk_rows:
                    self._behind = True
                lo = self.cursor.cursor
                hi = min(head, lo + self.chunk_rows)
                try:
                    # log reads can touch disk; keep the loop live
                    parts = await loop.run_in_executor(
                        None, self.engine.read_stream_range,
                        self.stream, lo, hi)
                except DataCellError:
                    self._detach()  # stream dropped under us
                    return
                if parts and parts[0][0] > lo:
                    self.skipped_rows += parts[0][0] - lo
                for plo, phi, rel in parts:
                    frame = protocol.result(
                        "", self._seq, self.engine.now(), rel.names,
                        rel.to_rows(), stream=self.stream, offset=plo,
                        end=phi, replay=phi <= self.replay_upto)
                    # advance BEFORE send: the client may ack the batch
                    # before this task runs again, and a cursor behind
                    # the delivery would clamp that ack away
                    self._seq += 1
                    self.cursor.advance(phi, phi - plo,
                                        phi <= self.replay_upto)
                    try:
                        await self.conn.send(frame)
                    except NetError:
                        self._detach()
                        return
                if not parts:
                    # everything in [lo, hi) predates what the log
                    # retains; skip forward rather than spin
                    self.skipped_rows += hi - lo
                    self.cursor.advance(hi, 0, True)
                if self._behind and self.cursor.cursor >= \
                        self.basket.next_oid:
                    self._behind = False
                    self.cursor.resumes += 1
        except asyncio.CancelledError:
            self._detach()
            raise
        finally:
            self._detach()

    def ack(self, offset: int) -> None:
        self.cursor.ack(offset)

    def _detach(self) -> None:
        self.dead = True
        self.basket.remove_tap(self._tap_cb)

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
        out = self.cursor.stats()
        out.update({"stream": self.stream,
                    "lag": self.cursor.lag(self.basket.next_oid),
                    "skipped_rows": self.skipped_rows,
                    "dead": self.dead})
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
        self.subscriptions: List[_Subscription] = []
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
    """Hosts one engine plus a scheduler thread behind a listen socket."""

    def __init__(self, engine: Optional[DataCellEngine] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 admission: str = "block",
                 max_pending_batches: int = 64,
                 block_timeout_s: float = 5.0,
                 max_client_queue: int = 256,
                 collect_max_batches: Optional[int] = SERVED_MAX_BATCHES,
                 replay_chunk_rows: int = 2048,
                 io_loop: Optional[IOLoop] = None):
        """``port=0`` binds an ephemeral port (read :attr:`port` after
        :meth:`start`). ``admission``/``max_pending_batches`` shape the
        per-producer admission queues; ``max_client_queue`` bounds each
        subscriber's delivery queue; ``collect_max_batches`` bounds
        every standing query's built-in CollectingSink — registered
        before or after :meth:`start`, over either front end — so a
        long-running server does not hoard history (``None`` leaves
        them unbounded).
        ``replay_chunk_rows`` bounds how many tuples one stream-replay
        RESULT frame carries while a subscriber catches up. ``io_loop``
        shares an existing :class:`~repro.net.aio.IOLoop` (e.g. with the
        Postgres front end); by default the server runs its own.
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
        self.admission = admission
        self.max_pending_batches = max_pending_batches
        self.block_timeout_s = block_timeout_s
        self.max_client_queue = max_client_queue
        self.collect_max_batches = collect_max_batches
        self.replay_chunk_rows = replay_chunk_rows
        self.io = io_loop if io_loop is not None else IOLoop()
        self._aio_server: Optional[asyncio.AbstractServer] = None
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
        if self.collect_max_batches is not None:
            self.engine.bound_result_sinks(self.collect_max_batches)
        self.io.acquire()
        try:
            self._aio_server = self.io.call(self._open_listener())
        except Exception:
            self.io.release()
            raise
        sockname = self._aio_server.sockets[0].getsockname()
        self.host, self.port = sockname[:2]
        self.engine.net_edge = self
        self.running = True
        self._loop = ServingLoop(self.engine, "datacell-server-scheduler",
                                 after_step=self._reap_receptors)
        return self

    async def _open_listener(self) -> asyncio.AbstractServer:
        return await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port,
            backlog=512, reuse_address=True)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Orderly shutdown: stop accepting, drain ingested tuples
        through the net, flush subscriber queues, then close
        connections (idempotent)."""
        if not self.running:
            return
        self.running = False
        # 1. no new connections
        if self._aio_server is not None:
            server = self._aio_server
            self._aio_server = None
            try:
                self.io.call(_close_listener(server), timeout_s)
            except Exception:
                pass
        deadline = time.monotonic() + timeout_s
        # 2. let the scheduler thread drain admission queues + the net,
        # 3. stop it; one final bounded drain
        self._loop.stop(timeout_s, self._quiesced)
        # 4. flush subscriber delivery queues (writer tasks running)
        while time.monotonic() < deadline:
            if all(sub.sink.drained() or sub.dead
                   for conn in self._snapshot_conns()
                   for sub in conn.subscriptions):
                break
            time.sleep(0.01)
        # 5. tear down connections (joins writer/pump tasks)
        for conn in self._snapshot_conns():
            try:
                self.io.call(self._close_conn(conn), timeout_s)
            except Exception:
                pass
        self._reap_receptors(force=True)
        self.io.release(timeout_s)

    def _quiesced(self) -> bool:
        backlog = any(r.pending_batches()
                      for r in self._all_socket_receptors())
        return not backlog \
            and not self.engine.scheduler.enabled_transitions()

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
            await conn.send(
                protocol.stats(self.engine.network_stats()))
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
                receptor = self.engine.add_socket_receptor(
                    stream_name,
                    name=f"c{conn.cid}_{stream_name}",
                    max_pending=self.max_pending_batches,
                    policy=self.admission,
                    block_timeout_s=self.block_timeout_s)
            except (CatalogError, StreamError) as exc:
                await conn.send(protocol.error(
                    "no_stream", str(exc), stream=stream_name, seq=seq))
                return
            conn.receptors[stream_name] = receptor
        try:
            if self._offer_may_block(receptor):
                # a blocking admission (queue full / log writer
                # drowning, policy="block") must not stall the event
                # loop — push it to a worker thread; backpressure
                # still rides this connection because its coroutine
                # awaits the result before reading the next frame
                accepted = await asyncio.get_running_loop() \
                    .run_in_executor(None, receptor.offer, rows)
            else:
                accepted = receptor.offer(rows)
        except StreamError as exc:
            await conn.send(protocol.error(
                "overload", str(exc), stream=stream_name, seq=seq))
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
        if receptor.policy != "block":
            return False  # shed admission never blocks
        if receptor.pending_batches() >= receptor.max_pending:
            return True
        log = receptor.basket.log
        return log is not None and \
            log.backlog_batches() >= receptor.log_backlog_limit

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
        sink = QueueSink(f"c{conn.cid}:{query_name}",
                         max_batches=self.max_client_queue)
        subscription = _Subscription(conn, query_name, sink,
                                     query.emitter, self.io)
        conn.subscriptions.append(subscription)
        query.emitter.add_sink(sink)
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
        sub = _StreamSubscription(conn, self.engine, stream_name,
                                  start, self.io,
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
        """Tear one connection down on the loop: join its writer and
        pump tasks, fold every counter, release taps/sinks/receptors.
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
        for subscription in conn.subscriptions:
            await subscription.shutdown()
            self._totals["delivered_batches"] += \
                subscription.sent_batches
            self._totals["delivered_rows"] += subscription.sent_rows
            if subscription.sink.evicted:
                self._totals["evicted"] += 1
        for stream_sub in conn.stream_subs.values():
            await stream_sub.shutdown()
            self._totals["delivered_batches"] += \
                stream_sub.cursor.sent_batches
            self._totals["delivered_rows"] += \
                stream_sub.cursor.sent_rows
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
        section of :meth:`DataCellEngine.network_stats`)."""
        conns = self._snapshot_conns()
        entries = []
        totals = dict(self._totals)
        for conn in conns:
            receptors = {s: r.stats()
                         for s, r in conn.receptors.items()}
            subs = [s.stats() for s in conn.subscriptions]
            stream_subs = [s.stats()
                           for s in conn.stream_subs.values()]
            entries.append({"id": conn.cid, "peer": conn.peer,
                            "receptors": receptors,
                            "subscriptions": subs,
                            "stream_subscriptions": stream_subs})
            for r in conn.receptors.values():
                totals["offered"] += r.total_offered
                totals["ingested"] += r.total_ingested
                totals["shed"] += r.total_shed
                totals["blocked"] += r.total_blocked
            for s in conn.subscriptions:
                totals["delivered_batches"] += s.sent_batches
                totals["delivered_rows"] += s.sent_rows
                if s.sink.evicted:
                    totals["evicted"] += 1
            for s in conn.stream_subs.values():
                totals["delivered_batches"] += s.cursor.sent_batches
                totals["delivered_rows"] += s.cursor.sent_rows
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


async def _close_listener(server: asyncio.AbstractServer) -> None:
    server.close()
    await server.wait_closed()

"""Emitters: the delivery edge — one per standing-query client.

A factory firing appends its (partial) result to the query's output
side; the emitter drains that to a sink. Sinks collect, call back, or
write out — the simulation-friendly stand-ins for the demo's network
clients — while :class:`QueueSink` is the real network variant: a
bounded per-client delivery queue drained by a writer thread, with
slow-consumer eviction instead of unbounded growth.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, List, Optional, Tuple

from repro.mal.relation import Relation


# ring bound a server applies to every query's built-in CollectingSink
# unless told otherwise (a long-running deployment must not hoard
# history)
SERVED_MAX_BATCHES = 1024


class Sink:
    """Receives one result relation per factory firing."""

    def deliver(self, result: Relation, now: int) -> None:
        raise NotImplementedError


class CollectingSink(Sink):
    """Keeps delivered batches; handy in tests and benchmarks.

    ``max_batches`` bounds the retained ring: once full, the oldest
    batch is dropped per delivery (``dropped_batches`` counts them), so
    long-lived live/server deployments can keep a standing query's
    default sink without growing it forever. ``None`` (the default)
    retains everything.
    """

    def __init__(self, max_batches: Optional[int] = None):
        self.batches: List[Tuple[int, Relation]] = []
        self.dropped_batches = 0
        self._max_batches: Optional[int] = None
        self.set_max_batches(max_batches)

    @property
    def max_batches(self) -> Optional[int]:
        return self._max_batches

    def set_max_batches(self, max_batches: Optional[int]) -> None:
        """(Re)bound the ring; trims the oldest batches immediately."""
        if max_batches is not None and max_batches < 1:
            raise ValueError("max_batches must be >= 1 (or None)")
        self._max_batches = max_batches
        self._trim()

    def _trim(self) -> None:
        if self._max_batches is None:
            return
        excess = len(self.batches) - self._max_batches
        if excess > 0:
            del self.batches[:excess]
            self.dropped_batches += excess

    def deliver(self, result: Relation, now: int) -> None:
        self.batches.append((now, result))
        self._trim()

    def rows(self) -> List[tuple]:
        out: List[tuple] = []
        for _now, rel in self.batches:
            out.extend(rel.to_rows())
        return out

    def latest(self) -> Optional[Relation]:
        return self.batches[-1][1] if self.batches else None

    def clear(self) -> None:
        self.batches = []

    def __len__(self) -> int:
        return len(self.batches)


class CallbackSink(Sink):
    """Invokes ``fn(result, now)`` per delivery."""

    def __init__(self, fn: Callable[[Relation, int], Any]):
        self.fn = fn

    def deliver(self, result: Relation, now: int) -> None:
        self.fn(result, now)


class NullSink(Sink):
    """Discards results (pure-throughput benchmarks)."""

    def deliver(self, result: Relation, now: int) -> None:
        return None


class BasketSink(Sink):
    """Appends results to a stream basket — the paper's *output
    baskets*: a factory "creates a result set, which it then places in
    its output baskets", where further standing queries (or emitters)
    pick it up. This is what makes multi-stage query networks
    (Figure 3) composable.

    With a recycler attached, each appended payload is adopted as the
    shared window slice for exactly its oid range, so a downstream
    stage's scan of the output basket is a cache hit instead of a
    re-materialization.
    """

    def __init__(self, basket, recycler=None):
        self.basket = basket
        self.recycler = recycler
        self._producer = None

    def bind_producer(self, factory) -> None:
        """Attach the factory whose firings feed this sink; its
        ``last_eval_ms`` is the recompute cost adopted slices carry."""
        self._producer = factory

    def deliver(self, result: Relation, now: int) -> None:
        schema = self.basket.schema
        if result.names != schema.names:
            result = result.renamed(schema.names)
        lo, hi = self.basket.append_relation(result, now)
        if self.recycler is None or hi <= lo:
            return
        # only adopt when the payload is exactly what relation(lo, hi)
        # would materialize — a dtype mismatch means the basket
        # coerced on append and the payload no longer matches
        if all(result.column(c.name).dtype == c.dtype
               for c in schema.columns):
            self.recycler.adopt_slice(
                self.basket.name, lo, hi, result,
                cost_ms=self._producer.last_eval_ms
                if self._producer is not None else 0.0)


class QueueSink(Sink):
    """A bounded hand-off queue between the scheduler and one client.

    The network edge attaches one per subscribed client: ``deliver``
    (scheduler thread) enqueues ``(seq, now, relation)`` without ever
    blocking, a writer thread drains with :meth:`get` and ships RESULT
    frames. Batches stay in delivery order (FIFO queue, single writer).

    When the client cannot keep up and the queue fills, the sink flips
    to *evicted*: further deliveries are dropped and counted, and the
    server tears the subscription down — a slow consumer must never
    stall the engine or buffer unboundedly.
    """

    def __init__(self, name: str, max_batches: int = 256):
        if max_batches < 1:
            raise ValueError("max_batches must be >= 1")
        self.name = name
        self._queue: "queue.Queue[Tuple[int, int, Relation]]" = \
            queue.Queue(maxsize=max_batches)
        self._seq = 0
        self._lock = threading.Lock()
        self._waker: Optional[Callable[[], Any]] = None
        self.evicted = False
        self.delivered_batches = 0
        self.delivered_rows = 0
        self.dropped_batches = 0

    def set_waker(self, fn: Optional[Callable[[], Any]]) -> None:
        """Attach a callback invoked after every :meth:`deliver` —
        including eviction flips — so an event-loop consumer can sleep
        on an event instead of polling the queue. Called from the
        delivering (scheduler) thread; keep it tiny and non-blocking
        (the asyncio edge passes a ``call_soon_threadsafe`` trampoline).
        """
        self._waker = fn

    def deliver(self, result: Relation, now: int) -> None:
        with self._lock:
            if self.evicted:
                self.dropped_batches += 1
                self._wake()
                return
            seq = self._seq
            try:
                self._queue.put_nowait((seq, now, result))
            except queue.Full:
                self.evicted = True
                self.dropped_batches += 1
                self._wake()
                return
            self._seq += 1
            self.delivered_batches += 1
            self.delivered_rows += result.row_count
        self._wake()

    def _wake(self) -> None:
        if self._waker is not None:
            self._waker()

    def get(self, timeout: Optional[float] = None
            ) -> Optional[Tuple[int, int, Relation]]:
        """Next ``(seq, now, relation)`` or ``None`` on timeout."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def get_nowait(self) -> Optional[Tuple[int, int, Relation]]:
        """Next ``(seq, now, relation)`` or ``None`` when empty."""
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            return None

    def depth(self) -> int:
        return self._queue.qsize()

    def drained(self) -> bool:
        return self._queue.empty()

    def stats(self) -> dict:
        return {"queue_depth": self.depth(),
                "delivered_batches": self.delivered_batches,
                "delivered_rows": self.delivered_rows,
                "dropped_batches": self.dropped_batches,
                "evicted": self.evicted}


class SubscriberCursor:
    """Offset bookkeeping for one replay-capable stream subscriber.

    Unlike :class:`QueueSink` subscribers — which buffer a bounded
    queue and get evicted when it overflows — a cursor subscriber owns
    a position in the stream's oid/offset space and simply *lags* when
    slow: the server's pump thread re-reads ``[cursor, next_oid)`` from
    basket memory or the durable log, so nothing needs buffering and
    nobody gets evicted. ``acked`` trails ``cursor`` by whatever the
    client has not yet acknowledged; a reconnect resumes from the
    client's last delivered offset.
    """

    __slots__ = ("name", "cursor", "acked", "sent_batches", "sent_rows",
                 "replay_rows", "resumes", "_lock")

    def __init__(self, name: str, start_offset: int):
        self.name = name
        self.cursor = int(start_offset)   # next offset to send
        self.acked = int(start_offset)    # client-confirmed offset
        self.sent_batches = 0
        self.sent_rows = 0
        self.replay_rows = 0              # rows sent from history
        self.resumes = 0                  # catch-ups after falling behind
        self._lock = threading.Lock()

    def advance(self, upto: int, rows: int, replay: bool) -> None:
        with self._lock:
            self.cursor = max(self.cursor, int(upto))
            self.sent_batches += 1
            self.sent_rows += rows
            if replay:
                self.replay_rows += rows

    def ack(self, offset: int) -> None:
        """Record the client's confirmation; clamped to what was
        actually sent (a client cannot ack the future)."""
        with self._lock:
            self.acked = max(self.acked, min(int(offset), self.cursor))

    def lag(self, head: int) -> int:
        return max(0, int(head) - self.cursor)

    def stats(self) -> dict:
        with self._lock:
            return {"cursor": self.cursor, "acked": self.acked,
                    "sent_batches": self.sent_batches,
                    "sent_rows": self.sent_rows,
                    "replay_rows": self.replay_rows,
                    "resumes": self.resumes}


class Emitter:
    """Fans one query's result batches out to its sinks.

    Sink registration is thread-safe: the network edge attaches and
    detaches subscriber sinks from connection threads while the
    scheduler is delivering.
    """

    def __init__(self, name: str):
        self.name = name
        self.sinks: List[Sink] = []
        self._sinks_lock = threading.Lock()
        self.total_batches = 0
        self.total_rows = 0
        self.last_delivery_time: Optional[int] = None

    def add_sink(self, sink: Sink) -> None:
        with self._sinks_lock:
            self.sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        """Detach *sink* if attached (no-op otherwise)."""
        with self._sinks_lock:
            self.sinks = [s for s in self.sinks if s is not sink]

    def deliver(self, result: Relation, now: int) -> None:
        self.total_batches += 1
        self.total_rows += result.row_count
        self.last_delivery_time = now
        with self._sinks_lock:
            sinks = list(self.sinks)
        for sink in sinks:
            sink.deliver(result, now)

    def __repr__(self) -> str:
        return (f"Emitter({self.name}, batches={self.total_batches}, "
                f"rows={self.total_rows})")

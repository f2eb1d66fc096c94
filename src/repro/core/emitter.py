"""Emitters: the delivery edge of a standing query.

A factory firing hands its (partial) result to the query's
:class:`Emitter`, which appends it to the query's one result queue — a
:class:`QueueSink`, the paper's *output basket* — and, for a chained
query, to the stream its ``output_stream`` names (:class:`BasketSink`).
Every reader of a query's results is a :class:`Follower`: a cursor at
an absolute batch offset into that one queue. ``engine.results`` reads
the retained batches as a list, ``engine.subscribe`` callbacks are
drained on delivery, and the network edge pumps one follower per framed
subscriber and per pg ``TAIL``. A follower that falls more than the
queue's bound behind the head is evicted: it keeps the batches it had
not read to flush, and the queue moves on without it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.mal.relation import Relation


class BasketSink:
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
        # the factory whose firings feed this sink, once it exists: its
        # ``last_eval_ms`` is the recompute cost adopted slices carry
        self.producer = None

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
                cost_ms=self.producer.last_eval_ms
                if self.producer is not None else 0.0)


class QueueSink:
    """A standing query's one result queue: bounded and offset-addressed.

    :meth:`deliver` appends ``(now, relation)`` at offset
    ``delivered_batches``. Offsets are absolute: trimming and
    :meth:`clear` never renumber a batch. ``max_batches`` bounds what is
    kept (``None``, the in-process default, keeps everything; a served
    engine applies its ``max_client_queue``); the oldest batches go
    first and ``dropped_batches`` counts them. ``batches`` is the
    retained history as ``(now, relation)`` pairs, oldest first.

    One lock guards the queue: the serving loop appends, the I/O loop
    attaches followers and reads at their offsets.
    """

    def __init__(self, name: str, max_batches: Optional[int] = None):
        self.name = name
        self.batches: List[Tuple[int, Relation]] = []
        self.delivered_batches = 0
        self.delivered_rows = 0
        self.dropped_batches = 0
        self.max_batches: Optional[int] = None
        # replaced, never mutated: deliver wakes a snapshot unlocked
        self._followers: Tuple["Follower", ...] = ()
        self._lock = threading.Lock()
        self.set_max_batches(max_batches)

    @property
    def first(self) -> int:
        """Offset of the oldest retained batch (the head when empty)."""
        return self.delivered_batches - len(self.batches)

    def set_max_batches(self, max_batches: Optional[int]) -> None:
        """(Re)bound the queue; trims the oldest batches immediately."""
        if max_batches is not None and max_batches < 1:
            raise ValueError("max_batches must be >= 1 (or None)")
        with self._lock:
            self.max_batches = max_batches
            self._trim()

    def deliver(self, result: Relation, now: int) -> None:
        with self._lock:
            self.batches.append((now, result))
            self.delivered_batches += 1
            self.delivered_rows += result.row_count
            self._trim()
            followers = self._followers
        for follower in followers:
            follower.wake()

    def _trim(self) -> None:
        if self.max_batches is not None:
            excess = len(self.batches) - self.max_batches
            if excess > 0:
                self._drop(excess)
                self.dropped_batches += excess

    def _drop(self, n: int) -> None:
        """Forget the oldest *n* batches (lock held). A follower whose
        cursor they pass is evicted and keeps what it had left to read,
        at most ``max_batches`` batches, to flush before it is told."""
        first = self.first
        for follower in self._followers:
            if follower.backlog is None and follower.offset < first + n:
                i = follower.offset - first
                end = i + (self.max_batches or len(self.batches))
                follower.backlog = deque(
                    (first + j, now, rel) for j, (now, rel)
                    in enumerate(self.batches[i:end], i))
        del self.batches[:n]

    def get_nowait(self, offset: int
                   ) -> Optional[Tuple[int, int, Relation]]:
        """``(offset, now, relation)`` of the batch at *offset*, or
        ``None`` at the head (and below the retained floor)."""
        with self._lock:
            i = offset - self.first
            if 0 <= i < len(self.batches):
                now, rel = self.batches[i]
                return offset, now, rel
        return None

    def follow(self, wake: Callable[[], Any]) -> "Follower":
        """Attach a reader at the head. *wake* runs after every
        delivery on the delivering thread: keep it tiny (the network
        edge passes a threadsafe trampoline onto its event loop)."""
        with self._lock:
            follower = Follower(self, self.delivered_batches, wake)
            self._followers += (follower,)
        return follower

    def unfollow(self, follower: "Follower") -> None:
        """Detach *follower* (no-op when it is not attached)."""
        with self._lock:
            self._followers = tuple(f for f in self._followers
                                    if f is not follower)

    def depth(self) -> int:
        """The largest lag among attached, unevicted followers, in
        batches (0 when no reader is behind)."""
        head = self.delivered_batches
        return max((head - f.offset for f in self._followers
                    if f.backlog is None), default=0)

    def rows(self) -> List[tuple]:
        out: List[tuple] = []
        for _now, rel in self.batches:
            out.extend(rel.to_rows())
        return out

    def latest(self) -> Optional[Relation]:
        return self.batches[-1][1] if self.batches else None

    def clear(self) -> None:
        """Forget the retained history (offsets carry on)."""
        with self._lock:
            self._drop(len(self.batches))

    def __len__(self) -> int:
        return len(self.batches)


class Follower:
    """One reader's cursor into a :class:`QueueSink`: ``offset`` is the
    next batch it reads. Once the queue trims past it, ``backlog``
    holds the batches it still may flush and it is *evicted*."""

    __slots__ = ("queue", "offset", "wake", "backlog")

    def __init__(self, queue: QueueSink, offset: int,
                 wake: Callable[[], Any]):
        self.queue = queue
        self.offset = offset
        self.wake = wake
        self.backlog: Optional[Deque[Tuple[int, int, Relation]]] = None

    @property
    def evicted(self) -> bool:
        return self.backlog is not None

    def next(self) -> Optional[Tuple[int, int, Relation]]:
        """The next ``(offset, now, relation)``; ``None`` at the head,
        or once evicted, when the backlog is flushed."""
        backlog = self.backlog
        if backlog is not None:
            # an eviction racing the read below may repeat its batch
            while backlog and backlog[0][0] < self.offset:
                backlog.popleft()
            if not backlog:
                return None
            item = backlog.popleft()
        else:
            item = self.queue.get_nowait(self.offset)
            if item is None:
                return None
        self.offset = item[0] + 1
        return item

    def lag(self) -> int:
        """Batches delivered and not yet read (what is left to flush,
        once evicted)."""
        if self.backlog is not None:
            return len(self.backlog)
        return max(0, self.queue.delivered_batches - self.offset)

    def close(self) -> None:
        self.queue.unfollow(self)


class Emitter:
    """Delivers one query's result batches: to its result queue, then —
    for a chained query — to its output basket."""

    def __init__(self, queue: QueueSink,
                 output: Optional[BasketSink] = None):
        self.name = queue.name
        self.queue = queue
        self.output = output
        self.total_batches = 0
        self.total_rows = 0
        self.last_delivery_time: Optional[int] = None

    def deliver(self, result: Relation, now: int) -> None:
        self.total_batches += 1
        self.total_rows += result.row_count
        self.last_delivery_time = now
        self.queue.deliver(result, now)
        if self.output is not None:
            self.output.deliver(result, now)

    def __repr__(self) -> str:
        return (f"Emitter({self.name}, batches={self.total_batches}, "
                f"rows={self.total_rows})")

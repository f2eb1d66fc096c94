"""Receptors: the ingestion edge of the DataCell architecture.

*"It contains receptors and emitters, i.e., a set of separate processes
per stream and per client, respectively, to listen for new data and to
deliver results."* A source's receptor is *pumped* by the scheduler
loop: every pump appends all source events whose timestamp has been
reached to the stream's basket — on a simulated clock, or on the wall
clock of a served engine, whose loop wakes at the next event time. A
network producer's receptor is offered batches from the I/O thread.
"""

from __future__ import annotations

import queue
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core.basket import Basket, ColumnBatch
from repro.errors import StoreError, StreamError, TypeMismatchError
from repro.streams.source import StreamSource


class Receptor:
    """Feeds one basket from one source."""

    def __init__(self, name: str, basket: Basket,
                 source: Optional[StreamSource] = None):
        self.name = name
        self.basket = basket
        self._iter = iter(source) if source is not None else None
        self._pending: Optional[Tuple[int, Sequence[Any]]] = None
        self.paused = False
        self.total_ingested = 0
        self.exhausted = source is None

    # -- pumping -------------------------------------------------------

    def pump(self, now: int) -> int:
        """Ingest every source event with timestamp <= now."""
        if self.paused or self._iter is None:
            return 0
        batch: List[Sequence[Any]] = []
        batch_ts = None
        appended = 0
        while True:
            if self._pending is None:
                self._pending = next(self._iter, None)
                if self._pending is None:
                    self.exhausted = True
                    break
            ts, row = self._pending
            if ts > now:
                break
            # group consecutive same-timestamp rows into one append
            if batch and ts != batch_ts:
                appended += self.basket.append_rows(batch, batch_ts)
                batch = []
            batch_ts = ts
            batch.append(row)
            self._pending = None
        if batch:
            appended += self.basket.append_rows(batch, batch_ts)
        self.total_ingested += appended
        return appended

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the next undelivered event (None when drained)."""
        if self._iter is None:
            return None
        if self._pending is None:
            self._pending = next(self._iter, None)
            if self._pending is None:
                self.exhausted = True
                return None
        return self._pending[0]

    # -- direct ingestion (no source) -------------------------------------

    def feed(self, rows: Sequence[Sequence[Any]], now: int) -> int:
        """Push rows straight into the basket (external driver)."""
        if self.paused:
            raise StreamError(f"receptor {self.name!r} is paused")
        n = self.basket.append_rows(rows, now)
        self.total_ingested += n
        return n

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def __repr__(self) -> str:
        return (f"Receptor({self.name} -> {self.basket.name}, "
                f"ingested={self.total_ingested})")


class SocketReceptor(Receptor):
    """Network-edge receptor: one per connected stream producer.

    A connection thread :meth:`offer`\\ s row batches into a bounded
    *admission queue* and then signals *wake* (the serving loop's);
    the scheduler's pump phase drains queued batches into the basket,
    so socket ingestion overlaps factory firing. A batch is coerced to
    the basket's storage columns on admission, so one that does not
    fit the stream is refused to its producer and never reaches the
    serving loop. The bound is the one backpressure valve, whether the
    net or the disk is slow (the step that pumps also commits the
    stream's log, so a slow write slows the draining):

    * ``policy="block"`` — a full queue makes ``offer`` wait (up to
      ``block_timeout_s``) for the scheduler to drain, propagating
      backpressure to the producer; each wait bumps ``total_blocked``.
    * ``policy="shed"`` — a full queue rejects the batch outright
      (``offer`` returns 0, ``total_shed`` counts the rows); the server
      answers the producer with a shed ERROR frame.
    """

    POLICIES = ("block", "shed")

    def __init__(self, name: str, basket: Basket, max_pending: int = 64,
                 policy: str = "block", block_timeout_s: float = 5.0,
                 wake: Callable[[], Any] = lambda: None):
        if policy not in self.POLICIES:
            raise StreamError(
                f"unknown admission policy {policy!r} "
                f"(expected one of {self.POLICIES})")
        if max_pending < 1:
            raise StreamError("max_pending must be >= 1")
        super().__init__(name, basket, source=None)
        self.policy = policy
        self.max_pending = max_pending
        self.block_timeout_s = block_timeout_s
        self._wake = wake
        self._queue: "queue.Queue[ColumnBatch]" = \
            queue.Queue(maxsize=max_pending)
        self.closed = False
        self.exhausted = False  # live until closed *and* drained
        self.total_offered = 0
        self.total_shed = 0
        self.total_blocked = 0

    # -- producer side (connection thread) -----------------------------

    def offer(self, rows: Sequence[Sequence[Any]]) -> int:
        """Admit one batch; returns the number of rows accepted (0 when
        the batch was shed). Raises :class:`StreamError` when paused,
        closed, or when a blocking admission times out,
        :class:`~repro.errors.StoreError` once the stream's log has
        failed, and :class:`~repro.errors.TypeMismatchError` for a
        batch that does not fit the stream."""
        if self.paused:
            raise StreamError(f"receptor {self.name!r} is paused")
        if self.closed:
            raise StreamError(f"receptor {self.name!r} is closed")
        if self.basket.log is not None:
            self.basket.log.raise_if_failed()
        try:
            batch = self.basket.columns_of(rows)
        except StreamError as exc:  # a row of the wrong width
            raise TypeMismatchError(str(exc)) from None
        if not batch.rows:
            return 0
        self.total_offered += batch.rows
        try:
            self._queue.put_nowait(batch)
        except queue.Full:
            if self.policy == "shed":
                self.total_shed += batch.rows
                return 0
            self.total_blocked += 1
            try:
                self._queue.put(batch, timeout=self.block_timeout_s)
            except queue.Full:
                self.total_shed += batch.rows
                raise StreamError(
                    f"receptor {self.name!r}: admission queue full for "
                    f"{self.block_timeout_s}s (scheduler not draining)"
                ) from None
        self._wake()  # enqueue, then signal: early at worst, never lost
        return batch.rows

    # -- scheduler side -------------------------------------------------

    def pump(self, now: int) -> int:
        """Drain the batches queued at entry into the basket (scheduler
        phase); a refill waits for the next step, which its offer has
        already woken, so no producer can stretch this one unboundedly.
        Once the stream's log has failed, queued batches are shed."""
        if self.paused:
            return 0
        appended = 0
        for _ in range(self._queue.qsize()):
            try:
                batch = self._queue.get_nowait()
            except queue.Empty:
                break
            try:
                appended += self.basket.append_rows(batch, now)
            except StoreError:
                self.total_shed += batch.rows
        self.total_ingested += appended
        if self.closed and self._queue.empty():
            self.exhausted = True
        return appended

    def close(self) -> None:
        """No further offers; pump drains what is queued, then the
        receptor reports itself exhausted."""
        self.closed = True
        if self._queue.empty():
            self.exhausted = True

    def pending_batches(self) -> int:
        return self._queue.qsize()

    def stats(self) -> Dict[str, Any]:
        return {"pending_batches": self.pending_batches(),
                "total_offered": self.total_offered,
                "total_ingested": self.total_ingested,
                "total_shed": self.total_shed,
                "total_blocked": self.total_blocked,
                "policy": self.policy,
                "closed": self.closed}

    def __repr__(self) -> str:
        return (f"SocketReceptor({self.name} -> {self.basket.name}, "
                f"policy={self.policy}, "
                f"pending={self.pending_batches()}, "
                f"ingested={self.total_ingested})")

"""Receptors: the ingestion edge of the DataCell architecture.

*"It contains receptors and emitters, i.e., a set of separate processes
per stream and per client, respectively, to listen for new data and to
deliver results."* In simulation mode a receptor is *pumped* by the
scheduler loop: every pump appends all source events whose timestamp has
been reached to the stream's basket. A threaded live mode is available
for interactive use.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core.basket import Basket
from repro.core.clock import Clock
from repro.errors import StreamError
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

    # -- simulation-mode pumping --------------------------------------

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


class ThreadedReceptor(Receptor):
    """Live-mode receptor: a daemon thread that sleeps until each event's
    timestamp and appends it — one 'separate process per stream'."""

    def __init__(self, name: str, basket: Basket, source: StreamSource,
                 clock: Clock):
        super().__init__(name, basket, source)
        self.clock = clock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            raise StreamError("receptor thread already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"receptor-{self.name}")
        self._thread.start()

    def stop(self, timeout: float = 1.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        while not self._stop.is_set():
            upcoming = self.next_event_time()
            if upcoming is None:
                return
            delay_ms = upcoming - self.clock.now()
            if delay_ms > 0:
                time.sleep(min(delay_ms / 1000.0, 0.05))
                continue
            if not self.paused:
                self.pump(self.clock.now())
            else:
                time.sleep(0.01)


class SocketReceptor(Receptor):
    """Network-edge receptor: one per connected stream producer.

    A connection thread :meth:`offer`\\ s row batches into a bounded
    *admission queue* and then signals *wake* (the serving loop's);
    the scheduler's pump phase drains queued batches into the basket,
    so socket ingestion overlaps factory firing. The bound is the
    backpressure valve when baskets back up:

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
                 log_backlog_limit: int = 256,
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
        # durability backpressure: when the stream's log writer backlog
        # exceeds this many queued group-commit batches, admission
        # treats it like a full queue (the disk, not the scheduler, is
        # the bottleneck)
        self.log_backlog_limit = max(int(log_backlog_limit), 1)
        self._queue: "queue.Queue[List[Sequence[Any]]]" = \
            queue.Queue(maxsize=max_pending)
        self.closed = False
        self.exhausted = False  # live until closed *and* drained
        self.total_offered = 0
        self.total_shed = 0
        self.total_blocked = 0
        self.total_log_blocked = 0

    # -- producer side (connection thread) -----------------------------

    def offer(self, rows: Sequence[Sequence[Any]]) -> int:
        """Admit one batch; returns the number of rows accepted (0 when
        the batch was shed). Raises :class:`StreamError` when paused,
        closed, or when a blocking admission times out."""
        if self.paused:
            raise StreamError(f"receptor {self.name!r} is paused")
        if self.closed:
            raise StreamError(f"receptor {self.name!r} is closed")
        batch = [list(row) for row in rows]
        if not batch:
            return 0
        self.total_offered += len(batch)
        if not self._log_admission(len(batch)):
            return 0
        try:
            self._queue.put_nowait(batch)
        except queue.Full:
            if self.policy == "shed":
                self.total_shed += len(batch)
                return 0
            self.total_blocked += 1
            try:
                self._queue.put(batch, timeout=self.block_timeout_s)
            except queue.Full:
                self.total_shed += len(batch)
                raise StreamError(
                    f"receptor {self.name!r}: admission queue full for "
                    f"{self.block_timeout_s}s (scheduler not draining)"
                ) from None
        self._wake()  # enqueue, then signal: early at worst, never lost
        return len(batch)

    def _log_admission(self, batch_rows: int) -> bool:
        """Durability backpressure: hold (or shed) offers while the
        stream log's group-commit writer is drowning. Returns False
        when the batch was shed."""
        log = self.basket.log
        if log is None or log.backlog_batches() < self.log_backlog_limit:
            return True
        if self.policy == "shed":
            self.total_shed += batch_rows
            return False
        self.total_log_blocked += 1
        deadline = time.monotonic() + self.block_timeout_s
        while log.backlog_batches() >= self.log_backlog_limit:
            if time.monotonic() >= deadline:
                self.total_shed += batch_rows
                raise StreamError(
                    f"receptor {self.name!r}: log writer backlog above "
                    f"{self.log_backlog_limit} batches for "
                    f"{self.block_timeout_s}s (disk not keeping up)")
            time.sleep(0.005)
        return True

    # -- scheduler side -------------------------------------------------

    def pump(self, now: int) -> int:
        """Drain the batches queued at entry into the basket (scheduler
        phase); a refill waits for the next step, which its offer has
        already woken, so no producer can stretch this one unboundedly."""
        if self.paused:
            return 0
        appended = 0
        for _ in range(self._queue.qsize()):
            try:
                batch = self._queue.get_nowait()
            except queue.Empty:
                break
            appended += self.basket.append_rows(batch, now)
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
                "total_log_blocked": self.total_log_blocked,
                "policy": self.policy,
                "closed": self.closed}

    def __repr__(self) -> str:
        return (f"SocketReceptor({self.name} -> {self.basket.name}, "
                f"policy={self.policy}, "
                f"pending={self.pending_batches()}, "
                f"ingested={self.total_ingested})")

"""Baskets: the lightweight columnar tables that buffer stream tuples.

From the paper: *"when an event stream enters the system via a receptor,
stream tuples are immediately stored in a lightweight table, called
basket. [...] Once a tuple has been seen by all relevant
queries/operators, it is dropped from its basket."*

A basket is a set of column BATs that share a dense oid range, plus one
TIMESTAMP BAT of arrival times (used by time-based windows). Tuples are
addressed by *absolute oids* that stay stable as the head is dropped, so
window bookkeeping survives draining. Each standing query registers a
:class:`Subscription`; :meth:`Basket.vacuum` deletes the prefix that
every subscription has released.

Concurrency contract: every structural mutation — append, vacuum,
subscribe — and every read that derives positions from ``first_oid``
holds the basket lock, so network/live receptor threads, the shell and
the scheduler thread interleave safely. A :class:`Subscription`'s cursors are single-writer (only the
owning factory advances them, under its firing lock); vacuum merely
*reads* ``released_upto``, and a stale read is safe — it can only make
vacuum drop less than it could, never tuples a subscriber still needs.
"""

from __future__ import annotations

import threading
from typing import (Any, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.errors import StreamError
from repro.mal.bat import BAT
from repro.mal.relation import Relation
from repro.storage import types as dt
from repro.storage.schema import Schema

# append taps receive (lo_oid, hi_oid, now) after every append while the
# basket lock is held — callbacks must be tiny and lock-free (the net
# edge's replay subscriptions park on an Event set here)


class Subscription:
    """One query's consumption cursor over a basket.

    ``read_upto`` — next oid this subscriber has not yet seen.
    ``released_upto`` — tuples below this oid may be dropped for this
    subscriber (for sliding windows this trails ``read_upto`` by up to a
    window, unless the query caches intermediates and releases eagerly).
    """

    __slots__ = ("name", "read_upto", "released_upto", "paused")

    def __init__(self, name: str, start_oid: int):
        self.name = name
        self.read_upto = start_oid
        self.released_upto = start_oid
        self.paused = False

    def release(self, upto_oid: int) -> None:
        if upto_oid > self.released_upto:
            self.released_upto = upto_oid

    def __repr__(self) -> str:
        return (f"Subscription({self.name}, read={self.read_upto}, "
                f"released={self.released_upto})")


class Basket:
    """A columnar stream buffer with subscriber-driven garbage collection."""

    def __init__(self, name: str, schema: Schema):
        self.name = name.lower()
        self.schema = schema
        self._bats: Dict[str, BAT] = {c.name: BAT(c.dtype)
                                      for c in schema.columns}
        self._arrival = BAT(dt.TIMESTAMP)
        self._subs: Dict[str, Subscription] = {}
        self._lock = threading.RLock()
        self._pins = 0
        self.locked_by: Optional[str] = None
        # durability: when a StreamLog is attached every append is
        # mirrored to it under the same lock hold, so log offsets and
        # basket oids are one coordinate system
        self._log = None
        # paged history: when a PagedWindowBinder is attached, read
        # paths serve oid ranges below first_oid from log segments
        # (zero-copy views) instead of clamping them away
        self._pager = None
        self._taps: List[Any] = []
        # statistics (the demo's monitoring pane reads these)
        self.total_in = 0
        self.total_dropped = 0
        self.high_water = 0
        self.paused = False

    # -- oid bookkeeping ------------------------------------------------
    # the oid properties are intentionally lock-free: each is a single
    # read of values the GIL keeps coherent, and callers that need a
    # consistent (first, next) pair go through clamp_range/relation,
    # which take the lock

    @property
    def first_oid(self) -> int:
        return self._arrival.hseqbase

    @property
    def next_oid(self) -> int:
        return self._arrival.hseqbase + len(self._arrival)

    def __len__(self) -> int:
        return len(self._arrival)

    # -- ingestion --------------------------------------------------------

    def append_rows(self, rows: Iterable[Sequence[Any]], now: int) -> int:
        """Append tuples with arrival time *now*; returns count."""
        rows = list(rows)
        if not rows:
            return 0
        if self.paused:
            raise StreamError(f"stream {self.name!r} is paused")
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise StreamError(
                    f"basket {self.name}: expected {width} values, got "
                    f"{len(row)}")
        # stage each column as a storage array outside the lock: one
        # batch conversion per column instead of a per-row Python loop
        staged = [dt.coerce_column(coldef.dtype, [row[i] for row in rows])
                  for i, coldef in enumerate(self.schema.columns)]
        arrival = np.full(len(rows), now, dtype=np.int64)
        with self._lock:
            lo = self.next_oid
            for coldef, column in zip(self.schema.columns, staged):
                self._bats[coldef.name].extend(column)
            self._arrival.extend(arrival)
            self.total_in += len(rows)
            self.high_water = max(self.high_water, len(self))
            self._log_and_tap(lo, staged, arrival, now)
        return len(rows)

    def append_relation(self, rel: Relation, now: int
                        ) -> Tuple[int, int]:
        """Append *rel*; returns the appended oid range ``(lo, hi)``
        (read under the same lock hold as the append, so a concurrent
        appender cannot interleave between them)."""
        if rel.names != self.schema.names:
            rel = rel.renamed(self.schema.names)
        n = rel.row_count
        arrival = np.full(n, now, dtype=np.int64)
        with self._lock:
            lo = self.next_oid
            if n == 0:
                return lo, lo
            for coldef in self.schema.columns:
                self._bats[coldef.name].append_bat(rel.column(coldef.name))
            self._arrival.extend(arrival)
            self.total_in += n
            self.high_water = max(self.high_water, len(self))
            self._log_and_tap(
                lo, [rel.column(c.name).values
                     for c in self.schema.columns], arrival, now)
        return lo, lo + n

    # -- durability & taps -------------------------------------------------

    def attach_log(self, log) -> None:
        """Mirror every future append to *log* (a
        :class:`repro.store.log.StreamLog`). The log's next offset must
        equal this basket's next oid — offsets and oids are one
        coordinate system from here on."""
        with self._lock:
            if log.next_offset != self.next_oid:
                raise StreamError(
                    f"basket {self.name!r}: log offset "
                    f"{log.next_offset} != next oid {self.next_oid}")
            self._log = log

    @property
    def log(self):
        return self._log

    def attach_pager(self, pager) -> None:
        """Serve vacuumed history through *pager* (a
        :class:`repro.store.paging.PagedWindowBinder`). From here on
        ``relation``/``arrival_slice``/``oid_at_or_after`` extend below
        ``first_oid`` down to ``pager.floor`` — window cursors page
        over log-resident history instead of being clamped to the
        retained prefix."""
        with self._lock:
            self._pager = pager

    @property
    def pager(self):
        return self._pager

    def history_floor(self) -> int:
        """Oldest oid readable through this basket: the pager's
        retention floor when history is paged, else ``first_oid``."""
        pager = self._pager
        if pager is None:
            return self.first_oid
        return min(self.first_oid, pager.floor)

    def add_tap(self, tap) -> None:
        """Register an append tap ``tap(lo_oid, hi_oid, now)`` — called
        under the basket lock after every append. Callbacks must be
        tiny and lock-free (set an event, bump a counter)."""
        with self._lock:
            self._taps.append(tap)

    def remove_tap(self, tap) -> None:
        with self._lock:
            self._taps = [t for t in self._taps if t is not tap]

    def _log_and_tap(self, lo: int, columns: List[np.ndarray],
                     arrival: np.ndarray, now: int) -> None:
        hi = self.next_oid
        if self._log is not None:
            _llo, lhi = self._log.append(columns, arrival)
            if lhi != hi:
                raise StreamError(
                    f"basket {self.name!r}: log drifted to {lhi}, "
                    f"basket at {hi}")
        for tap in self._taps:
            tap(lo, hi, now)

    # -- recovery adoption -------------------------------------------------

    def adopt_columns(self, base_oid: int,
                      columns: Dict[str, np.ndarray],
                      arrival: np.ndarray) -> int:
        """Adopt log-read column arrays as this basket's content.

        Zero-copy (``BAT.adopt_array``): the arrays become the BAT
        heaps, positioned at absolute oid *base_oid*. Only valid on a
        fresh, empty basket — the recovery path.
        """
        with self._lock:
            if len(self._arrival) or self._arrival.hseqbase:
                raise StreamError(
                    f"basket {self.name!r} is not fresh; cannot adopt")
            n = len(arrival)
            for coldef in self.schema.columns:
                values = columns[coldef.name]
                if len(values) != n:
                    raise StreamError(
                        f"basket {self.name!r}: column "
                        f"{coldef.name!r} has {len(values)} rows, "
                        f"arrival has {n}")
                self._bats[coldef.name] = BAT.adopt_array(
                    coldef.dtype, values, hseqbase=base_oid)
            self._arrival = BAT.adopt_array(dt.TIMESTAMP, arrival,
                                            hseqbase=base_oid)
            self.total_in = base_oid + n
            self.total_dropped = base_oid
            self.high_water = max(self.high_water, n)
            return n

    def rehydrate(self, base_oid: int, columns: Dict[str, np.ndarray],
                  arrival: np.ndarray) -> int:
        """Extend the retained head *downward* with log-read history.

        ``[base_oid, first_oid)`` must be exactly the range provided —
        a replay subscription starting below the retained prefix pulls
        the gap back out of the log through here.
        """
        with self._lock:
            n = len(arrival)
            if base_oid + n != self.first_oid:
                raise StreamError(
                    f"basket {self.name!r}: rehydrate range "
                    f"[{base_oid},{base_oid + n}) does not meet "
                    f"first oid {self.first_oid}")
            if n == 0:
                return 0
            for coldef in self.schema.columns:
                merged = np.concatenate(
                    [columns[coldef.name],
                     self._bats[coldef.name].values])
                self._bats[coldef.name] = BAT.adopt_array(
                    coldef.dtype, merged, hseqbase=base_oid)
            self._arrival = BAT.adopt_array(
                dt.TIMESTAMP,
                np.concatenate([arrival, self._arrival.values]),
                hseqbase=base_oid)
            self.total_dropped = max(0, self.total_dropped - n)
            self.high_water = max(self.high_water, len(self))
            return n

    # -- reading ------------------------------------------------------------

    def clamp_range(self, lo_oid: Optional[int],
                    hi_oid: Optional[int]) -> tuple:
        """Clamp an oid range to the readable region (None = unbounded).

        The readable region is the live basket, extended down to the
        pager's retention floor when log-resident history is paged
        (an explicit *lo_oid* below ``first_oid`` then survives the
        clamp and :meth:`relation` serves it from segment views). The
        recycler keys shared window slices on the clamped range so
        every phrasing of the same window maps to one cache entry.
        """
        with self._lock:
            floor = self.first_oid
            if self._pager is not None:
                floor = min(floor, self._pager.floor)
            lo = self.first_oid if lo_oid is None else max(lo_oid, floor)
            hi = self.next_oid if hi_oid is None else min(hi_oid,
                                                          self.next_oid)
            if hi < lo:
                hi = lo
            return lo, hi

    def relation(self, lo_oid: Optional[int] = None,
                 hi_oid: Optional[int] = None) -> Relation:
        """Tuples with oid in [lo_oid, hi_oid) as a relation.

        ``lo_oid=None`` means "from the retained head" — exactly the
        live basket, never paged history. An *explicit* ``lo_oid``
        below ``first_oid`` reaches into log-resident history when a
        pager is attached: the vacuumed prefix is served from sealed
        segment views (zero-copy for single-segment fixed-width
        windows) and stitched to the in-memory suffix. Without a pager
        the historic prefix is clamped away, as before.
        """
        pager = self._pager
        if (pager is not None and lo_oid is not None
                and lo_oid < self.first_oid):
            return self._paged_relation(lo_oid, hi_oid, pager)
        with self._lock:
            lo = self.first_oid if lo_oid is None else max(lo_oid,
                                                           self.first_oid)
            hi = self.next_oid if hi_oid is None else min(hi_oid,
                                                          self.next_oid)
            start = lo - self.first_oid
            stop = hi - self.first_oid
            if stop < start:
                stop = start
            return Relation(
                (c.name, self._bats[c.name].slice(start, stop))
                for c in self.schema.columns)

    def _paged_relation(self, lo_oid: int, hi_oid: Optional[int],
                        pager) -> Relation:
        """Serve ``[lo_oid, hi)`` with the sub-``first_oid`` prefix
        paged from the log. The in-memory suffix is copied under the
        basket lock (stable positions); the paged prefix is immutable
        on disk, so its read happens outside the lock and never blocks
        appends."""
        with self._lock:
            first = self.first_oid
            hi = self.next_oid if hi_oid is None else min(hi_oid,
                                                          self.next_oid)
            mem_rel = None
            if hi > first:
                stop = hi - first
                mem_rel = Relation(
                    (c.name, self._bats[c.name].slice(0, stop))
                    for c in self.schema.columns)
        lo = max(lo_oid, pager.floor)
        page_hi = min(hi, first)
        if page_hi <= lo:
            if mem_rel is not None:
                return mem_rel
            return Relation((c.name, BAT(c.dtype))
                            for c in self.schema.columns)
        paged = pager.relation(lo, page_hi)
        if mem_rel is None or mem_rel.row_count == 0:
            return paged
        cols = []
        for c in self.schema.columns:
            merged = np.concatenate(
                [np.asarray(paged.column(c.name).values),
                 mem_rel.column(c.name).values])
            cols.append((c.name, BAT.adopt_array(c.dtype, merged)))
        return Relation(cols)

    def snapshot_range(self, lo_oid: int, hi_oid: int
                       ) -> Tuple[Relation, Tuple[int, int]]:
        """Like :meth:`relation` but also returns the clamped
        ``(lo, hi)`` actually covered, decided under one lock hold.

        Replay readers need this: between deciding a range and copying
        it, vacuum may drop the head — the clamped lo tells the caller
        which prefix it must re-read from the durable log instead.
        """
        with self._lock:
            lo = max(lo_oid, self.first_oid)
            hi = min(hi_oid, self.next_oid)
            if hi < lo:
                hi = lo
            start = lo - self.first_oid
            stop = hi - self.first_oid
            rel = Relation(
                (c.name, self._bats[c.name].slice(start, stop))
                for c in self.schema.columns)
            return rel, (lo, hi)

    def arrival_slice(self, lo_oid: int, hi_oid: int
                      ) -> Tuple[np.ndarray, Tuple[int, int]]:
        """Arrival timestamps for oids in ``[lo_oid, hi_oid)``, plus
        the clamped ``(lo, hi)`` actually covered.

        After a partial vacuum ``lo_oid`` may fall below ``first_oid``;
        silently clamping to position 0 used to hand back an array
        *misaligned* with the requested oid range (``result[i]`` was
        not the arrival of ``lo_oid + i``). Returning the clamped
        bounds alongside keeps time-window callers from misattributing
        arrivals: ``result[i]`` is the arrival time of oid
        ``clamped_lo + i``. With a pager attached the historic prefix
        down to the retention floor is served from the log's ``__ts``
        segments instead of being clamped away.
        """
        pager = self._pager
        with self._lock:
            first = self.first_oid
            lo = max(lo_oid, first)
            hi = min(hi_oid, self.next_oid)
            if hi < lo:
                hi = lo
            start = lo - first
            stop = hi - first
            mem = self._arrival.values[start:stop].copy()
        if pager is None or lo_oid >= first:
            return mem, (lo, hi)
        page_lo = max(lo_oid, pager.floor)
        page_hi = min(min(hi_oid, self.next_oid), first)
        if page_hi <= page_lo:
            return mem, (lo, hi)
        paged = np.asarray(pager.arrival(page_lo, page_hi))
        if len(paged) != page_hi - page_lo:
            # retention raced us past page_lo; keep alignment by
            # trusting only the suffix the pager actually returned
            page_lo = page_hi - len(paged)
        if len(mem) == 0:
            return paged, (page_lo, page_lo + len(paged))
        return (np.concatenate([paged, mem]),
                (page_lo, page_lo + len(paged) + len(mem)))

    def oid_at_or_after(self, instant_ms: int) -> int:
        """Smallest readable oid whose arrival time is >= *instant_ms*.

        Searches the retained arrival BAT; when the answer clamps to
        ``first_oid`` and a pager is attached, the search extends into
        log-resident history — a time window whose lower bound predates
        the vacuum floor resolves to the true historic oid instead of
        silently snapping to the retained head.
        """
        with self._lock:
            pos = int(np.searchsorted(self._arrival.values, instant_ms,
                                      side="left"))
            first = self.first_oid
        pager = self._pager
        if pos == 0 and pager is not None and pager.floor < first:
            return pager.oid_at_or_after(instant_ms, first)
        return first + pos

    def column(self, name: str) -> BAT:
        return self._bats[name.lower()]

    # -- subscriptions & draining ----------------------------------------------

    def subscribe(self, name: str, from_start: bool = False,
                  start_oid: Optional[int] = None) -> Subscription:
        """Register a consumer; new subscribers start at the stream head
        unless ``from_start`` replays the readable prefix or
        *start_oid* positions the cursor explicitly. Explicit cursors
        clamp to the retained oid range — except when a pager is
        attached, in which case they may start as low as the pager's
        retention floor and the factory's reads page the historic
        prefix out of the log. ``from_start`` likewise starts at the
        pager floor when history is paged."""
        with self._lock:
            if name in self._subs:
                raise StreamError(
                    f"subscription {name!r} already exists on basket "
                    f"{self.name!r}")
            floor = self.first_oid
            if self._pager is not None:
                floor = min(floor, self._pager.floor)
            if start_oid is not None:
                start = min(max(start_oid, floor), self.next_oid)
            else:
                start = floor if from_start else self.next_oid
            sub = Subscription(name, start)
            self._subs[name] = sub
            return sub

    def unsubscribe(self, name: str) -> None:
        with self._lock:
            self._subs.pop(name, None)

    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._subs.values())

    def vacuum(self) -> int:
        """Drop the prefix every subscription has released; returns the
        number of tuples dropped. With no subscribers nothing is dropped
        (the basket is then an unread buffer, like a table). While any
        factory pins the basket (a plan body in flight) vacuuming is
        deferred to the next step — dropping the head would shift
        positions under a concurrent reader."""
        with self._lock:
            if self._pins or not self._subs:
                return 0
            floor = min(s.released_upto for s in self._subs.values())
            if self._log is not None:
                # never drop tuples the log has not persisted yet: a
                # crash would lose them from both memory and disk
                floor = min(floor, self._log.durable_offset)
            drop = floor - self.first_oid
            if drop <= 0:
                return 0
            for bat in self._bats.values():
                bat.delete_head(drop)
            self._arrival.delete_head(drop)
            self.total_dropped += drop
            return drop

    # -- locking (factories bracket plan bodies with these) -------------------------
    # a *shared* pin latch, not an exclusive hold: factories fired
    # from different threads (scheduler, live mode, shell) all read
    # immutable materialized slices, so excluding each other buys no
    # correctness. Pinning only defers vacuum (the one structural
    # change that shifts positions); appends stay safe because slices
    # snapshot the oid range before the plan body runs.

    def lock(self, owner: str) -> None:
        with self._lock:
            self._pins += 1
            self.locked_by = owner

    def unlock(self, owner: str) -> None:
        with self._lock:
            self._pins = max(self._pins - 1, 0)
            if self._pins == 0:
                self.locked_by = None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self), "total_in": self.total_in,
                    "total_dropped": self.total_dropped,
                    "high_water": self.high_water,
                    "subscribers": len(self._subs)}

    def __repr__(self) -> str:
        return (f"Basket({self.name}, size={len(self)}, "
                f"oids=[{self.first_oid},{self.next_oid}))")

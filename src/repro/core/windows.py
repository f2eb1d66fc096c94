"""Window semantics: specs, per-query window cursors, basic windows.

DataCell *"achieves incremental processing by partitioning a window into
n smaller parts, called basic windows. Each basic window is of equal
size to the sliding step of the window and is processed separately."*

Two layers live here:

* :class:`WindowState` — the re-evaluation cursor: when is the next full
  window available, which oid range does it cover, how far may the
  basket drop tuples.
* :class:`BasicWindowTracker` — the incremental cursor: which basic
  windows are newly complete (to be processed once and cached) and which
  set of basic windows composes the next full window.

Tuple windows count tuples; time windows use basket arrival timestamps
(milliseconds). For tumbling windows ``slide == size`` and both modes
coincide.

Log-resident history: both cursors express windows as absolute oid
ranges and read them through the basket (``relation``,
``arrival_slice``, ``oid_at_or_after``). When the basket carries a
:class:`~repro.store.paging.PagedWindowBinder` those reads extend
*below* ``first_oid`` down to the log's retention floor — a
``from_start`` replay cursor or a recovered cursor whose window dips
under the vacuum floor pages sealed segments as zero-copy views
instead of clamping to the retained prefix (or rehydrating the whole
range into memory). Neither cursor needs to know which side of
``first_oid`` its bounds fall on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import WindowError
from repro.core.basket import Basket, Subscription
from repro.sql.ast import WindowClause


class WindowSpec:
    """Normalized window description.

    ``kind`` is ``"none"`` (consume everything new), ``"tuple"`` or
    ``"time"``. Time sizes are milliseconds. ``slide`` defaults to
    ``size`` (tumbling).
    """

    __slots__ = ("kind", "size", "slide")

    def __init__(self, kind: str, size: int = 0, slide: Optional[int] = None):
        if kind not in ("none", "tuple", "time"):
            raise WindowError(f"unknown window kind {kind!r}")
        if kind != "none":
            if size <= 0:
                raise WindowError("window size must be positive")
            slide = size if slide is None else slide
            if slide <= 0:
                raise WindowError("window slide must be positive")
            if slide > size:
                raise WindowError(
                    f"slide {slide} larger than window size {size} "
                    f"(gaps between windows are not supported)")
        self.kind = kind
        self.size = size
        self.slide = slide if kind != "none" else 0

    @classmethod
    def none(cls) -> "WindowSpec":
        return cls("none")

    @classmethod
    def from_clause(cls, clause: Optional[WindowClause]) -> "WindowSpec":
        if clause is None:
            return cls.none()
        if clause.time_based:
            slide = clause.slide * 1000 if clause.slide is not None else None
            return cls("time", clause.size * 1000, slide)
        return cls("tuple", clause.size, clause.slide)

    @property
    def is_sliding(self) -> bool:
        return self.kind != "none" and self.slide < self.size

    @property
    def is_tumbling(self) -> bool:
        return self.kind != "none" and self.slide == self.size

    @property
    def basic_window_count(self) -> int:
        """Number of basic windows composing one full window."""
        if self.kind == "none":
            raise WindowError("unwindowed scans have no basic windows")
        if self.size % self.slide != 0:
            raise WindowError(
                f"window size {self.size} is not a multiple of slide "
                f"{self.slide}; incremental mode needs equal basic windows")
        return self.size // self.slide

    def __repr__(self) -> str:
        if self.kind == "none":
            return "WindowSpec(none)"
        return f"WindowSpec({self.kind}, size={self.size}, slide={self.slide})"


class WindowState:
    """Re-evaluation cursor for one (query, stream) pair.

    Exposes the Petri-net firing condition (:meth:`ready`), the oid range
    of the next evaluation (:meth:`slice_bounds`) and moves the window
    forward after a fire (:meth:`advance`), releasing expired tuples.
    """

    def __init__(self, spec: WindowSpec, basket: Basket,
                 sub: Subscription, anchor_time: int = 0):
        self.spec = spec
        self.basket = basket
        self.sub = sub
        self._win_start_oid = sub.read_upto
        self._next_fire_time = anchor_time + spec.size \
            if spec.kind == "time" else 0
        self.fires = 0

    # -- firing condition --------------------------------------------

    def has_new_data(self) -> bool:
        return self.basket.next_oid > self.sub.read_upto

    def pending_tuples(self) -> int:
        return self.basket.next_oid - self.sub.read_upto

    def ready(self, now: int) -> bool:
        if self.sub.paused:
            return False
        if self.spec.kind == "none":
            return self.has_new_data()
        if self.spec.kind == "tuple":
            return self.basket.next_oid >= \
                self._win_start_oid + self.spec.size
        return now >= self._next_fire_time

    def next_timer(self, now: int) -> Optional[int]:
        """Clock time at which :meth:`ready` turns true with no further
        arrival: a time window's close, *now* when it already is,
        ``None`` when only an arrival or a resume can make it so."""
        if self.spec.kind == "time" and not self.sub.paused:
            return self._next_fire_time
        return now if self.ready(now) else None

    # -- window extent -----------------------------------------------

    def slice_bounds(self, now: int) -> Tuple[int, int]:
        """Absolute oid range [lo, hi) the next firing evaluates.

        The lo bound may fall below ``basket.first_oid`` (a replay
        cursor, or a time window anchored before the vacuum floor);
        the basket then serves the historic prefix through its paged
        binder when one is attached. ``basket.oid_at_or_after`` is
        pager-aware for the same reason: a time bound predating the
        retained arrivals resolves against the log's ``__ts``
        segments rather than snapping to ``first_oid``."""
        if self.spec.kind == "none":
            return self.sub.read_upto, self.basket.next_oid
        if self.spec.kind == "tuple":
            return (self._win_start_oid,
                    self._win_start_oid + self.spec.size)
        hi_t = self._next_fire_time
        lo_t = hi_t - self.spec.size
        return (self.basket.oid_at_or_after(lo_t),
                self.basket.oid_at_or_after(hi_t))

    # -- advancing ------------------------------------------------------

    def advance(self, now: int,
                consumed_upto: Optional[int] = None) -> None:
        """Move to the next window and release expired tuples.

        *consumed_upto* is the hi bound the firing actually evaluated.
        Unwindowed cursors must advance to that bound, not to the
        current ``next_oid``: another thread (a ``feed``) may have
        appended tuples mid-evaluation, and recomputing the bound here
        would release them unseen.
        """
        _lo, hi = self.slice_bounds(now)
        self.fires += 1
        if self.spec.kind == "none":
            if consumed_upto is not None:
                hi = consumed_upto
            self.sub.read_upto = hi
            self.sub.release(hi)
            return
        if self.spec.kind == "tuple":
            self._win_start_oid += self.spec.slide
            self.sub.read_upto = max(self.sub.read_upto, hi)
            self.sub.release(self._win_start_oid)
            return
        self._next_fire_time += self.spec.slide
        self.sub.read_upto = max(self.sub.read_upto, hi)
        new_lo_t = self._next_fire_time - self.spec.size
        self.sub.release(self.basket.oid_at_or_after(new_lo_t))

    # -- checkpoint / recovery -----------------------------------------

    def snapshot(self) -> dict:
        """Durable cursor state (engine checkpoint). Everything needed
        to resume firing at the same window after a crash, given a
        basket rebuilt from the log over at least
        ``[released_upto, ...)``."""
        return {"kind": "window",
                "win_start_oid": self._win_start_oid,
                "next_fire_time": self._next_fire_time,
                "fires": self.fires,
                "read_upto": self.sub.read_upto,
                "released_upto": self.sub.released_upto}

    def restore(self, state: dict) -> None:
        """Reposition this cursor from a checkpoint snapshot."""
        if state.get("kind") != "window":
            raise WindowError(
                f"cursor snapshot kind {state.get('kind')!r} does not "
                f"match a WindowState")
        self._win_start_oid = int(state["win_start_oid"])
        self._next_fire_time = int(state["next_fire_time"])
        self.fires = int(state["fires"])
        self.sub.read_upto = int(state["read_upto"])
        self.sub.released_upto = int(state["released_upto"])

    def __repr__(self) -> str:
        return (f"WindowState({self.basket.name}, {self.spec!r}, "
                f"fires={self.fires})")


class BasicWindowTracker:
    """Incremental cursor: basic-window accounting for one stream input.

    Basic window ``j`` covers slide-sized extent ``j`` counted from the
    subscription anchor. Full window ``k`` is composed of basic windows
    ``[k, k + n)`` where ``n = size / slide``. The tracker tells the
    incremental factory which basic windows became complete (to process
    & cache once) and when the next full window can fire.
    """

    def __init__(self, spec: WindowSpec, basket: Basket,
                 sub: Subscription, anchor_time: int = 0):
        if spec.kind == "none":
            raise WindowError("incremental mode needs a window clause")
        self.n_basic = spec.basic_window_count  # validates divisibility
        self.spec = spec
        self.basket = basket
        self.sub = sub
        self._anchor_oid = sub.read_upto
        self._anchor_time = anchor_time
        self._next_bw = 0       # first basic window not yet processed
        self._next_window = 0   # next full window index to fire
        self.fires = 0

    # -- basic-window extents ------------------------------------------

    def _bw_bounds(self, j: int) -> Tuple[int, int]:
        if self.spec.kind == "tuple":
            lo = self._anchor_oid + j * self.spec.slide
            return lo, lo + self.spec.slide
        lo_t = self._anchor_time + j * self.spec.slide
        hi_t = lo_t + self.spec.slide
        return (self.basket.oid_at_or_after(lo_t),
                self.basket.oid_at_or_after(hi_t))

    def _bw_complete(self, j: int, now: int) -> bool:
        if self.spec.kind == "tuple":
            return self.basket.next_oid >= \
                self._anchor_oid + (j + 1) * self.spec.slide
        return now >= self._anchor_time + (j + 1) * self.spec.slide

    # -- factory interface ------------------------------------------------

    def new_basic_windows(self, now: int
                          ) -> List[Tuple[int, int, int]]:
        """Newly complete basic windows as ``(index, lo_oid, hi_oid)``.

        Marks them processed: tuples below the last returned bound are
        released (their contribution now lives in cached intermediates —
        this is the "keep the proper intermediates around" memory win).
        """
        out: List[Tuple[int, int, int]] = []
        j = self._next_bw
        while self._bw_complete(j, now):
            lo, hi = self._bw_bounds(j)
            out.append((j, lo, hi))
            self.sub.read_upto = max(self.sub.read_upto, hi)
            self.sub.release(hi)
            j += 1
        self._next_bw = j
        return out

    def ready(self, now: int) -> bool:
        """True when :meth:`new_basic_windows` has handed out every
        basic window of the next full window.

        Decided from the processing cursor alone, never from live
        basket state: an append landing between the factory's poll and
        this check would otherwise fire a window whose newest basic
        window was never processed."""
        if self.sub.paused:
            return False
        return self._next_bw >= self._next_window + self.n_basic

    def next_timer(self, now: int) -> Optional[int]:
        """As :meth:`WindowState.next_timer`; the timer of a time
        tracker is the close of the next basic window ``poll`` absorbs."""
        if self.spec.kind == "time" and not self.sub.paused:
            return self._anchor_time + (self._next_bw + 1) * self.spec.slide
        return now if self.ready(now) else None

    def window_composition(self) -> Tuple[int, List[int]]:
        """(window index, list of basic-window indexes) for the next fire."""
        k = self._next_window
        return k, list(range(k, k + self.n_basic))

    def advance(self) -> List[int]:
        """Finish the current window; returns evictable bw indexes."""
        self.fires += 1
        self._next_window += 1
        return list(range(self._next_window - 1, self._next_window))

    def live_floor(self) -> int:
        """Smallest basic-window index any future window still needs."""
        return self._next_window

    # -- checkpoint / recovery -----------------------------------------

    def snapshot(self) -> dict:
        """Durable cursor state (engine checkpoint).

        ``floor_oid`` — the lo bound of the next full window — is
        computed *now*; for time windows this consults
        ``basket.oid_at_or_after``, which pages into log-resident
        arrivals when part of the next window has already been
        vacuumed (without the pager the lookup would snap to
        ``first_oid`` and the snapshot would over-report the floor).
        Recovery restores the cursor here and serves any basic window
        dipping below the rebuilt basket through the paged binder
        (cached intermediates are not persisted).
        """
        floor_oid, _ = self._bw_bounds(self._next_window)
        return {"kind": "tracker",
                "anchor_oid": self._anchor_oid,
                "anchor_time": self._anchor_time,
                "next_window": self._next_window,
                "fires": self.fires,
                "floor_oid": floor_oid}

    def restore(self, state: dict) -> None:
        """Reposition from a checkpoint snapshot: the processing cursor
        rewinds to the next full window's first basic window
        (``_next_bw = _next_window``) so the executor — whose cache
        died with the process — sees every still-needed basic window
        again."""
        if state.get("kind") != "tracker":
            raise WindowError(
                f"cursor snapshot kind {state.get('kind')!r} does not "
                f"match a BasicWindowTracker")
        self._anchor_oid = int(state["anchor_oid"])
        self._anchor_time = int(state["anchor_time"])
        self._next_window = int(state["next_window"])
        self._next_bw = self._next_window
        self.fires = int(state["fires"])
        floor = int(state["floor_oid"])
        self.sub.read_upto = floor
        self.sub.released_upto = floor

    def __repr__(self) -> str:
        return (f"BasicWindowTracker({self.basket.name}, n={self.n_basic},"
                f" next_bw={self._next_bw}, next_win={self._next_window})")

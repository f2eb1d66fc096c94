"""Factories: resident continuous-query co-routines.

*"Continuous query plans are represented by factories [...] Each factory
encloses a (partial) query plan and produces a partial result at each
call. For this, a factory continuously reads data from the input baskets,
evaluates its query plan and creates a result set, which it then places
in its output baskets."*

Two concrete factories implement the demo's two execution modes:

* :class:`ReevalFactory` — re-runs the full (rewritten) MAL program over
  the complete current window every firing;
* :class:`IncrementalFactory` — processes each basic window once through
  the per-slice pipeline, caches intermediates, and merges at firing
  time (see :mod:`repro.core.incremental`).

Both share one skeleton — :class:`Factory` owns the per-stream window
cursors and with them the firing condition, checkpoint snapshots and
failure quarantine — and differ only in how a firing is evaluated and
committed.

Both modes read their windows through the basket (``basket.relation`` /
``recycler.window_slice``), so a window whose lo bound dips below the
basket's vacuum floor is transparently served from log-resident history when the basket carries a paged binder
(:class:`~repro.store.paging.PagedWindowBinder`) — replay and recovered
cursors fire over multi-day logs without the factory materializing or
even knowing about the historic prefix.
"""

from __future__ import annotations

import threading
import time
from typing import (Any, Dict, List, NoReturn, Optional, Tuple,
                    Union)

from repro.core.basket import Basket
from repro.core.emitter import Emitter
from repro.core.incremental import IncrementalAnalysis, IncrementalExecutor
from repro.core.windows import BasicWindowTracker, WindowState
from repro.errors import FactoryError, MALError
from repro.mal.compiler import compile_program, record_compile_fallback
from repro.mal.fingerprint import cached_fingerprints
from repro.mal.interpreter import MALContext, MALInterpreter
from repro.mal.program import MALProgram
from repro.mal.relation import Relation
from repro.sql.executor import ExecutionContext
from repro.sql.plan import PlanNode
from repro.storage.catalog import Catalog

RUNNING = "running"
PAUSED = "paused"
FAILED = "failed"

# what ``register_continuous(mode=...)`` accepts — the shell and the pg
# ``REGISTER ... MODE`` syntax read this tuple, nothing spells it again
EXECUTION_MODES = ("auto", "reeval", "incremental")


class _BasketHooks:
    """Adapter so rewritten MAL programs can lock/drain real baskets."""

    def __init__(self, owner: str, baskets: Dict[str, Basket]):
        self.owner = owner
        self.baskets = baskets
        self.drains = 0

    def lock(self, stream: str) -> None:
        self.baskets[stream].lock(self.owner)

    def unlock(self, stream: str) -> None:
        self.baskets[stream].unlock(self.owner)

    def drain(self, stream: str) -> None:
        self.drains += 1  # the window cursor decides what is released


Cursor = Union[WindowState, BasicWindowTracker]


class Factory:
    """Base class: state machine, window cursors and statistics shared
    by both modes."""

    def __init__(self, name: str, baskets: Dict[str, Basket],
                 emitter: Emitter,
                 cursors: Optional[Dict[str, Cursor]] = None):
        self.name = name
        self.baskets = baskets
        self.emitter = emitter
        # one window cursor per input stream
        self.cursors: Dict[str, Cursor] = cursors or {}
        self._windowed = [c for c in self.cursors.values()
                          if c.spec.kind != "none"]
        self.state = RUNNING
        self.fires = 0
        self.tuples_in = 0
        self.rows_out = 0
        self.busy_seconds = 0.0
        self.last_error: Optional[Exception] = None
        self.last_result: Optional[Relation] = None
        # recyclable instruction fingerprints (reeval factories fill
        # this in; the engine feeds it to the recycler's census)
        self.recycle_fps: List[str] = []
        # wall time of the last successful _evaluate, in ms — the
        # recompute cost a chained output basket charges its adopted
        # emit payloads with
        self.last_eval_ms = 0.0
        # one firing at a time per factory: the scheduler thread fires
        # serially, but engine-level callers (live mode, shell) may
        # also fire concurrently
        self._fire_lock = threading.Lock()

    # scheduler protocol ------------------------------------------------

    def poll(self, now: int) -> None:
        """Absorb newly arrived data (incremental mode works here)."""
        return None

    def enabled(self, now: int) -> bool:
        """The Petri-net firing condition: every windowed input has its
        next window available — or, for a plan over unwindowed inputs
        only, some input has new tuples and no batch hold applies."""
        if self._windowed:
            return self.state == RUNNING \
                and all(c.ready(now) for c in self._windowed)
        due = self.next_deadline(now)
        return due is not None and due <= now

    def next_deadline(self, now: int) -> Optional[int]:
        """Clock time at which this factory has work with no further
        arrival (the serving loop sleeps until then): the latest of its
        windowed inputs' ``next_timer``, or the end of a batch hold.
        ``None`` when only an arrival or a resume can enable it."""
        if self.state != RUNNING:
            return None
        if self._windowed:
            timers = [c.next_timer(now) for c in self._windowed]
            return None if None in timers else max(timers)
        if any(c.ready(now) for c in self.cursors.values()):
            return self._batch_deadline(now)
        return None

    def _batch_deadline(self, now: int) -> Optional[int]:
        """Clock time at which pending unwindowed tuples may fire."""
        return now

    def fire(self, now: int) -> Optional[Relation]:
        """One firing; delivers to the emitter and returns the result.

        Evaluation is split in two: :meth:`_evaluate` computes the
        result and *returns* its consumption bound, then
        :meth:`_commit` advances the window cursors. Keeping the
        shared-state mutation out of the evaluation body means a
        concurrent observer (vacuum, monitor) never sees a half-fired
        cursor, and a failed evaluation leaves the cursors untouched.
        """
        if self.state != RUNNING:
            return None
        with self._fire_lock:
            started = time.perf_counter()
            try:
                result, consumed = self._evaluate(now)
                self.last_eval_ms = \
                    (time.perf_counter() - started) * 1000.0
                self._commit(now, consumed)
            except Exception as exc:
                self._quarantine(exc)
            finally:
                self.busy_seconds += time.perf_counter() - started
            self.fires += 1
            self.last_result = result
            if result is not None:
                self.rows_out += result.row_count
                self.emitter.deliver(result, now)
            return result

    def _quarantine(self, exc: Exception, where: str = "") -> NoReturn:
        """Mark this factory failed and raise the :class:`FactoryError`
        the scheduler records — the rest of the net keeps running."""
        self.state = FAILED
        self.last_error = exc
        raise FactoryError(
            f"factory {self.name!r} failed{where}: {exc}", self.name,
            cause=exc) from exc

    def _evaluate(self, now: int
                  ) -> Tuple[Optional[Relation], Optional[Any]]:
        """Compute one firing's result; returns ``(result, consumed)``
        where *consumed* is the consumption bound handed to
        :meth:`_commit` (shape is subclass-private)."""
        raise NotImplementedError

    def _commit(self, now: int, consumed: Optional[Any]) -> None:
        """Advance window cursors/subscriptions after a successful
        evaluation."""
        return None

    def input_streams(self) -> List[str]:
        return sorted(self.baskets)

    def cursor_snapshot(self) -> Dict[str, dict]:
        """Per-stream window-cursor snapshots for the engine's durable
        checkpoint (see :mod:`repro.store`); restored after a crash
        with :meth:`cursor_restore`."""
        return {s: c.snapshot() for s, c in self.cursors.items()}

    def cursor_restore(self, states: Dict[str, dict]) -> None:
        """Reposition window cursors from a checkpoint snapshot.

        Only the cursors are durable: call this on a freshly built
        factory (recovery re-registers the query first), whose operator
        state is empty — rewound basic-window trackers then re-feed
        every still-needed basic window."""
        for stream, cursor in self.cursors.items():
            if stream in states:
                cursor.restore(states[stream])

    def pause(self) -> None:
        if self.state == RUNNING:
            self.state = PAUSED

    def resume(self) -> None:
        if self.state == PAUSED:
            self.state = RUNNING

    def stats(self) -> Dict[str, float]:
        return {"fires": self.fires, "tuples_in": self.tuples_in,
                "rows_out": self.rows_out,
                "busy_seconds": round(self.busy_seconds, 6),
                "state": self.state}

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name}, fires={self.fires}, "
                f"state={self.state})")


class ReevalFactory(Factory):
    """Mode 1: full re-evaluation of the continuous MAL program.

    Optional scheduler *time constraints* apply to unwindowed inputs:
    hold the firing until ``min_batch`` tuples are pending or the oldest
    pending tuple is ``max_delay_ms`` old — the paper's "possibly
    delaying events in their baskets for some time".
    """

    def __init__(self, name: str, program: MALProgram, plan: PlanNode,
                 cursors: Dict[str, WindowState],
                 baskets: Dict[str, Basket], catalog: Catalog,
                 emitter: Emitter, min_batch: int = 1,
                 max_delay_ms: Optional[int] = None, recycler=None,
                 compiled: bool = True, profile: bool = False):
        super().__init__(name, baskets, emitter, cursors)
        self.program = program
        self.plan = plan
        self.catalog = catalog
        self.min_batch = max(int(min_batch), 1)
        self.max_delay_ms = max_delay_ms
        self.recycler = recycler
        # slot-compile once at registration; a compile failure (open
        # opcode table, externally injected bindings) falls back to
        # the interpreter rather than rejecting the query
        self.compiled = None
        if compiled:
            try:
                self.compiled = compile_program(program)
            except MALError:
                record_compile_fallback()
        # recyclable fingerprints for the recycler's sharing census
        # (only the compiled loop recycles), plus the cached whole-plan
        # admission decision
        if recycler is not None and self.compiled is not None:
            self.recycle_fps = [
                info.fp for info in cached_fingerprints(program)
                if info is not None and info.recyclable]
        self._gate_version = -1
        self._gate_recycle = True
        self._gate_modes: Optional[tuple] = None
        # per-opcode [calls, cumulative_ms], populated when profiling
        # is on (the firing lock serializes updates)
        self.profile_enabled = bool(profile)
        self.opcode_profile: Dict[str, List[float]] = {}

    def _batch_deadline(self, now: int) -> Optional[int]:
        """*now* once ``min_batch`` tuples wait, else the oldest pending
        arrival plus ``max_delay_ms`` (``None`` without that bound)."""
        if self.min_batch <= 1 and self.max_delay_ms is None:
            return now
        states = self.cursors.values()
        pending = sum(w.pending_tuples() for w in states)
        if pending >= self.min_batch:
            return now
        if self.max_delay_ms is None:
            return None
        oldest = None
        for w in states:
            if w.pending_tuples() <= 0:
                continue
            arr, (lo, _hi) = w.basket.arrival_slice(
                w.sub.read_upto, w.sub.read_upto + 1)
            if len(arr) and lo == w.sub.read_upto:
                t = int(arr[0])
                oldest = t if oldest is None else min(oldest, t)
        return None if oldest is None else oldest + self.max_delay_ms

    def _evaluate(self, now: int
                  ) -> Tuple[Optional[Relation], Dict[str, int]]:
        slices: Dict[str, Relation] = {}
        ranges: Dict[str, tuple] = {}
        for stream, ws in self.cursors.items():
            lo, hi = ws.slice_bounds(now)
            basket = self.baskets[stream]
            if self.recycler is not None:
                # one materialization per (basket, window) per net —
                # every factory reading this window shares the object
                rel, clamped = self.recycler.window_slice(basket, lo, hi)
            else:
                rel = basket.relation(lo, hi)
                clamped = basket.clamp_range(lo, hi)
            slices[stream] = rel
            ranges[stream] = clamped
            self.tuples_in += rel.row_count
        hooks = _BasketHooks(self.name, self.baskets)
        ctx = MALContext(self.catalog,
                         stream_reader=lambda name: slices[name],
                         basket_hooks=hooks)
        result = self._run_plan(ctx, ranges)
        return result, {stream: hi for stream, (_lo, hi)
                        in ranges.items()}

    def _run_plan(self, ctx: MALContext,
                  ranges: Dict[str, tuple]) -> Optional[Relation]:
        """Dispatch one firing to the specialized executor.

        Compiled plans take the slot loop (recycled or bare); plans
        that failed to compile run on the bare interpreter — the
        oracle, which never consults the recycler."""
        if self.compiled is None:
            return MALInterpreter(ctx).run(self.program)
        # recycle_fps is empty without a recycler or a recyclable step
        recycling = bool(self.recycle_fps) and self.recycler.enabled
        if recycling:
            # whole-plan admission: when the sharing census proves no
            # instruction of this plan can produce a cache hit, run
            # the bare loop. Cached until the census changes, so the
            # steady-state cost is one integer compare per firing.
            version = self.recycler.census_version
            if version != self._gate_version:
                self._gate_version = version
                self._gate_recycle = self.recycler.plan_should_recycle(
                    self.recycle_fps)
                # per-step admission snapshot: steps the ledger
                # retired run the bare thunk with no per-fire
                # recycler call at all
                if self._gate_recycle:
                    self._gate_modes = self.compiled.attempt_modes(
                        self.recycler)
            recycling = self._gate_recycle
        if self.profile_enabled:
            return self.compiled.run_profiled(
                ctx, self.opcode_profile,
                self.recycler if recycling else None, ranges,
                modes=self._gate_modes if recycling else None)
        if recycling:
            return self.compiled.run_recycled(
                ctx, self.recycler, ranges, self._gate_modes)
        return self.compiled.run(ctx)

    def _commit(self, now: int,
                consumed: Optional[Dict[str, int]]) -> None:
        for stream, ws in self.cursors.items():
            ws.advance(now, consumed_upto=consumed[stream])


class IncrementalFactory(Factory):
    """Mode 2: per-basic-window processing with cached intermediates."""

    def __init__(self, name: str, analysis: IncrementalAnalysis,
                 cursors: Dict[str, BasicWindowTracker],
                 baskets: Dict[str, Basket], catalog: Catalog,
                 emitter: Emitter, cache_enabled: bool = True):
        super().__init__(name, baskets, emitter, cursors)
        self.executor = IncrementalExecutor(
            analysis, ExecutionContext(catalog), cache_enabled)

    def poll(self, now: int) -> None:
        """Process every newly completed basic window exactly once."""
        if self.state != RUNNING:
            return
        for stream, tracker in self.cursors.items():
            for j, lo, hi in tracker.new_basic_windows(now):
                slice_rel = self.baskets[stream].relation(lo, hi)
                self.tuples_in += slice_rel.row_count
                started = time.perf_counter()
                try:
                    self.executor.process_basic_window(stream, j,
                                                       slice_rel)
                except Exception as exc:
                    self._quarantine(
                        exc, f" on basic window {j} of {stream!r}")
                finally:
                    self.busy_seconds += time.perf_counter() - started

    def _evaluate(self, now: int
                  ) -> Tuple[Optional[Relation], None]:
        compositions = {}
        for stream, tracker in self.cursors.items():
            _k, bws = tracker.window_composition()
            compositions[stream] = bws
        return self.executor.fire(compositions), None

    def _commit(self, now: int, consumed: None) -> None:
        floors: Dict[str, int] = {}
        for stream, tracker in self.cursors.items():
            tracker.advance()
            floors[stream] = tracker.live_floor()
        self.executor.evict(floors)

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        out.update(self.executor.cache_stats())
        return out

"""The DataCell engine facade: SQL in, streams through, results out.

One object wires the whole architecture of Figure 1 together: the
catalog and persistent tables, stream baskets, receptors, the SQL
compiler + optimizer stack, the continuous-plan rewriter, factories, the
Petri-net scheduler and per-query emitters.

Typical use::

    engine = DataCellEngine()
    engine.execute("CREATE STREAM sensors (sid INT, temp FLOAT)")
    q = engine.register_continuous(
        "SELECT sid, avg(temp) FROM sensors [RANGE 100 SLIDE 20] "
        "GROUP BY sid")
    engine.attach_source("sensors", RateSource(rows, rate=1000))
    engine.run_until_drained()
    print(engine.results(q.name).latest().pretty())
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.core.basket import Basket
from repro.core.clock import Clock, SimulatedClock
from repro.core.emitter import CallbackSink, CollectingSink, Emitter, Sink
from repro.core.factory import (EXECUTION_MODES, Factory,
                                IncrementalFactory, ReevalFactory)
from repro.core.incremental import (IncrementalAnalysis,
                                    UnsupportedIncremental,
                                    analyze_incremental)
from repro.core.monitor import Monitor
from repro.core.receptor import Receptor, SocketReceptor
from repro.core.recycler import DEFAULT_BUDGET_BYTES, Recycler
from repro.core.rewriter import rewrite_to_continuous
from repro.core.scheduler import PetriNetScheduler
from repro.core.windows import BasicWindowTracker, WindowSpec, WindowState
from repro.errors import (BindError, CatalogError, ReplayGap, StoreError,
                          StreamError)
from repro.mal.bat import BAT
from repro.mal.compiler import compile_plan
from repro.mal.fingerprint import fingerprint_cache_stats
from repro.mal.interpreter import MALContext, MALInterpreter
from repro.mal.program import MALProgram
from repro.mal.relation import Relation
from repro.sql import ast
from repro.sql.binder import Binder, Scope
from repro.sql.optimizer import Optimizer
from repro.sql.parser import parse, parse_script
from repro.sql.plan import PlanNode, find_stream_scans
from repro.sql.planner import Planner
from repro.storage.catalog import Catalog
from repro.storage.persistence import (load_catalog, load_queries,
                                       save_catalog, save_queries)
from repro.storage.schema import Schema
from repro.store import (DURABILITY_MODES, FaultInjector,
                         PagedWindowBinder, StreamLog)
from repro.store.log import MANIFEST
from repro.streams.source import StreamSource


class ContinuousQuery:
    """A registered standing query and all its runtime attachments."""

    def __init__(self, name: str, sql_text: str, plan: PlanNode,
                 program: MALProgram, continuous_program: MALProgram,
                 mode: str, factory: Factory, emitter: Emitter,
                 sink: CollectingSink, streams: List[str],
                 incremental_analysis: Optional[IncrementalAnalysis]):
        self.name = name
        self.sql_text = sql_text
        self.plan = plan
        self.program = program
        self.continuous_program = continuous_program
        self.mode = mode
        self.factory = factory
        self.emitter = emitter
        self.sink = sink
        self.streams = streams
        self.incremental_analysis = incremental_analysis
        # name of the output-basket stream, when results are chained
        self.output_stream: Optional[str] = None
        # registration knobs, kept for checkpoint round-trips
        self.knobs: Dict[str, Any] = {}

    def __repr__(self) -> str:
        return f"ContinuousQuery({self.name}, mode={self.mode})"


class DataCellEngine:
    """The top-level system object (one MonetDB/DataCell instance)."""

    def __init__(self, clock: Optional[Clock] = None,
                 recycler_enabled: bool = True,
                 recycler_budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 recycler_verify: bool = False,
                 compile_plans: bool = True,
                 interp_profile: bool = False,
                 data_dir: Optional[str] = None,
                 durability: str = "async",
                 segment_rows: int = 4096,
                 checkpoint_interval_s: float = 2.0,
                 log_inline: bool = False,
                 retain_ms: Optional[int] = None,
                 retain_bytes: Optional[int] = None):
        """``recycler_enabled`` shares window slices and operator
        intermediates across standing queries
        (:mod:`repro.core.recycler`); entries are evicted by benefit
        density (recompute cost x reuse frequency per byte, the MonetDB
        Recycler heuristic). ``recycler_budget_bytes`` is the memory the
        cache may always use: the scheduler grows the live budget from
        there (up to the stock 64 MB) when eviction churn outpaces
        cache hits and shrinks it back when the cache sits idle — so an
        under-provisioned budget cannot make recycler-on slower than
        recycler-off. ``recycler_verify`` re-executes every cache hit
        and asserts the recycled value equals the fresh one (the
        equivalence oracle mode tests run).

        ``compile_plans`` (default on) slot-compiles each registered
        continuous plan into pre-bound thunks at registration
        (:func:`repro.mal.compiler.compile_program`); firing then skips
        the interpreter's per-instruction dispatch entirely. With it
        off (or for a plan that fails to compile) the factory fires on
        the bare interpreter — the oracle, which never recycles.
        ``interp_profile`` additionally records per-opcode cumulative
        wall time on every firing (the ``.interp`` monitor pane).

        ``data_dir`` turns on the durable stream log
        (:mod:`repro.store`): every admitted tuple is mirrored to an
        append-only segmented log per stream, the catalog and standing-
        query definitions are checkpointed there, and constructing an
        engine over an existing ``data_dir`` *recovers* — baskets and
        window cursors are rebuilt so emissions resume
        byte-identically to an uninterrupted run. ``durability`` picks
        the write discipline: ``"async"`` (default) group-commits with
        one flush per group, ``"fsync"`` additionally fsyncs,
        ``"off"`` disables logging even with a ``data_dir``.
        ``checkpoint_interval_s`` paces the periodic checkpoint driven
        from :meth:`step` (the serving loop wakes for it);
        ``log_inline`` persists synchronously inside each append — the
        deterministic mode crash tests drive.

        ``retain_ms`` / ``retain_bytes`` bound how much durable history
        each stream log keeps: after every periodic checkpoint, sealed
        segments whose newest arrival is older than ``retain_ms`` (or
        that push the log past ``retain_bytes``, oldest first) are
        dropped — never past what live baskets or registered query
        cursors still need. The log's ``durable_floor`` advances;
        replay below it lags to the floor (subscriptions) or raises
        :class:`~repro.errors.ReplayGap` (``from_offset``
        registration). Factories window over whatever the log retains
        without rehydrating it: every durable basket carries a
        :class:`~repro.store.paging.PagedWindowBinder` serving vacuumed
        history as zero-copy segment views."""
        self.clock = clock if clock is not None else SimulatedClock()
        self.catalog = Catalog()
        self.recycler = Recycler(recycler_budget_bytes,
                                 enabled=recycler_enabled,
                                 verify=recycler_verify)
        self.compile_plans = bool(compile_plans)
        self.interp_profile = bool(interp_profile)
        self.scheduler = PetriNetScheduler(
            self.clock,
            recycler=self.recycler if recycler_enabled else None)
        self.monitor = Monitor(self)
        self._receptors: Dict[str, List[Receptor]] = {}
        self._queries: Dict[str, ContinuousQuery] = {}
        self._qcounter = 0
        # ring bound for built-in result sinks, set by an attached
        # server (see bound_result_sinks)
        self._collect_bound: Optional[int] = None
        # the attached network edges, when serving: the framed
        # protocol server and the Postgres wire-protocol front end
        self.net_edge = None
        self.pg_edge = None
        # the serving loop's wake (core.live.ServingLoop): set by whoever
        # hands the net work from another thread, once it is visible
        self.wake = threading.Event()
        self.loop_thread: Optional[int] = None  # ident of that loop

        # -- durability (repro.store) ----------------------------------
        if durability not in DURABILITY_MODES:
            raise StreamError(
                f"unknown durability mode {durability!r} "
                f"(expected one of {DURABILITY_MODES})")
        self.data_dir = data_dir
        self.durability = durability if data_dir is not None else "off"
        self.segment_rows = int(segment_rows)
        self.checkpoint_interval_s = float(checkpoint_interval_s)
        self.log_inline = bool(log_inline)
        self.retain_ms = retain_ms
        self.retain_bytes = retain_bytes
        self.retention_rows_dropped = 0
        self._logs: Dict[str, StreamLog] = {}
        self._fault = FaultInjector.from_env()
        self.checkpoints = 0
        self.last_checkpoint_ms = 0.0
        self.last_checkpoint_error: Optional[BaseException] = None
        self.recovered = False
        self._recovering = False
        self._last_ckpt = time.monotonic()
        if self.durable and self._has_prior_state():
            self._recover()

    @property
    def durable(self) -> bool:
        return self.durability != "off"

    def close(self) -> None:
        """Checkpoint (when durable) and close the stream logs."""
        if self.durable and self._logs:
            try:
                self.checkpoint()
            except StoreError:
                pass  # a failed writer must not block shutdown
        for log in self._logs.values():
            log.close()
        self._logs = {}

    def __enter__(self) -> "DataCellEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def now(self) -> int:
        return self.clock.now()

    # ------------------------------------------------------------------
    # SQL entry point (DDL, DML, one-time queries)
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> Union[Relation, str, int]:
        """Run one statement. SELECTs return a Relation; DDL returns a
        confirmation string; INSERT returns the row count."""
        stmt = parse(sql)
        return self._execute_stmt(stmt)

    def execute_script(self, sql: str) -> List[Union[Relation, str, int]]:
        return [self._execute_stmt(s) for s in parse_script(sql)]

    def execute_statement(self, stmt: ast.Statement
                          ) -> Union[Relation, str, int]:
        """Run one already-parsed statement — for front ends (the pg
        wire session) that parse once to classify and must not
        re-parse to execute."""
        return self._execute_stmt(stmt)

    def _execute_stmt(self, stmt: ast.Statement):
        if isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
            return self._one_time_select(stmt)
        if isinstance(stmt, ast.CreateTableStmt):
            self.catalog.create_table(stmt.name,
                                      Schema.parse(stmt.columns))
            return f"CREATE TABLE {stmt.name}"
        if isinstance(stmt, ast.CreateStreamStmt):
            self.create_stream(stmt.name, Schema.parse(stmt.columns))
            return f"CREATE STREAM {stmt.name}"
        if isinstance(stmt, ast.CreateIndexStmt):
            self.catalog.table(stmt.table).create_index(stmt.column,
                                                        stmt.kind)
            return f"CREATE INDEX on {stmt.table}({stmt.column})"
        if isinstance(stmt, ast.DropStmt):
            if stmt.kind == "table":
                self.catalog.drop_table(stmt.name)
            else:
                self.drop_stream(stmt.name)
            return f"DROP {stmt.kind.upper()} {stmt.name}"
        if isinstance(stmt, ast.InsertStmt):
            return self._insert(stmt)
        if isinstance(stmt, ast.DeleteStmt):
            return self._delete(stmt)
        if isinstance(stmt, ast.UpdateStmt):
            return self._update(stmt)
        if isinstance(stmt, ast.ExplainStmt):
            plan = Optimizer().optimize(
                Planner(self.catalog).plan(stmt.statement))
            program = compile_plan(plan, "user.explain")
            return plan.pretty() + "\n\n" + program.pretty()
        raise BindError(f"cannot execute statement {stmt!r}")

    def _match_positions(self, table, where: Optional[ast.Expr]):
        """Row positions of *table* matching *where* (all when None)."""
        from repro.mal import kernel
        from repro.mal.bat import all_candidates

        if where is None:
            return all_candidates(len(table)), None, None
        scope = Scope()
        scope.add_source(table.name, table.schema)
        binder = Binder(scope)
        predicate = binder.bind(where)
        rel = table.scan().renamed(
            [f"{table.name}.{n}" for n in table.schema.names])
        mask = predicate.evaluate(rel)
        return kernel.mask_select(mask), rel, scope

    def _delete(self, stmt: ast.DeleteStmt) -> int:
        table = self.catalog.table(stmt.table)
        positions, _rel, _scope = self._match_positions(table, stmt.where)
        return table.delete_positions(positions)

    def _update(self, stmt: ast.UpdateStmt) -> int:
        from repro.mal import kernel

        table = self.catalog.table(stmt.table)
        positions, rel, scope = self._match_positions(table, stmt.where)
        if rel is None:
            scope = Scope()
            scope.add_source(table.name, table.schema)
            rel = table.scan().renamed(
                [f"{table.name}.{n}" for n in table.schema.names])
        binder = Binder(scope)
        selected = rel.take(positions)
        # evaluate all right-hand sides against the pre-update rows so
        # SET a = b, b = a swaps correctly
        new_values = []
        for column, expr in stmt.assignments:
            target_type = table.schema.type_of(column)
            bound = binder.bind(expr)
            values = bound.evaluate(selected)
            if values.dtype != target_type:
                values = kernel.calc_cast(values, target_type)
            new_values.append((column, values))
        for column, values in new_values:
            table.update_column(column, positions, values)
        return len(positions)

    def query(self, sql: str) -> Relation:
        """One-time SELECT (over tables and/or current basket contents)."""
        result = self.execute(sql)
        if not isinstance(result, Relation):
            raise BindError("query() expects a SELECT statement")
        return result

    def _one_time_select(self, stmt) -> Relation:
        plan = Optimizer().optimize(Planner(self.catalog).plan(stmt))
        program = compile_plan(plan, "user.onetime")
        ctx = MALContext(self.catalog,
                         stream_reader=self._basket_snapshot)
        return MALInterpreter(ctx).run(program)

    def _basket_snapshot(self, name: str) -> Relation:
        return self.basket(name).relation()

    def _insert(self, stmt: ast.InsertStmt) -> int:
        target_is_stream = self.catalog.is_stream(stmt.table)
        schema = self.catalog.schema_of(stmt.table)
        columns = stmt.columns or schema.names
        if stmt.select is not None:
            rel = self._one_time_select(stmt.select)
            rows = rel.to_rows()
        else:
            binder = Binder(Scope())
            rows = []
            for row_exprs in stmt.rows:
                row = []
                for expr in row_exprs:
                    bound = binder.bind(expr)
                    row.append(bound.const_value())
                rows.append(row)
        if list(columns) != schema.names:
            index = {c: i for i, c in enumerate(columns)}
            full_rows = []
            for row in rows:
                if len(row) != len(columns):
                    raise BindError("INSERT: wrong number of values")
                full_rows.append([
                    row[index[c]] if c in index else None
                    for c in schema.names])
            rows = full_rows
        if target_is_stream:
            return self.basket(stmt.table).append_rows(rows, self.now())
        self.catalog.table(stmt.table).insert_rows(rows)
        return len(rows)

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------

    def create_stream(self, name: str, schema: Schema) -> Basket:
        self.catalog.create_stream(name, schema)
        basket = Basket(name, schema)
        self.scheduler.add_basket(basket)
        self._receptors[basket.name] = []
        basket.add_tap(self._on_append)
        if self.durable:
            log = self._open_log(basket.name, schema)
            if log.next_offset > basket.next_oid:
                # a stale log dir from a dropped/recreated stream whose
                # history this fresh basket does not carry — discard it
                log.truncate_to(basket.next_oid)
            self._attach_durable(basket, log)
            if not self._recovering:
                self.checkpoint()
        return basket

    def _on_append(self, lo: int, hi: int, now: int) -> None:
        """Basket tap: an append from a foreign thread (pg INSERT, live
        receptor, shell) wakes the serving loop; its own are mid-step."""
        if threading.get_ident() != self.loop_thread:
            self.wake.set()

    def drop_stream(self, name: str) -> None:
        name = name.lower()
        bound = [q.name for q in self._queries.values()
                 if name in q.streams]
        if bound:
            raise StreamError(
                f"stream {name!r} is bound by queries {bound}")
        self.catalog.drop_stream(name)
        self.scheduler.remove_basket(name)
        self.scheduler.receptors = [
            r for r in self.scheduler.receptors
            if r.basket.name != name]
        self._receptors.pop(name, None)
        log = self._logs.pop(name, None)
        if log is not None:
            log.close()
        if self.durable:
            self.checkpoint()

    def basket(self, name: str) -> Basket:
        try:
            return self.scheduler.baskets[name.lower()]
        except KeyError:
            raise CatalogError(f"no stream {name!r}") from None

    def attach_source(self, stream: str, source: StreamSource,
                      name: Optional[str] = None) -> Receptor:
        """Create a receptor pumping *source* into the stream's basket."""
        basket = self.basket(stream)
        rname = name or f"{basket.name}_r{len(self._receptors[basket.name])}"
        receptor = Receptor(rname, basket, source)
        self._receptors[basket.name].append(receptor)
        self.scheduler.add_receptor(receptor)
        self.wake.set()  # a new event time for the loop's deadline
        return receptor

    def add_socket_receptor(self, stream: str,
                            name: Optional[str] = None,
                            max_pending: int = 64,
                            policy: str = "block",
                            block_timeout_s: float = 5.0
                            ) -> SocketReceptor:
        """Register a network-edge receptor for *stream*: connection
        threads offer batches into its bounded admission queue; the
        scheduler drains it. One per connected producer."""
        basket = self.basket(stream)
        rname = name or (f"{basket.name}_net"
                         f"{len(self._receptors[basket.name])}")
        receptor = SocketReceptor(rname, basket, max_pending=max_pending,
                                  policy=policy,
                                  block_timeout_s=block_timeout_s,
                                  wake=self.wake.set)
        self._receptors[basket.name].append(receptor)
        self.scheduler.add_receptor(receptor)
        return receptor

    def remove_receptor(self, receptor: Receptor) -> None:
        """Detach *receptor* from the scheduler and the stream's
        receptor list (the basket and its tuples stay)."""
        self.scheduler.receptors = [
            r for r in self.scheduler.receptors if r is not receptor]
        bucket = self._receptors.get(receptor.basket.name)
        if bucket is not None:
            self._receptors[receptor.basket.name] = [
                r for r in bucket if r is not receptor]

    def feed(self, stream: str, rows: Sequence[Sequence[Any]]) -> int:
        """Push rows into a stream right now (external event driver)."""
        return self.basket(stream).append_rows(rows, self.now())

    def pause_stream(self, name: str) -> None:
        self.basket(name)  # validate
        for receptor in self._receptors[name.lower()]:
            receptor.pause()

    def resume_stream(self, name: str) -> None:
        self.basket(name)
        for receptor in self._receptors[name.lower()]:
            receptor.resume()
        self.wake.set()

    # ------------------------------------------------------------------
    # continuous queries
    # ------------------------------------------------------------------

    def register_continuous(self, sql: str, name: Optional[str] = None,
                            mode: str = "auto", min_batch: int = 1,
                            max_delay_ms: Optional[int] = None,
                            cache_enabled: bool = True,
                            sink: Optional[Sink] = None,
                            output_stream: Optional[str] = None,
                            collect_max_batches: Optional[int] = None,
                            from_start: bool = False,
                            from_offset: Optional[int] = None
                            ) -> ContinuousQuery:
        """Register a standing query.

        ``mode``: ``"reeval"`` forces full re-evaluation per firing;
        ``"incremental"`` forces basic-window processing (raises
        :class:`UnsupportedIncremental` when the plan shape does not
        allow it); ``"auto"`` picks incremental for sliding and
        tumbling windows when the plan splits and ``size % slide == 0``,
        re-evaluation otherwise
        (:data:`~repro.core.factory.EXECUTION_MODES` is the whole
        vocabulary).

        ``output_stream`` materializes the query's results as a new
        stream (an *output basket*): each firing appends its partial
        result there, and further continuous queries can consume it —
        multi-stage query networks, as in the paper's Figure 3.

        ``collect_max_batches`` bounds the query's built-in
        :class:`CollectingSink` ring (oldest batches dropped once
        full); left unset, a served engine applies its server's bound
        (:meth:`bound_result_sinks`).

        ``from_start`` / ``from_offset`` start the query's stream
        cursors in the *past* instead of at the head: history still in
        basket memory is windowed directly, and history already
        vacuumed is *paged* out of the stream's durable log — the
        basket's :class:`~repro.store.paging.PagedWindowBinder` serves
        it as zero-copy segment views, so replaying a long log never
        materializes the whole range (requires a ``data_dir`` engine).
        Offsets are basket oids — the same coordinate replay
        subscribers and checkpoints use. ``from_start`` starts at the
        oldest offset the log still holds (the retention floor); an
        explicit ``from_offset`` below that floor raises
        :class:`~repro.errors.ReplayGap` — serving only the surviving
        suffix would silently claim history retention has discarded.
        Without a log, offsets clamp to the retained basket prefix as
        before.
        """
        stmt = parse(sql)
        if not isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
            raise BindError("continuous queries must be SELECT statements")
        if name is None:
            self._qcounter += 1
            name = f"q{self._qcounter}"
        name = name.lower()
        if name in self._queries:
            raise StreamError(f"query {name!r} already registered")

        plan = Optimizer().optimize(Planner(self.catalog).plan(stmt))
        scans = find_stream_scans(plan)
        if not scans:
            raise BindError(
                "continuous query references no stream; use execute() "
                "for one-time queries")
        stream_names = [s.stream_name for s in scans]
        if len(set(stream_names)) != len(stream_names):
            raise StreamError(
                "a stream may appear only once per continuous query")
        specs = {s.stream_name: WindowSpec.from_clause(s.window)
                 for s in scans}

        program = compile_plan(plan, f"user.{name}")
        continuous_program = rewrite_to_continuous(
            program, stream_names, f"datacell.{name}")

        analysis, resolved_mode = self._resolve_mode(plan, specs, mode)

        emitter = Emitter(name)
        collecting = CollectingSink(
            max_batches=collect_max_batches
            if collect_max_batches is not None else self._collect_bound)
        emitter.add_sink(collecting)
        if sink is not None:
            emitter.add_sink(sink)
        out_sink = None
        if output_stream is not None:
            from repro.core.emitter import BasketSink

            if self.catalog.is_stream(output_stream):
                # reuse a pre-existing stream (recovery) when the
                # schema matches the query's output
                out_basket = self.basket(output_stream)
                if out_basket.schema.names != plan.schema.names:
                    raise StreamError(
                        f"output stream {output_stream!r} exists with "
                        f"a different schema")
            else:
                out_basket = self.create_stream(output_stream,
                                                plan.schema)
            out_sink = BasketSink(
                out_basket,
                recycler=self.recycler
                if self.recycler.enabled else None)
            emitter.add_sink(out_sink)

        baskets = {s: self.basket(s) for s in stream_names}
        starts: Optional[Dict[str, int]] = None
        if from_start or from_offset is not None:
            starts = {}
            for s, basket in baskets.items():
                target = 0 if from_start else max(0, int(from_offset))
                if target < basket.first_oid:
                    if basket.pager is not None:
                        # log-resident history is paged, not
                        # rehydrated: the subscription starts below
                        # first_oid and window reads splice segment
                        # views in. An explicit offset below the
                        # retention floor is a gap the caller must
                        # acknowledge; from_start means "oldest
                        # available" and starts at the floor.
                        floor = basket.history_floor()
                        if from_offset is not None and target < floor:
                            raise ReplayGap(
                                f"stream {s!r}: requested offset "
                                f"{target} is below the retention "
                                f"floor {floor}; re-request at or "
                                f"above the floor (or use from_start "
                                f"for the oldest available history)",
                                stream=s, requested=target,
                                floor=floor)
                    else:
                        # no pager (durability off): pull the gap back
                        # into memory, tolerating a short log only for
                        # from_start ("oldest available") requests
                        self._rehydrate_stream(
                            s, target, allow_gap=from_start)
                # subscribe() clamps to what is actually readable
                starts[s] = target
        factory = self._build_factory(
            name, plan, continuous_program, analysis, resolved_mode,
            specs, baskets, emitter, min_batch, max_delay_ms,
            cache_enabled, starts=starts)
        if out_sink is not None:
            # chained networks: adopted emit payloads carry the
            # producer's evaluation time as their recompute cost
            out_sink.bind_producer(factory)
        self.scheduler.add_factory(factory)
        # census for the recycler's sharing-based admission filter:
        # instruction fingerprints carried by fewer than two registered
        # consumers can never produce a cache hit and are skipped
        if factory.recycle_fps:
            self.recycler.retain_fps(factory.recycle_fps)

        query = ContinuousQuery(name, sql, plan, program,
                                continuous_program, resolved_mode,
                                factory, emitter, collecting,
                                stream_names, analysis)
        query.output_stream = output_stream
        query.knobs = {"mode": mode, "min_batch": min_batch,
                       "max_delay_ms": max_delay_ms,
                       "cache_enabled": cache_enabled,
                       "collect_max_batches": collect_max_batches}
        self._queries[name] = query
        if self.durable and not self._recovering:
            self.checkpoint()  # definitions must survive a crash
        self.wake.set()  # rows already in its baskets, a new timer
        return query

    def _resolve_mode(self, plan: PlanNode,
                      specs: Dict[str, WindowSpec], mode: str):
        """Pick the execution mode for one continuous query:
        incremental needs :func:`analyze_incremental` to succeed and
        ``size % slide == 0``; ``"auto"`` falls back to reeval where
        forced ``"incremental"`` raises."""
        if mode not in EXECUTION_MODES:
            raise StreamError(
                f"unknown execution mode {mode!r} "
                f"(expected one of {EXECUTION_MODES})")
        if mode == "reeval":
            return None, "reeval"
        from repro.errors import WindowError
        try:
            analysis = analyze_incremental(plan)
        except UnsupportedIncremental:
            if mode == "incremental":
                raise
            return None, "reeval"
        try:
            for stream in specs:
                specs[stream].basic_window_count  # divisibility check
        except WindowError as exc:
            if mode == "incremental":
                raise UnsupportedIncremental(str(exc)) from exc
            return None, "reeval"
        if mode == "auto" and not any(s.is_sliding or s.is_tumbling
                                      for s in specs.values()):
            return None, "reeval"
        return analysis, "incremental"

    def _build_factory(self, name, plan, continuous_program, analysis,
                       mode, specs, baskets, emitter, min_batch,
                       max_delay_ms, cache_enabled,
                       starts: Optional[Dict[str, int]] = None
                       ) -> Factory:
        now = self.now()

        def _subscribe(stream, basket):
            """Subscribe at the head — or, when replaying, at the
            requested historical offset, anchoring time windows at the
            first replayed tuple's arrival instant."""
            start = starts.get(stream) if starts else None
            sub = basket.subscribe(name, start_oid=start)
            anchor = now
            if start is not None and sub.read_upto < basket.next_oid:
                arr, (lo, _hi) = basket.arrival_slice(
                    sub.read_upto, sub.read_upto + 1)
                if len(arr) and lo == sub.read_upto:
                    anchor = int(arr[0])
            return sub, anchor

        cursor_cls = BasicWindowTracker if mode == "incremental" \
            else WindowState
        cursors = {}
        for stream, basket in baskets.items():
            sub, anchor = _subscribe(stream, basket)
            cursors[stream] = cursor_cls(specs[stream], basket, sub,
                                         anchor_time=anchor)
        if mode == "incremental":
            return IncrementalFactory(name, analysis, cursors, baskets,
                                      self.catalog, emitter,
                                      cache_enabled)
        return ReevalFactory(name, continuous_program, plan,
                             cursors, baskets, self.catalog,
                             emitter, min_batch, max_delay_ms,
                             recycler=self.recycler
                             if self.recycler.enabled else None,
                             compiled=self.compile_plans,
                             profile=self.interp_profile)

    def remove_query(self, name: str) -> None:
        name = name.lower()
        query = self._queries.pop(name, None)
        if query is None:
            raise StreamError(f"no continuous query {name!r}")
        self.scheduler.remove_factory(name)
        if query.factory.recycle_fps:
            self.recycler.release_fps(query.factory.recycle_fps)
        for stream in query.streams:
            self.basket(stream).unsubscribe(name)
            self.basket(stream).vacuum()
        if self.durable:
            self.checkpoint()

    def continuous_query(self, name: str) -> ContinuousQuery:
        try:
            return self._queries[name.lower()]
        except KeyError:
            raise StreamError(f"no continuous query {name!r}") from None

    def queries(self) -> List[ContinuousQuery]:
        return list(self._queries.values())

    def pause_query(self, name: str) -> None:
        query = self.continuous_query(name)
        query.factory.pause()
        for stream in query.streams:
            for sub in self.basket(stream).subscriptions():
                if sub.name == name:
                    sub.paused = True

    def resume_query(self, name: str) -> None:
        query = self.continuous_query(name)
        query.factory.resume()
        for stream in query.streams:
            for sub in self.basket(stream).subscriptions():
                if sub.name == name:
                    sub.paused = False
        self.wake.set()

    def subscribe(self, query_name: str,
                  callback: Callable[[Relation, int], Any]) -> None:
        """Attach a client callback to a standing query's emitter."""
        query = self.continuous_query(query_name)
        query.emitter.add_sink(CallbackSink(callback))

    def results(self, query_name: str) -> CollectingSink:
        return self.continuous_query(query_name).sink

    def bound_result_sinks(self, max_batches: int) -> None:
        """Bound the built-in :class:`CollectingSink` of every standing
        query, registered already or from now on — a server calls this
        at start so a long-running deployment does not hoard history,
        whichever front end a query is registered through."""
        self._collect_bound = max_batches
        for query in self.queries():
            query.sink.set_max_batches(max_batches)

    # ------------------------------------------------------------------
    # driving the net
    # ------------------------------------------------------------------

    def step(self, advance_ms: int = 0) -> Dict[str, int]:
        if advance_ms:
            if not isinstance(self.clock, SimulatedClock):
                raise StreamError("advance_ms needs a SimulatedClock")
            self.clock.advance(advance_ms)
        counters = self.scheduler.step()
        self.maybe_checkpoint()
        return counters

    def run_for(self, duration_ms: int, step_ms: int = 10
                ) -> Dict[str, int]:
        return self.scheduler.run_for(duration_ms, step_ms)

    def run_until_drained(self, max_steps: int = 100000) -> Dict[str, int]:
        return self.scheduler.run_until_drained(max_steps)

    def network_stats(self) -> Dict[str, Dict]:
        """The scheduler's Petri-net counters, plus an ``"interp"``
        section (plan-execution counters, :meth:`interp_stats`) and a
        ``"net"`` section (per-connection ingest/deliver/shed/blocked
        counters) when a network edge — a
        :class:`~repro.net.server.DataCellServer` — is attached."""
        stats = self.scheduler.network_stats()
        stats["interp"] = self.interp_stats()
        if self.net_edge is not None:
            stats["net"] = self.net_edge.net_stats()
        if self.pg_edge is not None:
            stats["pg"] = self.pg_edge.pg_stats()
        if self.durable:
            stats["log"] = self.log_stats()
        return stats

    def interp_stats(self) -> Dict[str, Any]:
        """Plan-execution counters: slot-compiler activity, digest-
        cache hit rates, per-opcode profile (when ``interp_profile``
        is on) and the autotuner's budget trajectory."""
        from repro.mal.compiler import compile_stats

        out: Dict[str, Any] = {}
        out.update(compile_stats())
        out.update(fingerprint_cache_stats())
        compiled = 0
        interpreted = 0
        profile: Dict[str, List[float]] = {}
        for factory in self.scheduler.factories:
            if getattr(factory, "compiled", None) is not None:
                compiled += 1
            elif isinstance(factory, ReevalFactory):
                interpreted += 1
            for opcode, (calls, ms) in getattr(
                    factory, "opcode_profile", {}).items():
                cell = profile.setdefault(opcode, [0, 0.0])
                cell[0] += calls
                cell[1] += ms
        out["factories_compiled"] = compiled
        out["factories_interpreted"] = interpreted
        out["profile_enabled"] = int(self.interp_profile)
        out["opcode_profile"] = {
            op: {"calls": int(calls), "ms": round(ms, 3)}
            for op, (calls, ms) in sorted(
                profile.items(), key=lambda kv: -kv[1][1])}
        out["budget_bytes"] = self.recycler.budget_bytes
        out["budget_grows"] = self.recycler.budget_grows
        out["budget_shrinks"] = self.recycler.budget_shrinks
        out["budget_trajectory"] = list(
            self.recycler.budget_trajectory)
        return out

    # ------------------------------------------------------------------
    # durability: stream logs, checkpoints, crash recovery
    # ------------------------------------------------------------------

    def _stream_log_dir(self, name: str) -> str:
        return os.path.join(self.data_dir, "streams", name.lower())

    def _state_path(self) -> str:
        return os.path.join(self.data_dir, "state.json")

    def _catalog_dir(self) -> str:
        return os.path.join(self.data_dir, "catalog")

    def _open_log(self, name: str, schema: Schema) -> StreamLog:
        log = StreamLog(self._stream_log_dir(name), name, schema,
                        segment_rows=self.segment_rows,
                        durability=self.durability,
                        inline=self.log_inline,
                        fault=self._fault,
                        retain_ms=self.retain_ms,
                        retain_bytes=self.retain_bytes)
        self._logs[name.lower()] = log
        return log

    def _attach_durable(self, basket: Basket, log: StreamLog) -> None:
        """Bind *log* and a paged-history binder to *basket* — from
        here on window reads below the vacuum floor page log segments
        instead of clamping to the retained prefix."""
        basket.attach_log(log)
        basket.attach_pager(PagedWindowBinder(log, basket.schema))

    def stream_log(self, name: str) -> Optional[StreamLog]:
        return self._logs.get(name.lower())

    def _has_prior_state(self) -> bool:
        if os.path.exists(self._state_path()):
            return True
        if os.path.exists(os.path.join(self._catalog_dir(),
                                       "catalog.json")):
            return True
        streams_dir = os.path.join(self.data_dir, "streams")
        if os.path.isdir(streams_dir):
            for entry in os.listdir(streams_dir):
                if os.path.exists(os.path.join(streams_dir, entry,
                                               MANIFEST)):
                    return True
        return False

    def checkpoint(self) -> None:
        """Persist a consistent recovery point under ``data_dir``.

        Order matters: the stream logs are flushed *first*, so every
        oid the saved cursors and basket bounds reference is durable
        before ``state.json`` swings into place (tmp + atomic rename).
        A crash between the two leaves the previous state file valid
        against a longer log — recovery replays the extra tail.
        """
        if not self.durable:
            return
        t0 = time.perf_counter()
        for log in self._logs.values():
            log.flush()
        save_catalog(self.catalog, self._catalog_dir())
        qdefs = []
        for query in self._queries.values():
            entry = dict(query.knobs)
            entry.update({"name": query.name, "sql": query.sql_text,
                          "output_stream": query.output_stream})
            qdefs.append(entry)
        save_queries(qdefs, self.data_dir)
        baskets = {}
        for name, basket in self.scheduler.baskets.items():
            baskets[name] = {
                "first_oid": basket.first_oid,
                "next_oid": basket.next_oid,
                "total_in": basket.total_in,
                "total_dropped": basket.total_dropped,
                "high_water": basket.high_water}
        cursors = {q.name: {"mode": q.mode,
                            "streams": q.factory.cursor_snapshot()}
                   for q in self._queries.values()}
        state = {"version": 1, "now": self.now(),
                 "baskets": baskets, "queries": cursors}
        tmp = self._state_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._state_path())
        for log in self._logs.values():
            log.sync_manifest()
        self.checkpoints += 1
        self.last_checkpoint_ms = (time.perf_counter() - t0) * 1000.0
        self.last_checkpoint_error = None
        self._last_ckpt = time.monotonic()

    def checkpoint_due_s(self) -> float:
        """Seconds until the periodic checkpoint is next due."""
        return (self._last_ckpt + self.checkpoint_interval_s
                - time.monotonic())

    def maybe_checkpoint(self) -> bool:
        """Periodic checkpoint driver (called per :meth:`step`, so by
        the serving loop too). A failed log writer is recorded — not
        raised — so the serving loop stays up."""
        if not self.durable or self._recovering:
            return False
        if self.checkpoint_due_s() > 0:
            return False
        try:
            self.checkpoint()
        except StoreError as exc:
            self.last_checkpoint_error = exc
            self._last_ckpt = time.monotonic()  # do not retry hot
            return False
        # retention rides checkpoint pacing: the fresh checkpoint's
        # cursors are exactly what the protect floor defends, so
        # truncating right after it can never strand a restored cursor
        # below the floor
        self.apply_retention()
        return True

    def apply_retention(self) -> Dict[str, int]:
        """Enforce ``retain_ms``/``retain_bytes`` on every stream log.

        Each log's protect floor is the oldest offset anything live
        still needs: the basket's retained prefix and every registered
        subscription cursor (a replay query paging history below
        ``first_oid`` holds its ``released_upto`` down there — its
        segments must survive). Network replay subscribers are *not*
        protected: a socket subscriber that lags below the floor
        catches up from the floor (``read_stream_range`` skips the
        discarded prefix). Returns rows dropped per stream.
        """
        if not self.durable:
            return {}
        dropped: Dict[str, int] = {}
        now = self.now()
        for name, log in self._logs.items():
            if log.retain_ms is None and log.retain_bytes is None:
                continue
            protect = log.next_offset
            basket = self.scheduler.baskets.get(name)
            if basket is not None:
                protect = min(protect, basket.first_oid)
                for sub in basket.subscriptions():
                    protect = min(protect, sub.released_upto)
            rows = log.apply_retention(now, protect)
            if rows:
                dropped[name] = rows
                self.retention_rows_dropped += rows
        return dropped

    def _recover(self) -> None:
        """Rebuild engine state from ``data_dir`` after a crash.

        Sources, in trust order: sealed log segments and the re-scanned
        (possibly torn) tail; the last checkpoint's ``state.json``
        (cursor snapshots, basket bounds); ``catalog`` and
        ``queries.json`` definitions. Output-stream logs are truncated
        back to the checkpoint so re-fired producer windows regenerate
        the tail instead of duplicating it.
        """
        self._recovering = True
        try:
            state: Dict[str, Any] = {}
            if os.path.exists(self._state_path()):
                with open(self._state_path()) as f:
                    state = json.load(f)
            qdefs = load_queries(self.data_dir)
            if os.path.exists(os.path.join(self._catalog_dir(),
                                           "catalog.json")):
                load_catalog(self._catalog_dir(), into=self.catalog)
            # streams whose only trace is a log dir (crash before the
            # first catalog checkpoint): definitions from manifests
            streams_dir = os.path.join(self.data_dir, "streams")
            known = {s.name for s in self.catalog.streams()}
            if os.path.isdir(streams_dir):
                for entry in sorted(os.listdir(streams_dir)):
                    mpath = os.path.join(streams_dir, entry, MANIFEST)
                    if entry in known or not os.path.exists(mpath):
                        continue
                    with open(mpath) as f:
                        manifest = json.load(f)
                    self.catalog.create_stream(
                        entry, Schema.parse(
                            [(n, t) for n, t in manifest["columns"]]))
            # restore simulated time so window schedules resume where
            # they left off
            saved_now = state.get("now")
            if saved_now is not None \
                    and isinstance(self.clock, SimulatedClock) \
                    and saved_now > self.clock.now():
                self.clock.set(int(saved_now))
            output_streams = {str(e["output_stream"]).lower()
                              for e in qdefs if e.get("output_stream")}
            bmeta_all = state.get("baskets", {})
            for stream_def in self.catalog.streams():
                name = stream_def.name
                basket = Basket(name, stream_def.schema)
                self.scheduler.add_basket(basket)
                self._receptors[name] = []
                basket.add_tap(self._on_append)
                log = self._open_log(name, stream_def.schema)
                bmeta = bmeta_all.get(name, {})
                end = log.next_offset
                if name in output_streams:
                    # regenerable: producers re-fire from their saved
                    # cursors, so anything past the checkpoint would
                    # otherwise appear twice
                    end = min(end, int(bmeta.get("next_oid", 0)))
                    log.truncate_to(end)
                # rebuild only the checkpointed retained prefix: cursors
                # restored below it (incremental floor_oid, replay
                # released_upto) read the log-resident head through the
                # paged binder instead of forcing the whole suffix back
                # into memory
                base = int(bmeta.get("first_oid", 0))
                base = max(0, min(base, end))
                cols, arrival, actual_lo = log.read_clamped(base, end)
                basket.adopt_columns(actual_lo, cols, arrival)
                basket.total_in = int(bmeta.get("total_in", end))
                if basket.total_in < end:
                    basket.total_in = end
                basket.high_water = max(
                    int(bmeta.get("high_water", 0)), len(basket))
                self._attach_durable(basket, log)
            # re-register standing queries, then wind their cursors
            # back to the checkpoint
            qstates = state.get("queries", {})
            for entry in qdefs:
                # a data dir written by an earlier build may name a
                # mode this one no longer has; that mode kept
                # WindowState cursors and emitted whole-window results,
                # so re-evaluation resumes it with the same emissions
                mode = entry.get("mode", "auto")
                if mode not in EXECUTION_MODES:
                    mode = "reeval"
                query = self.register_continuous(
                    entry["sql"], name=entry["name"], mode=mode,
                    min_batch=entry.get("min_batch", 1),
                    max_delay_ms=entry.get("max_delay_ms"),
                    cache_enabled=entry.get("cache_enabled", True),
                    output_stream=entry.get("output_stream"),
                    collect_max_batches=entry.get("collect_max_batches"))
                snap = qstates.get(query.name, {})
                if snap.get("streams"):
                    query.factory.cursor_restore(snap["streams"])
            self.recovered = True
        finally:
            self._recovering = False
        self.checkpoint()

    def _rehydrate_stream(self, stream: str, target: int,
                          allow_gap: bool = False) -> int:
        """Pull vacuumed history ``[target, first_oid)`` back from the
        stream's log into basket memory (replay support); returns the
        number of rows rehydrated.

        When the log no longer holds the full range — retention (or an
        output-stream truncation) discarded ``[target, actual_lo)`` —
        rehydrating just the surviving suffix while the caller believes
        it got everything from *target* is a silent gap. Unless
        *allow_gap* acknowledges it (``from_start`` semantics: "oldest
        available"), the gap raises :class:`~repro.errors.ReplayGap`
        carrying the floor to re-request from.
        """
        basket = self.basket(stream)
        log = self._logs.get(basket.name)
        if log is None:
            return 0
        lo = max(0, int(target))
        hi = basket.first_oid
        if hi <= lo:
            return 0
        cols, arrival, actual_lo = log.read_clamped(lo, hi)
        if actual_lo > lo and not allow_gap:
            raise ReplayGap(
                f"stream {stream!r}: log no longer holds "
                f"[{lo},{actual_lo}) — {actual_lo - lo} row(s) below "
                f"the retention floor; re-request from {actual_lo}",
                stream=basket.name, requested=lo, floor=actual_lo)
        if not len(arrival):
            return 0
        return basket.rehydrate(actual_lo, cols, arrival)

    def read_stream_range(self, stream: str, lo: int, hi: int
                          ) -> List[Tuple[int, int, Relation]]:
        """Materialize stream tuples ``[lo, hi)`` as ``(lo, hi,
        relation)`` parts, splicing durable log history (below the
        basket's retained prefix) with live basket memory — the replay
        read path behind ``SUBSCRIBE ... FROM``. Bounds clamp to what
        exists; a concurrent vacuum moving the prefix mid-read falls
        back to the log for the vacated range. History below the
        retention floor is *skipped*, not fatal: the first returned
        part then starts above the requested ``lo`` — a subscriber
        asking ``from=0`` after retention kicked in lags to the floor
        instead of erroring out."""
        basket = self.basket(stream)
        log = self._logs.get(basket.name)
        parts: List[Tuple[int, int, Relation]] = []
        cursor = max(0, int(lo))
        hi = min(int(hi), basket.next_oid)
        while cursor < hi:
            first = basket.first_oid
            if cursor < first:
                if log is None:
                    cursor = first  # history gone, not logged: skip
                    continue
                cols, arrival, actual_lo = log.read_clamped(
                    cursor, min(hi, first))
                n = len(arrival)
                if n == 0:
                    cursor = first  # below what the log retains
                    continue
                if actual_lo > cursor:
                    cursor = actual_lo  # [cursor, actual_lo) retained
                    #   by nobody: lag to the retention floor
                rel = Relation([
                    (c.name, BAT.adopt_array(c.dtype, cols[c.name],
                                             hseqbase=cursor))
                    for c in basket.schema.columns])
                parts.append((cursor, cursor + n, rel))
                cursor += n
                continue
            rel, (clo, chi) = basket.snapshot_range(cursor, hi)
            if clo > cursor:
                continue  # vacuum raced us; redo via the log branch
            if chi <= cursor:
                break
            parts.append((cursor, chi, rel))
            cursor = chi
        return parts

    def log_stats(self) -> Dict[str, Any]:
        """Durability counters: per-stream log stats plus checkpoint
        and recovery bookkeeping (the ``.log`` monitor pane)."""
        streams: Dict[str, Any] = {}
        for name, log in sorted(self._logs.items()):
            entry = log.stats()
            basket = self.scheduler.baskets.get(name)
            if basket is not None and basket.pager is not None:
                entry["pager"] = basket.pager.stats()
            streams[name] = entry
        out: Dict[str, Any] = {
            "data_dir": self.data_dir,
            "durability": self.durability,
            "recovered": int(self.recovered),
            "checkpoints": self.checkpoints,
            "last_checkpoint_ms": round(self.last_checkpoint_ms, 3),
            "retain_ms": self.retain_ms,
            "retain_bytes": self.retain_bytes,
            "retention_rows_dropped": self.retention_rows_dropped,
            "streams": streams}
        if self.last_checkpoint_error is not None:
            out["checkpoint_error"] = repr(self.last_checkpoint_error)
        return out

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def explain(self, sql_or_name: str) -> str:
        """Plan view: for a registered query name, logical plan + MAL
        before/after the continuous rewrite; for SQL text, the plan it
        would get."""
        if sql_or_name.lower() in self._queries:
            return self.monitor.plans(sql_or_name.lower())
        stmt = parse(sql_or_name)
        if not isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
            raise BindError("can only explain SELECT statements")
        plan = Optimizer().optimize(Planner(self.catalog).plan(stmt))
        program = compile_plan(plan, "user.explain")
        return plan.pretty() + "\n\n" + program.pretty()

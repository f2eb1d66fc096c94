"""Incremental sliding-window execution: split plans, cache, merge.

The paper, §3: *"we design and develop the incremental logic at the query
plan level [...] query plans are split such as as many operators as
possible can run independently on each portion of a sliding window
stream. Then, when blocking operators occur, the plan merges
intermediates from the active slides."*

:func:`analyze_incremental` splits an optimized logical plan into

* a **per-slice pipeline** (stream scan + filters/projections and any
  joins against persistent tables) that runs once per *basic window* and
  whose columnar output is cached;
* an optional **blocking aggregate**, evaluated as mergeable partial
  states per basic window (count / sum / avg / min / max);
* the **post-merge tail** (HAVING, ORDER BY, final projection, DISTINCT,
  LIMIT) that runs on the merged window result.

Each fragment is a MAL program, compiled from the plan with the
fragment below it replaced by a named input (the basic-window slice,
the two cached sides of a join pair, the merged relation), so the
incremental mode runs on the same executor as re-evaluation.

Two pipeline shapes are supported: a single windowed stream (optionally
joined with tables) and an equi-join of two windowed streams (per-pair
join caching). Everything else raises :class:`UnsupportedIncremental`
and the engine falls back to re-evaluation mode.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import KernelError, MALError, StreamError
from repro.mal import kernel
from repro.mal.bat import BAT
from repro.mal.compiler import (CompiledProgram, compile_or_interpret,
                                compile_plan)
from repro.mal.interpreter import MALContext, MALInterpreter
from repro.mal.program import MALProgram
from repro.mal.relation import Relation
from repro.sql.expressions import BoundAgg
from repro.sql.plan import (AggregateNode, DistinctNode, FilterNode,
                            JoinNode, LimitNode, PlanNode, ProjectNode,
                            SortNode, StreamScanNode, UnionNode,
                            walk_plan)
from repro.storage import types as dt
from repro.storage.catalog import Catalog


class UnsupportedIncremental(StreamError):
    """The plan shape cannot run incrementally; fall back to re-eval."""


_MERGEABLE = frozenset(["count", "sum", "avg", "min", "max",
                        "stddev", "variance"])

# names the fragment programs bind their inputs under (no stream or
# table can be called this)
LEFT, RIGHT, MERGED = "%left", "%right", "%merged"
_ROLES = {"slice": "per-slice pipeline, once per basic window",
          "left": "per-slice pipeline of the left stream",
          "right": "per-slice pipeline of the right stream",
          "pair": "join, once per pair of basic windows",
          "tail": "post-merge tail"}


def _result_names(program: MALProgram) -> List[str]:
    return list(program.instructions[-1].args[0].value)


class IncrementalAnalysis:
    """Result of splitting a plan for incremental execution."""

    def __init__(self, plan: PlanNode, upper: List[PlanNode],
                 agg: Optional[AggregateNode], pipeline: PlanNode,
                 stream_scans: List[StreamScanNode]):
        self.plan = plan
        self.upper = upper            # root-first, applied post-merge
        self.agg = agg
        self.pipeline = pipeline
        self.stream_scans = stream_scans
        self.kind = "single" if len(stream_scans) == 1 else "join2"
        self.join_node: Optional[JoinNode] = None
        self.left_pipeline: Optional[PlanNode] = None
        self.right_pipeline: Optional[PlanNode] = None
        if self.kind == "join2":
            if not isinstance(pipeline, JoinNode):
                raise UnsupportedIncremental(
                    "two windowed streams must meet at the top-level join")
            self.join_node = pipeline
            self.left_pipeline = pipeline.left
            self.right_pipeline = pipeline.right
            lscans = [s for s in walk_plan(pipeline.left)
                      if isinstance(s, StreamScanNode)]
            rscans = [s for s in walk_plan(pipeline.right)
                      if isinstance(s, StreamScanNode)]
            if len(lscans) != 1 or len(rscans) != 1:
                raise UnsupportedIncremental(
                    "stream-stream join needs one stream per side")
            self.left_stream = lscans[0].stream_name
            self.right_stream = rscans[0].stream_name
        self.programs = self._compile()

    def _compile(self) -> Dict[str, MALProgram]:
        """One MAL program per fragment: ``slice`` (or ``left`` and
        ``right`` plus the ``pair`` join for two streams) runs per basic
        window, ``tail`` on the merged window."""
        if self.kind == "single":
            programs = {"slice": compile_plan(
                self.pipeline, "incr.slice", all_columns=True)}
            below, keys = self.pipeline, _result_names(programs["slice"])
        else:
            programs = {side: compile_plan(node, f"incr.{side}",
                                           all_columns=True)
                        for side, node in (("left", self.left_pipeline),
                                           ("right", self.right_pipeline))}
            programs["pair"] = compile_plan(
                self.join_node, "incr.pair", all_columns=True, inputs={
                    id(self.left_pipeline):
                        (LEFT, _result_names(programs["left"])),
                    id(self.right_pipeline):
                        (RIGHT, _result_names(programs["right"]))})
            below, keys = self.join_node, _result_names(programs["pair"])
        # what the concat merge hands the tail when no slice is live
        self.empty_pieces = Relation.empty(below.schema).select_columns(keys)
        if self.agg is not None:
            below, keys = self.agg, self.agg.schema.names
        programs["tail"] = compile_plan(
            self.plan, "incr.tail", inputs={id(below): (MERGED, keys)},
            all_columns=not self.upper)
        return programs

    def describe(self) -> str:
        """Textual split description (the demo's plan-shape view): the
        MAL programs the split runs."""
        lines = ["incremental split:"]
        for role, program in self.programs.items():
            if role == "tail":
                merge = "concat of live slices" if self.agg is None \
                    else self.agg.label()
                lines.append(f"  blocking merge: {merge}")
            lines.append(f"  {_ROLES[role]}:")
            lines.extend("    " + ln for ln in program.pretty().splitlines())
        return "\n".join(lines)


def analyze_incremental(plan: PlanNode) -> IncrementalAnalysis:
    """Split *plan*; raises :class:`UnsupportedIncremental` on mismatch."""
    upper: List[PlanNode] = []
    node = plan
    while isinstance(node, (LimitNode, DistinctNode, ProjectNode,
                            SortNode, FilterNode)):
        upper.append(node)
        node = node.children[0]

    agg: Optional[AggregateNode] = None
    if isinstance(node, AggregateNode):
        agg = node
        node = node.child
        for a in agg.aggs:
            if a.op not in _MERGEABLE:
                raise UnsupportedIncremental(
                    f"aggregate {a.op!r} has no mergeable partial state")
            if a.distinct:
                raise UnsupportedIncremental(
                    "DISTINCT aggregates have no mergeable partial state")
    else:
        # without a blocking aggregate, trailing filters commute with
        # the concat merge — run them per slice instead
        while upper and isinstance(upper[-1], FilterNode):
            node = upper.pop()

    pipeline = node
    stream_scans = []
    for sub in walk_plan(pipeline):
        if isinstance(sub, StreamScanNode):
            stream_scans.append(sub)
        elif isinstance(sub, AggregateNode):
            raise UnsupportedIncremental(
                "nested aggregation below the blocking aggregate")
        elif isinstance(sub, (SortNode, DistinctNode, LimitNode,
                              UnionNode)):
            raise UnsupportedIncremental(
                f"blocking operator {sub.label()} inside the per-slice "
                f"pipeline")
        elif isinstance(sub, JoinNode) and sub.join_type != "inner":
            # a per-slice outer join is only equivalent when the
            # nil-padded (left) side is the stream slice itself
            left_streams = [s for s in walk_plan(sub.left)
                            if isinstance(s, StreamScanNode)]
            right_streams = [s for s in walk_plan(sub.right)
                             if isinstance(s, StreamScanNode)]
            if right_streams or not left_streams:
                raise UnsupportedIncremental(
                    f"{sub.join_type.upper()} JOIN is incremental only "
                    f"with the stream on the preserved (left) side")
    if not stream_scans:
        raise UnsupportedIncremental("no stream input in the plan")
    if len(stream_scans) > 2:
        raise UnsupportedIncremental(
            "more than two windowed streams are not supported")
    for scan in stream_scans:
        if scan.window is None:
            raise UnsupportedIncremental(
                f"stream {scan.stream_name!r} has no window clause")
    try:
        return IncrementalAnalysis(plan, upper, agg, pipeline,
                                   stream_scans)
    except MALError as exc:
        raise UnsupportedIncremental(
            f"plan fragment does not compile: {exc}") from exc


# ---------------------------------------------------------------------
# mergeable partial aggregate states
# ---------------------------------------------------------------------

def _least(a: Any, b: Any) -> Any:
    return b if a is None or (b is not None and b < a) else a


def _greatest(a: Any, b: Any) -> Any:
    return b if a is None or (b is not None and b > a) else a


# how two basic windows' states of one aggregate combine
_MERGES = {
    "count": operator.add,
    "sum": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "stddev": lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    "min": _least, "max": _greatest}
_MERGES["avg"] = _MERGES["sum"]
_MERGES["variance"] = _MERGES["stddev"]


class PartialAggregator:
    """Computes, merges and finalizes per-basic-window aggregate states.

    A partial is ``{group key tuple: [state, ...]}`` with one state per
    aggregate. States: count -> int; sum/avg -> (sum, nonnil_count);
    min/max -> value or None.
    """

    def __init__(self, agg_node: AggregateNode):
        self.node = agg_node
        self._merges = [_MERGES[a.op] for a in agg_node.aggs]

    # -- per basic window -----------------------------------------------

    def partial(self, rel: Relation) -> Dict[Tuple, List[Any]]:
        node = self.node
        if node.group_exprs:
            if not rel.row_count:
                return {}
            group_bats = [e.evaluate(rel) for e in node.group_exprs]
            gids, reps, ngroups = kernel.group(group_bats)
            keys = list(zip(*(b.take(reps).tolist() for b in group_bats)))
        else:
            gids = np.zeros(rel.row_count, dtype=np.int64)
            ngroups = 1
            keys = [()]
        per_agg = [self._states(agg, rel, gids, ngroups)
                   for agg in node.aggs]
        return {key: [states[g] for states in per_agg]
                for g, key in enumerate(keys)}

    @staticmethod
    def _states(agg: BoundAgg, rel: Relation, gids: np.ndarray,
                ngroups: int) -> List[Any]:
        if agg.op == "count" and agg.arg is None:
            return np.bincount(gids, minlength=ngroups).tolist()
        arg = agg.arg.evaluate(rel)
        values, gids = kernel.grouped_valid(arg, gids, None)
        counts = np.bincount(gids, minlength=ngroups).tolist()
        if agg.op == "count":
            return counts
        if agg.op == "sum":
            sums = kernel.group_sum(values, gids, ngroups).tolist()
            return list(zip(sums, counts))
        if agg.op == "avg":
            sums = np.bincount(gids, weights=values, minlength=ngroups)
            return list(zip(sums.astype(np.float64).tolist(), counts))
        if agg.op in ("min", "max"):
            best = kernel.group_extreme(values, gids, ngroups,
                                        take_min=agg.op == "min")
            if isinstance(best, np.ndarray):
                best = best.tolist()
            return [v if c else None for v, c in zip(best, counts)]
        if agg.op in ("stddev", "variance"):
            moments = kernel.group_moments(values, gids, ngroups)
            return list(zip(*(m.tolist() for m in moments)))
        raise UnsupportedIncremental(f"aggregate {agg.op!r}")

    # -- across basic windows ------------------------------------------------

    def merge(self, partials: Sequence[Dict[Tuple, List[Any]]]
              ) -> Dict[Tuple, List[Any]]:
        merged: Dict[Tuple, List[Any]] = {}
        merges = self._merges
        for partial in partials:
            for key, states in partial.items():
                acc = merged.get(key)
                merged[key] = list(states) if acc is None else \
                    [m(a, b) for m, a, b in zip(merges, acc, states)]
        return merged

    # -- window result ------------------------------------------------------------

    def finalize(self, merged: Dict[Tuple, List[Any]]) -> Relation:
        node = self.node
        if node.group_exprs and not merged:
            return Relation.empty(node.schema)
        if not node.group_exprs and not merged:
            merged = {(): [self._empty_state(a.op) for a in node.aggs]}
        out = Relation()
        for name, expr, column in zip(node.group_names, node.group_exprs,
                                      zip(*merged)):
            out.add(name, _column(expr.dtype, column))
        for name, agg, states in zip(node.agg_names, node.aggs,
                                     zip(*merged.values())):
            out.add(name, self._final_column(agg, states))
        return out

    @staticmethod
    def _empty_state(op: str) -> Any:
        if op == "count":
            return 0
        if op in ("sum", "avg"):
            return (0, 0)
        if op in ("stddev", "variance"):
            return (0.0, 0.0, 0.0)
        return None

    @staticmethod
    def _final_column(agg: BoundAgg, states: Sequence[Any]) -> BAT:
        if agg.op == "count":
            return _column(agg.dtype, states)
        if agg.op in ("sum", "avg"):
            totals, counts = zip(*states)
            empty = np.asarray(counts) == 0
            if agg.op == "sum":
                try:
                    out = np.array(totals, dtype=agg.dtype.np_dtype)
                except OverflowError:
                    raise KernelError("SUM is out of range for INT") from None
                if out.dtype.kind != "f" and (out == dt.INT_NIL).any():
                    raise KernelError("SUM is out of range for INT")
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    out = np.asarray(totals, dtype=np.float64) \
                        / np.asarray(counts)
            out[empty] = agg.dtype.nil
            return BAT.adopt_array(agg.dtype, out)
        if agg.op in ("stddev", "variance"):
            var = [kernel.variance_from_moments(*s) for s in states]
            if agg.op == "stddev":
                var = [None if v is None else math.sqrt(v) for v in var]
            return _column(agg.dtype, var)
        return _column(agg.dtype, states)  # min/max carry the value


def _column(dtype: dt.DataType, values: Sequence[Any]) -> BAT:
    """A BAT of Python *values* (None is nil)."""
    return BAT.adopt_array(dtype, dt.coerce_column(dtype, values))


# ---------------------------------------------------------------------
# the incremental executor (caches + merge)
# ---------------------------------------------------------------------

class IncrementalExecutor:
    """Holds the per-basic-window caches and produces window results.

    Cached payloads per (stream, bw index):

    * no aggregate — the per-slice program's output relation;
    * aggregate — the partial state dict (raw slice output dropped);
    * two-stream join — per-side program outputs plus per (left bw,
      right bw) pair join results.

    The analysis's programs are slot-compiled here once (or, with
    *compiled* off or on a compile failure, all interpreted).
    """

    def __init__(self, analysis: IncrementalAnalysis, catalog: Catalog,
                 cache_enabled: bool = True, compiled: bool = True):
        self.analysis = analysis
        self.catalog = catalog
        self.cache_enabled = cache_enabled
        programs = {role: compile_or_interpret(program, compiled)
                    for role, program in analysis.programs.items()}
        self.compiled: Optional[Dict[str, CompiledProgram]] = \
            None if None in programs.values() else programs
        self.aggregator = PartialAggregator(analysis.agg) \
            if analysis.agg is not None else None
        # per stream, the columns the per-basic-window programs bind:
        # all a basic window's slice of the basket needs to hold
        self.slice_columns: Dict[str, List[str]] = {}
        for role, program in analysis.programs.items():
            if role in ("pair", "tail"):
                continue
            for ins in program.instructions:
                if ins.opcode in ("sql.bind", "basket.bind"):
                    names = self.slice_columns.setdefault(
                        ins.args[0].value, [])
                    if ins.args[1].value not in names:
                        names.append(ins.args[1].value)
        self._slices: Dict[Tuple[str, int], Relation] = {}
        self._partials: Dict[Tuple[str, int], Dict] = {}
        self._pairs: Dict[Tuple[int, int], Relation] = {}
        # statistics surfaced by the monitor / E10 ablation
        self.slices_computed = 0
        self.slices_reused = 0
        self.pairs_computed = 0
        self.pairs_reused = 0

    def _run(self, role: str, inputs: Dict[str, Relation]) -> Relation:
        """Run one fragment program with *inputs* bound by name."""
        ctx = MALContext(self.catalog, stream_reader=inputs.__getitem__)
        if self.compiled is None:
            return MALInterpreter(ctx).run(self.analysis.programs[role])
        return self.compiled[role].run(ctx)

    # -- per-basic-window processing -----------------------------------

    def process_basic_window(self, stream: str, bw_index: int,
                             slice_rel: Relation) -> None:
        """Run the per-slice program over one basic window and cache."""
        key = (stream, bw_index)
        a = self.analysis
        if a.kind == "single":
            out = self._run("slice", {stream: slice_rel})
            if self.aggregator is not None:
                self._partials[key] = self.aggregator.partial(out)
            else:
                self._slices[key] = out
        else:
            side = "left" if stream == a.left_stream else "right"
            self._slices[key] = self._run(side, {stream: slice_rel})
        self.slices_computed += 1

    # -- firing a full window -----------------------------------------------

    def fire(self, compositions: Dict[str, List[int]]) -> Relation:
        if self.analysis.kind == "single":
            rel = self._fire_single(compositions)
        else:
            rel = self._fire_join2(compositions)
        return self._run("tail", {MERGED: rel})

    def _fire_single(self, compositions: Dict[str, List[int]]) -> Relation:
        stream = self.analysis.stream_scans[0].stream_name
        bws = compositions[stream]
        if self.aggregator is not None:
            partials = [self._partials[(stream, j)] for j in bws
                        if (stream, j) in self._partials]
            self.slices_reused += max(len(partials) - 1, 0)
            return self.aggregator.finalize(self.aggregator.merge(partials))
        pieces = [self._slices[(stream, j)] for j in bws
                  if (stream, j) in self._slices]
        self.slices_reused += max(len(pieces) - 1, 0)
        return self._concat(pieces)

    def _fire_join2(self, compositions: Dict[str, List[int]]) -> Relation:
        a = self.analysis
        pieces = []
        for i in compositions[a.left_stream]:
            for j in compositions[a.right_stream]:
                payload = self._pair_payload((i, j))
                if payload is not None:
                    pieces.append(payload)
        if self.aggregator is not None:
            # pieces are per-pair partial aggregate states: the full
            # join output is never re-materialized on a slide
            return self.aggregator.finalize(self.aggregator.merge(pieces))
        return self._concat(pieces)

    def _pair_payload(self, pair: Tuple[int, int]):
        """Join result for one (left bw, right bw) pair — as a cached
        relation, or as a cached partial-aggregate state dict when a
        blocking aggregate sits above the join."""
        a = self.analysis
        cached = self._pairs.get(pair)
        if cached is not None:
            self.pairs_reused += 1
            return cached
        left = self._slices.get((a.left_stream, pair[0]))
        right = self._slices.get((a.right_stream, pair[1]))
        if left is None or right is None:
            return None
        joined = self._run("pair", {LEFT: left, RIGHT: right})
        payload = joined if self.aggregator is None \
            else self.aggregator.partial(joined)
        if self.cache_enabled:
            self._pairs[pair] = payload
        self.pairs_computed += 1
        return payload

    def _concat(self, pieces: List[Relation]) -> Relation:
        if not pieces:
            return self.analysis.empty_pieces
        out = pieces[0]
        for piece in pieces[1:]:
            out = out.concat(piece)
        return out

    # -- cache maintenance ------------------------------------------------------

    def evict(self, floors: Dict[str, int]) -> int:
        """Drop cache entries for basic windows below each stream's floor."""
        evicted = 0
        for store in (self._slices, self._partials):
            dead = [k for k in store
                    if k[0] in floors and k[1] < floors[k[0]]]
            for k in dead:
                del store[k]
            evicted += len(dead)
        a = self.analysis
        if a.kind == "join2":
            lfloor = floors.get(a.left_stream, 0)
            rfloor = floors.get(a.right_stream, 0)
            dead_pairs = [p for p in self._pairs
                          if p[0] < lfloor or p[1] < rfloor]
            for p in dead_pairs:
                del self._pairs[p]
            evicted += len(dead_pairs)
        return evicted

    def cached_intermediate_rows(self) -> int:
        """Total rows held in intermediate caches (monitoring)."""
        total = sum(r.row_count for r in self._slices.values())
        total += sum(p.row_count if isinstance(p, Relation) else len(p)
                     for p in self._pairs.values())
        total += sum(len(p) for p in self._partials.values())
        return total

    def cache_stats(self) -> Dict[str, int]:
        return {
            "slices_cached": len(self._slices),
            "partials_cached": len(self._partials),
            "pairs_cached": len(self._pairs),
            "slices_computed": self.slices_computed,
            "slices_reused": self.slices_reused,
            "pairs_computed": self.pairs_computed,
            "pairs_reused": self.pairs_reused,
            "cached_rows": self.cached_intermediate_rows(),
        }

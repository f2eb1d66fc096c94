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

Two pipeline shapes are supported: a single windowed stream (optionally
joined with tables) and an equi-join of two windowed streams (per-pair
join caching). Everything else raises :class:`UnsupportedIncremental`
and the engine falls back to re-evaluation mode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamError
from repro.mal import kernel
from repro.mal.bat import BAT
from repro.mal.relation import Relation
from repro.sql.executor import (ExecutionContext, PlanExecutor,
                                apply_predicate, join_relations,
                                project_relation, sort_relation)
from repro.sql.expressions import BoundAgg
from repro.sql.plan import (AggregateNode, DistinctNode, FilterNode,
                            JoinNode, LimitNode, PlanNode, ProjectNode,
                            SortNode, StreamScanNode, UnionNode,
                            walk_plan)


class UnsupportedIncremental(StreamError):
    """The plan shape cannot run incrementally; fall back to re-eval."""


_MERGEABLE = frozenset(["count", "sum", "avg", "min", "max",
                        "stddev", "variance"])


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

    def describe(self) -> str:
        """Textual split description (the demo's plan-shape view)."""
        lines = ["incremental split:"]
        lines.append("  per-slice pipeline:")
        lines.extend("    " + ln
                     for ln in self.pipeline.pretty().splitlines())
        if self.agg is not None:
            lines.append(f"  blocking merge: {self.agg.label()}")
        else:
            lines.append("  blocking merge: concat of live slices")
        if self.upper:
            chain = " <- ".join(n.label() for n in self.upper)
            lines.append(f"  post-merge tail: {chain}")
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
    return IncrementalAnalysis(plan, upper, agg, pipeline, stream_scans)


# ---------------------------------------------------------------------
# mergeable partial aggregate states
# ---------------------------------------------------------------------

class PartialAggregator:
    """Computes, merges and finalizes per-basic-window aggregate states.

    A partial is ``{group key tuple: [state, ...]}`` with one state per
    aggregate. States: count -> int; sum/avg -> (sum, nonnil_count);
    min/max -> value or None.
    """

    def __init__(self, agg_node: AggregateNode):
        self.node = agg_node

    # -- per basic window -----------------------------------------------

    def partial(self, rel: Relation) -> Dict[Tuple, List[Any]]:
        node = self.node
        n = rel.row_count
        if node.group_exprs:
            gids: Optional[np.ndarray] = None
            reps = None
            ngroups = 0
            group_bats = [e.evaluate(rel) for e in node.group_exprs]
            for bat in group_bats:
                gids, reps, ngroups = kernel.subgroup(bat, gids)
            key_rows = list(zip(*(b.take(reps).tolist()
                                  for b in group_bats))) if ngroups else []
        else:
            gids = np.zeros(n, dtype=np.int64)
            ngroups = 1
            key_rows = [()]
        out: Dict[Tuple, List[Any]] = {}
        per_agg = [self._states(agg, rel, gids, ngroups)
                   for agg in node.aggs]
        for g, key in enumerate(key_rows):
            out[tuple(key)] = [states[g] for states in per_agg]
        return out

    def _states(self, agg: BoundAgg, rel: Relation, gids: np.ndarray,
                ngroups: int) -> List[Any]:
        if agg.op == "count" and agg.arg is None:
            counts = np.bincount(gids, minlength=ngroups)
            return [int(c) for c in counts]
        arg = agg.arg.evaluate(rel)
        valid = ~arg.nil_mask()
        counts = np.bincount(gids[valid], minlength=ngroups)
        if agg.op == "count":
            return [int(c) for c in counts]
        if agg.op in ("sum", "avg"):
            sums = kernel.agg_sum(arg, gids, ngroups).tolist()
            return [(s if s is not None else 0, int(c))
                    for s, c in zip(sums, counts)]
        if agg.op == "min":
            return kernel.agg_min(arg, gids, ngroups).tolist()
        if agg.op == "max":
            return kernel.agg_max(arg, gids, ngroups).tolist()
        if agg.op in ("stddev", "variance"):
            ns, sums, sumsq = kernel._moments(arg, gids, ngroups, None)
            return [(float(n), float(s), float(q))
                    for n, s, q in zip(ns, sums, sumsq)]
        raise UnsupportedIncremental(f"aggregate {agg.op!r}")

    # -- across basic windows ------------------------------------------------

    def merge(self, partials: Sequence[Dict[Tuple, List[Any]]]
              ) -> Dict[Tuple, List[Any]]:
        merged: Dict[Tuple, List[Any]] = {}
        for partial in partials:
            for key, states in partial.items():
                if key not in merged:
                    merged[key] = list(states)
                    continue
                acc = merged[key]
                for i, agg in enumerate(self.node.aggs):
                    acc[i] = self._merge_one(agg.op, acc[i], states[i])
        return merged

    @staticmethod
    def _merge_one(op: str, a: Any, b: Any) -> Any:
        if op == "count":
            return a + b
        if op in ("sum", "avg"):
            return (a[0] + b[0], a[1] + b[1])
        if op in ("stddev", "variance"):
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
        if op == "min":
            if a is None:
                return b
            if b is None:
                return a
            return a if a <= b else b
        if op == "max":
            if a is None:
                return b
            if b is None:
                return a
            return a if a >= b else b
        raise UnsupportedIncremental(f"aggregate {op!r}")

    # -- window result ------------------------------------------------------------

    def finalize(self, merged: Dict[Tuple, List[Any]]) -> Relation:
        node = self.node
        if node.group_exprs and not merged:
            return Relation.empty(node.schema)
        if not node.group_exprs and not merged:
            merged = {(): [self._empty_state(a.op) for a in node.aggs]}
        keys = list(merged.keys())
        out = Relation()
        for i, (name, expr) in enumerate(zip(node.group_names,
                                             node.group_exprs)):
            out.add(name, BAT.from_values(expr.dtype,
                                          [k[i] for k in keys],
                                          coerce=True))
        for i, (name, agg) in enumerate(zip(node.agg_names, node.aggs)):
            values = [self._final_value(agg, merged[k][i]) for k in keys]
            out.add(name, BAT.from_values(agg.dtype, values, coerce=True))
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
    def _final_value(agg: BoundAgg, state: Any):
        if agg.op == "count":
            return state
        if agg.op == "sum":
            total, count = state
            return None if count == 0 else total
        if agg.op == "avg":
            total, count = state
            return None if count == 0 else total / count
        if agg.op in ("stddev", "variance"):
            import math

            var = kernel.variance_from_moments(*state)
            if var is None:
                return None
            return var if agg.op == "variance" else math.sqrt(var)
        return state  # min/max carry the value directly


# ---------------------------------------------------------------------
# the incremental executor (caches + merge)
# ---------------------------------------------------------------------

class IncrementalExecutor:
    """Holds the per-basic-window caches and produces window results.

    Cached payloads per (stream, bw index):

    * no aggregate — the per-slice pipeline output relation;
    * aggregate — the partial state dict (raw slice output dropped);
    * two-stream join — per-side pipeline outputs plus per (left bw,
      right bw) pair join results.
    """

    def __init__(self, analysis: IncrementalAnalysis,
                 ctx: ExecutionContext, cache_enabled: bool = True):
        self.analysis = analysis
        self.ctx = ctx
        self.cache_enabled = cache_enabled
        self.aggregator = PartialAggregator(analysis.agg) \
            if analysis.agg is not None else None
        self._slices: Dict[Tuple[str, int], Relation] = {}
        self._partials: Dict[Tuple[str, int], Dict] = {}
        self._pairs: Dict[Tuple[int, int], Relation] = {}
        # statistics surfaced by the monitor / E10 ablation
        self.slices_computed = 0
        self.slices_reused = 0
        self.pairs_computed = 0
        self.pairs_reused = 0

    # -- per-basic-window processing -----------------------------------

    def process_basic_window(self, stream: str, bw_index: int,
                             slice_rel: Relation) -> None:
        """Run the per-slice pipeline over one basic window and cache."""
        key = (stream, bw_index)
        if self.analysis.kind == "single":
            out = self._run_pipeline(self.analysis.pipeline, stream,
                                     slice_rel)
            if self.aggregator is not None:
                self._partials[key] = self.aggregator.partial(out)
            else:
                self._slices[key] = out
        else:
            side = self.analysis.left_pipeline \
                if stream == self.analysis.left_stream \
                else self.analysis.right_pipeline
            self._slices[key] = self._run_pipeline(side, stream, slice_rel)
        self.slices_computed += 1

    def _run_pipeline(self, pipeline: PlanNode, stream: str,
                      slice_rel: Relation) -> Relation:
        """Run a per-slice pipeline with *slice_rel* bound as *stream*."""
        def reader(name: str) -> Relation:
            if name == stream:
                return slice_rel
            raise StreamError(
                f"pipeline for {stream!r} asked for stream {name!r}")

        ctx = ExecutionContext(self.ctx.catalog, reader)
        return PlanExecutor(ctx).execute(pipeline)

    # -- firing a full window -----------------------------------------------

    def fire(self, compositions: Dict[str, List[int]]) -> Relation:
        if self.analysis.kind == "single":
            rel = self._fire_single(compositions)
        else:
            rel = self._fire_join2(compositions)
        return self._apply_upper(rel)

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
        return self._concat(pieces, self.analysis.pipeline)

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
        return self._concat(pieces, a.join_node)

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
        joined = join_relations(left, right, a.join_node.left_key,
                                a.join_node.right_key)
        if a.join_node.residual is not None:
            joined = apply_predicate(joined, a.join_node.residual)
        payload = joined if self.aggregator is None \
            else self.aggregator.partial(joined)
        if self.cache_enabled:
            self._pairs[pair] = payload
        self.pairs_computed += 1
        return payload

    @staticmethod
    def _concat(pieces: List[Relation], schema_node: PlanNode) -> Relation:
        if not pieces:
            return Relation.empty(schema_node.schema)
        out = pieces[0]
        for piece in pieces[1:]:
            out = out.concat(piece)
        return out

    def _apply_upper(self, rel: Relation) -> Relation:
        """Apply the post-merge tail (root-first list) to a window
        result."""
        for node in reversed(self.analysis.upper):
            if isinstance(node, FilterNode):
                rel = apply_predicate(rel, node.predicate)
            elif isinstance(node, SortNode):
                rel = sort_relation(rel, node.keys)
            elif isinstance(node, ProjectNode):
                rel = project_relation(rel, node.exprs, node.names)
            elif isinstance(node, LimitNode):
                stop = None if node.limit is None \
                    else node.offset + node.limit
                rel = rel.slice_rows(node.offset, stop)
            elif isinstance(node, DistinctNode):
                bats = [b for _n, b in rel.columns()]
                if bats and rel.row_count:
                    rel = rel.take(kernel.distinct(bats))
            else:
                raise UnsupportedIncremental(
                    f"unexpected post-merge node {node.label()}")
        return rel

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

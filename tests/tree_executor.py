"""Reference tree executor for logical plans — the tests' oracle.

Every operator consumes and produces whole :class:`Relation` values,
calling the bulk kernel directly, one plan node at a time. The product
runs every plan as MAL (:mod:`repro.mal.compiler`); this walker is the
independent algorithm the MAL path is checked against, so it runs the
plain operators only — no index probes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import KernelError, StreamError
from repro.mal import kernel
from repro.mal.bat import BAT
from repro.mal.relation import Relation
from repro.sql.expressions import BoundAgg, BoundExpr
from repro.sql.plan import (AggregateNode, DistinctNode, FilterNode,
                            JoinNode, LimitNode, PlanNode, ProjectNode,
                            ScanNode, SortNode, StreamScanNode,
                            UnionNode)
from repro.storage.catalog import Catalog


class ExecutionContext:
    """Resolves scans to relations.

    ``stream_reader`` maps a stream name to the relation holding the
    tuples the execution should see.
    """

    def __init__(self, catalog: Catalog,
                 stream_reader: Optional[Callable[[str], Relation]] = None):
        self.catalog = catalog
        self.stream_reader = stream_reader

    def table_relation(self, name: str) -> Relation:
        return self.catalog.table(name).scan()

    def stream_relation(self, name: str) -> Relation:
        if self.stream_reader is None:
            raise StreamError(
                f"no stream binding for {name!r}: execute this query "
                f"through the DataCell engine")
        return self.stream_reader(name)


class PlanExecutor:
    """Executes a logical plan tree against an :class:`ExecutionContext`."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    def execute(self, node: PlanNode) -> Relation:
        if isinstance(node, ScanNode):
            return self._scan(node)
        if isinstance(node, StreamScanNode):
            return self._stream_scan(node)
        if isinstance(node, FilterNode):
            return self._filter(node)
        if isinstance(node, ProjectNode):
            return self._project(node)
        if isinstance(node, JoinNode):
            return self._join(node)
        if isinstance(node, AggregateNode):
            return self._aggregate(node)
        if isinstance(node, SortNode):
            return self._sort(node)
        if isinstance(node, LimitNode):
            return self._limit(node)
        if isinstance(node, DistinctNode):
            return self._distinct(node)
        if isinstance(node, UnionNode):
            return self._union(node)
        raise KernelError(f"cannot execute plan node {node!r}")

    def _union(self, node: UnionNode) -> Relation:
        names = node.schema.names
        out = self.execute(node.children[0]).renamed(names)
        for child in node.children[1:]:
            out = out.concat(self.execute(child).renamed(names))
        return out

    # -- leaves -----------------------------------------------------------

    def _scan(self, node: ScanNode) -> Relation:
        rel = self.ctx.table_relation(node.table_name)
        rel = rel.renamed([f"{node.alias}.{n}" for n in rel.names])
        if node.needed is not None:
            rel = rel.select_columns(node.needed)
        return rel

    def _stream_scan(self, node: StreamScanNode) -> Relation:
        rel = self.ctx.stream_relation(node.stream_name)
        rel = rel.renamed([f"{node.alias}.{n}" for n in rel.names])
        if node.needed is not None:
            rel = rel.select_columns(node.needed)
        return rel

    def _filter(self, node: FilterNode) -> Relation:
        return apply_predicate(self.execute(node.child), node.predicate)

    # -- projections ----------------------------------------------------------

    def _project(self, node: ProjectNode) -> Relation:
        rel = self.execute(node.child)
        return project_relation(rel, node.exprs, node.names)

    # -- joins ------------------------------------------------------------------

    def _join(self, node: JoinNode) -> Relation:
        out = join_relations(self.execute(node.left),
                             self.execute(node.right), node.left_key,
                             node.right_key, join_type=node.join_type)
        if node.residual is not None:
            out = apply_predicate(out, node.residual)
        return out

    # -- aggregation --------------------------------------------------------------

    def _aggregate(self, node: AggregateNode) -> Relation:
        rel = self.execute(node.child)
        return aggregate_relation(rel, node)

    # -- ordering, limiting, distinct ------------------------------------------------

    def _sort(self, node: SortNode) -> Relation:
        rel = self.execute(node.child)
        return sort_relation(rel, node.keys)

    def _limit(self, node: LimitNode) -> Relation:
        rel = self.execute(node.child)
        stop = None if node.limit is None else node.offset + node.limit
        return rel.slice_rows(node.offset, stop)

    def _distinct(self, node: DistinctNode) -> Relation:
        rel = self.execute(node.child)
        bats = [bat for _n, bat in rel.columns()]
        if not bats or rel.row_count == 0:
            return rel
        return rel.take(kernel.distinct(bats))


# ---------------------------------------------------------------------
# operator bodies
# ---------------------------------------------------------------------

def apply_predicate(rel: Relation, predicate: BoundExpr) -> Relation:
    """Keep the rows where *predicate* evaluates to true."""
    if rel.row_count == 0:
        return rel
    mask = predicate.evaluate(rel)
    return rel.take(kernel.mask_select(mask))


def project_relation(rel: Relation, exprs: Sequence[BoundExpr],
                     names: Sequence[str]) -> Relation:
    out = Relation()
    for expr, name in zip(exprs, names):
        out.add(name, expr.evaluate(rel))
    return out


def join_relations(left: Relation, right: Relation,
                   left_key: Optional[BoundExpr],
                   right_key: Optional[BoundExpr],
                   join_type: str = "inner") -> Relation:
    """Hash equi-join, cross product (keys None) or left outer join."""
    if join_type in ("semi", "anti"):
        lbat = left_key.evaluate(left)
        rbat = right_key.evaluate(right)
        keep = kernel.semi_pairs(lbat, rbat, anti=(join_type == "anti"))
        return left.take(keep)
    if left_key is None:
        nl, nr = left.row_count, right.row_count
        lpos = np.repeat(np.arange(nl, dtype=np.int64), nr)
        rpos = np.tile(np.arange(nr, dtype=np.int64), nl)
    else:
        lbat = left_key.evaluate(left)
        rbat = right_key.evaluate(right)
        if join_type == "left":
            lpos, rpos = kernel.left_outer_pairs(lbat, rbat)
        else:
            lpos, rpos = kernel.hashjoin(lbat, rbat)
    out = Relation()
    for name, bat in left.columns():
        out.add(name, bat.take(lpos))
    for name, bat in right.columns():
        if join_type == "left":
            out.add(name, kernel.fetch_outer(bat, rpos))
        else:
            out.add(name, bat.take(rpos))
    return out


def aggregate_relation(rel: Relation, node: AggregateNode) -> Relation:
    """Hash aggregation of *rel* according to an AggregateNode spec."""
    n = rel.row_count
    if node.group_exprs:
        gids = None
        reps = None
        ngroups = 0
        group_bats = [e.evaluate(rel) for e in node.group_exprs]
        for bat in group_bats:
            gids, reps, ngroups = kernel.subgroup(bat, gids)
        out = Relation()
        for name, bat in zip(node.group_names, group_bats):
            out.add(name, bat.take(reps))
    else:
        gids = np.zeros(n, dtype=np.int64)
        ngroups = 1
        out = Relation()
    for name, agg in zip(node.agg_names, node.aggs):
        out.add(name, compute_aggregate(rel, agg, gids, ngroups))
    return out


def compute_aggregate(rel: Relation, agg: BoundAgg, gids: np.ndarray,
                      ngroups: int) -> BAT:
    """One aggregate column over a grouped relation."""
    if agg.op == "count" and agg.arg is None:
        return kernel.agg_count(gids, ngroups)
    arg = agg.arg.evaluate(rel)
    if agg.distinct:
        return kernel.distinct_aggregate(agg.op, arg, gids, ngroups)
    if agg.op == "count":
        return kernel.agg_count(gids, ngroups, arg, None)
    if agg.op == "sum":
        return kernel.agg_sum(arg, gids, ngroups)
    if agg.op == "avg":
        return kernel.agg_avg(arg, gids, ngroups)
    if agg.op == "min":
        return kernel.agg_min(arg, gids, ngroups)
    if agg.op == "max":
        return kernel.agg_max(arg, gids, ngroups)
    if agg.op == "stddev":
        return kernel.agg_stddev(arg, gids, ngroups)
    if agg.op == "variance":
        return kernel.agg_variance(arg, gids, ngroups)
    raise KernelError(f"unknown aggregate {agg.op!r}")


def sort_relation(rel: Relation,
                  keys: Sequence[Tuple[BoundExpr, bool]]) -> Relation:
    if rel.row_count == 0 or not keys:
        return rel
    bats = [e.evaluate(rel) for e, _d in keys]
    descending = [d for _e, d in keys]
    return rel.take(kernel.sort_positions(bats, descending))

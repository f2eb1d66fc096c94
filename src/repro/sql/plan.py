"""Logical query plans.

The planner produces these trees; the optimizer rewrites them; the
executor (and the MAL compiler) consume them. Column keys inside plans
are *qualified* (``alias.column``); the final Project assigns the
user-visible output names.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import BindError
from repro.sql.ast import WindowClause
from repro.sql.expressions import BoundAgg, BoundExpr
from repro.storage.schema import ColumnDef, Schema


class PlanNode:
    """Base class; every node exposes ``children`` and output ``schema``."""

    children: List["PlanNode"]
    schema: Schema

    def label(self) -> str:
        """One-line description for plan pretty-printing."""
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def replace_children(self, children: Sequence["PlanNode"]) -> None:
        self.children = list(children)

    def __repr__(self) -> str:
        return self.label()


class ScanNode(PlanNode):
    """Full scan of a persistent table; output keys are alias-qualified."""

    def __init__(self, table_name: str, alias: str, schema: Schema):
        self.table_name = table_name.lower()
        self.alias = alias.lower()
        self.children = []
        self.schema = Schema(
            ColumnDef(f"{self.alias}.{c.name}", c.dtype) for c in schema)
        # columns the projection-pruning rule decided we actually need;
        # None means all
        self.needed: Optional[List[str]] = None

    def label(self) -> str:
        cols = "" if self.needed is None else \
            " [" + ", ".join(self.needed) + "]"
        return f"Scan({self.table_name} as {self.alias}{cols})"


class StreamScanNode(PlanNode):
    """Scan of a stream basket, optionally windowed.

    For one-time queries the runtime binds the basket's full current
    content; for continuous queries the DataCell rewriter binds the
    current window slice chosen by the scheduler.
    """

    def __init__(self, stream_name: str, alias: str, schema: Schema,
                 window: Optional[WindowClause] = None):
        self.stream_name = stream_name.lower()
        self.alias = alias.lower()
        self.window = window
        self.children = []
        self.schema = Schema(
            ColumnDef(f"{self.alias}.{c.name}", c.dtype) for c in schema)
        self.needed: Optional[List[str]] = None

    def label(self) -> str:
        win = ""
        if self.window is not None:
            unit = "s" if self.window.time_based else "t"
            win = (f" [range {self.window.size}{unit}"
                   + (f" slide {self.window.slide}{unit}"
                      if self.window.slide is not None else "")
                   + "]")
        return f"StreamScan({self.stream_name} as {self.alias}{win})"


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: BoundExpr):
        self.children = [child]
        self.predicate = predicate
        self.schema = child.schema

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def replace_children(self, children) -> None:
        self.children = list(children)
        self.schema = self.children[0].schema

    def label(self) -> str:
        return f"Filter({self.predicate.sql()})"


class ProjectNode(PlanNode):
    def __init__(self, child: PlanNode, exprs: Sequence[BoundExpr],
                 names: Sequence[str]):
        if len(exprs) != len(names):
            raise BindError("project: expr/name count mismatch")
        self.children = [child]
        self.exprs = list(exprs)
        self.names = [n.lower() for n in names]
        self.schema = Schema(ColumnDef(n, e.dtype)
                             for n, e in zip(self.names, self.exprs))

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def label(self) -> str:
        items = ", ".join(f"{e.sql()} as {n}"
                          for e, n in zip(self.exprs, self.names))
        return f"Project({items})"


class JoinNode(PlanNode):
    """Equi-join on one key pair plus optional residual predicate.

    ``left_key``/``right_key`` of ``None`` makes this a cross product
    (the optimizer tries hard to avoid leaving it that way).
    ``join_type`` is ``"inner"`` or ``"left"`` (left outer: unmatched
    left rows survive with nil-padded right columns).
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: Optional[BoundExpr],
                 right_key: Optional[BoundExpr],
                 residual: Optional[BoundExpr] = None,
                 join_type: str = "inner"):
        self.children = [left, right]
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self.join_type = join_type
        if join_type in ("semi", "anti"):
            # semi/anti joins filter the left input; right columns do
            # not survive
            self.schema = left.schema
        else:
            self.schema = Schema(list(left.schema.columns)
                                 + list(right.schema.columns))

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def replace_children(self, children) -> None:
        self.children = list(children)
        if self.join_type in ("semi", "anti"):
            self.schema = self.children[0].schema
        else:
            self.schema = Schema(
                list(self.children[0].schema.columns)
                + list(self.children[1].schema.columns))

    def label(self) -> str:
        if self.left_key is None:
            cond = "cross"
        else:
            cond = f"{self.left_key.sql()} = {self.right_key.sql()}"
        extra = f" and {self.residual.sql()}" if self.residual else ""
        kind = {"left": "LeftJoin", "semi": "SemiJoin",
                "anti": "AntiJoin"}.get(self.join_type, "Join")
        return f"{kind}({cond}{extra})"


class AggregateNode(PlanNode):
    """Hash aggregation.

    Output columns: the group keys (named by their SQL rendering) then
    one column per aggregate, named ``$agg0``, ``$agg1``, ...
    """

    def __init__(self, child: PlanNode, group_exprs: Sequence[BoundExpr],
                 group_names: Sequence[str], aggs: Sequence[BoundAgg]):
        self.children = [child]
        self.group_exprs = list(group_exprs)
        self.group_names = [n.lower() for n in group_names]
        self.aggs = list(aggs)
        self.agg_names = [f"$agg{i}" for i in range(len(self.aggs))]
        cols = [ColumnDef(n, e.dtype)
                for n, e in zip(self.group_names, self.group_exprs)]
        cols += [ColumnDef(n, a.dtype)
                 for n, a in zip(self.agg_names, self.aggs)]
        self.schema = Schema(cols)

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def label(self) -> str:
        groups = ", ".join(e.sql() for e in self.group_exprs)
        aggs = ", ".join(a.sql() for a in self.aggs)
        return f"Aggregate(by=[{groups}] aggs=[{aggs}])"


class UnionNode(PlanNode):
    """UNION ALL of compatible inputs (row-wise concatenation).

    Children are full query subtrees whose output schemas were aligned
    by the planner (names from the first branch, types coerced).
    """

    def __init__(self, children: Sequence[PlanNode]):
        if len(children) < 2:
            raise BindError("union needs at least two inputs")
        self.children = list(children)
        self.schema = children[0].schema

    def label(self) -> str:
        return f"UnionAll({len(self.children)} branches)"


class SortNode(PlanNode):
    def __init__(self, child: PlanNode,
                 keys: Sequence[Tuple[BoundExpr, bool]]):
        self.children = [child]
        self.keys = list(keys)  # (expr, descending)
        self.schema = child.schema

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def replace_children(self, children) -> None:
        self.children = list(children)
        self.schema = self.children[0].schema

    def label(self) -> str:
        keys = ", ".join(e.sql() + (" desc" if d else "")
                         for e, d in self.keys)
        return f"Sort({keys})"


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, offset: int, limit: Optional[int]):
        self.children = [child]
        self.offset = offset
        self.limit = limit
        self.schema = child.schema

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def replace_children(self, children) -> None:
        self.children = list(children)
        self.schema = self.children[0].schema

    def label(self) -> str:
        return f"Limit(offset={self.offset}, limit={self.limit})"


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        self.children = [child]
        self.schema = child.schema

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def replace_children(self, children) -> None:
        self.children = list(children)
        self.schema = self.children[0].schema

    def label(self) -> str:
        return "Distinct"


def walk_plan(node: PlanNode):
    """Yield *node* and all descendants, pre-order."""
    yield node
    for child in node.children:
        yield from walk_plan(child)


def find_stream_scans(node: PlanNode) -> List[StreamScanNode]:
    return [n for n in walk_plan(node) if isinstance(n, StreamScanNode)]

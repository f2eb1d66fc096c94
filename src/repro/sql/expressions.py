"""Bound (typed) expression trees and their vectorized evaluator.

The binder turns parser AST expressions into these nodes. Every node
knows its :class:`~repro.storage.types.DataType` and evaluates over a
:class:`~repro.mal.relation.Relation` to a whole column (BAT) — this is
the bulk-processing model: expressions never see single tuples.

Boolean-valued nodes produce MonetDB-style three-valued BOOLEAN columns
(1 true / 0 false / -1 unknown); predicates keep rows whose value is 1.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BindError, KernelError
from repro.mal import kernel
from repro.mal.bat import BAT
from repro.mal.relation import Relation
from repro.storage import types as dt


class BoundExpr:
    """Base class: typed, evaluable, inspectable expression node."""

    dtype: dt.DataType

    def evaluate(self, rel: Relation) -> BAT:
        raise NotImplementedError

    def children(self) -> Sequence["BoundExpr"]:
        return ()

    def walk(self):
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def column_keys(self) -> List[str]:
        """All column keys referenced anywhere below this node."""
        return [n.key for n in self.walk() if isinstance(n, BoundColumn)]

    def const_value(self):
        """Python value when this subtree is a constant, else raises."""
        raise BindError("expression is not constant")

    def sql(self) -> str:
        """Approximate SQL rendering (for plan printing)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sql()}: {self.dtype.name})"


class BoundColumn(BoundExpr):
    """Reference to a column of the input relation by qualified key."""

    def __init__(self, key: str, dtype: dt.DataType):
        self.key = key.lower()
        self.dtype = dtype

    def evaluate(self, rel: Relation) -> BAT:
        return rel.column(self.key)

    def sql(self) -> str:
        return self.key


class BoundLiteral(BoundExpr):
    def __init__(self, value, dtype: dt.DataType):
        self.value = None if value is None else dt.coerce_value(dtype, value)
        self.value = dt.from_storage(dtype, self.value) \
            if self.value is not None else None
        self.dtype = dtype

    def evaluate(self, rel: Relation) -> BAT:
        return kernel.const_column(self.dtype, self.value, rel.row_count)

    def const_value(self):
        return self.value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if self.dtype.is_string:
            return "'" + str(self.value).replace("'", "''") + "'"
        return str(self.value)


class BoundArith(BoundExpr):
    """`+ - * / %` and string `||` (mapped to +)."""

    def __init__(self, op: str, left: BoundExpr, right: BoundExpr):
        self.op = op
        self.left = left
        self.right = right
        if op == "||":
            self.dtype = dt.STRING
        elif op == "/":
            self.dtype = dt.FLOAT
        elif left.dtype.is_string or right.dtype.is_string:
            if op == "+":
                self.dtype = dt.STRING
            else:
                raise BindError(f"arithmetic {op!r} over strings")
        else:
            self.dtype = dt.common_type(left.dtype, right.dtype)

    def children(self):
        return (self.left, self.right)

    def evaluate(self, rel: Relation) -> BAT:
        lhs = self.left.evaluate(rel)
        rhs = self.right.evaluate(rel)
        op = "+" if self.op == "||" else self.op
        if self.op == "||":
            lhs = kernel.calc_cast(lhs, dt.STRING)
            rhs = kernel.calc_cast(rhs, dt.STRING)
        return kernel.calc_arith(op, lhs, rhs)

    def const_value(self):
        lv = self.left.const_value()
        rv = self.right.const_value()
        if lv is None or rv is None:
            return None
        if self.op in ("||", "+") and self.dtype.is_string:
            return str(lv) + str(rv)
        if self.op == "+":
            return lv + rv
        if self.op == "-":
            return lv - rv
        if self.op == "*":
            return lv * rv
        if self.op == "/":
            if rv == 0:
                return None
            return lv / rv
        if self.op == "%":
            if rv == 0:
                return None
            return lv % rv
        raise BindError(f"cannot fold {self.op!r}")

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


class BoundNeg(BoundExpr):
    def __init__(self, operand: BoundExpr):
        if not operand.dtype.is_numeric:
            raise BindError("unary minus over non-numeric expression")
        self.operand = operand
        self.dtype = operand.dtype

    def children(self):
        return (self.operand,)

    def evaluate(self, rel: Relation) -> BAT:
        return kernel.calc_neg(self.operand.evaluate(rel))

    def const_value(self):
        v = self.operand.const_value()
        return None if v is None else -v

    def sql(self) -> str:
        return f"(-{self.operand.sql()})"


class BoundCompare(BoundExpr):
    def __init__(self, op: str, left: BoundExpr, right: BoundExpr):
        if left.dtype.is_string != right.dtype.is_string:
            raise BindError(
                f"cannot compare {left.dtype.name} with {right.dtype.name}")
        self.op = op
        self.left = left
        self.right = right
        self.dtype = dt.BOOLEAN

    def children(self):
        return (self.left, self.right)

    def evaluate(self, rel: Relation) -> BAT:
        return kernel.calc_cmp(self.op, self.left.evaluate(rel),
                               self.right.evaluate(rel))

    def sql(self) -> str:
        op = {"==": "="}.get(self.op, self.op)
        return f"({self.left.sql()} {op} {self.right.sql()})"


class BoundLogical(BoundExpr):
    def __init__(self, op: str, left: BoundExpr, right: BoundExpr):
        self.op = op  # "and" | "or"
        self.left = left
        self.right = right
        self.dtype = dt.BOOLEAN

    def children(self):
        return (self.left, self.right)

    def evaluate(self, rel: Relation) -> BAT:
        lhs = self.left.evaluate(rel)
        rhs = self.right.evaluate(rel)
        if self.op == "and":
            return kernel.calc_and(lhs, rhs)
        return kernel.calc_or(lhs, rhs)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op.upper()} {self.right.sql()})"


class BoundNot(BoundExpr):
    def __init__(self, operand: BoundExpr):
        self.operand = operand
        self.dtype = dt.BOOLEAN

    def children(self):
        return (self.operand,)

    def evaluate(self, rel: Relation) -> BAT:
        return kernel.calc_not(self.operand.evaluate(rel))

    def sql(self) -> str:
        return f"(NOT {self.operand.sql()})"


class BoundIsNull(BoundExpr):
    def __init__(self, operand: BoundExpr, negated: bool = False):
        self.operand = operand
        self.negated = negated
        self.dtype = dt.BOOLEAN

    def children(self):
        return (self.operand,)

    def evaluate(self, rel: Relation) -> BAT:
        result = kernel.calc_isnil(self.operand.evaluate(rel))
        if self.negated:
            result = kernel.calc_not(result)
        return result

    def sql(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {tail})"


class BoundInList(BoundExpr):
    """SQL IN over a list of constants, with NULL-correct semantics."""

    def __init__(self, operand: BoundExpr, values: Sequence,
                 negated: bool = False):
        self.operand = operand
        self.values = list(values)  # Python constants; may include None
        self.negated = negated
        self.dtype = dt.BOOLEAN

    def children(self):
        return (self.operand,)

    def evaluate(self, rel: Relation) -> BAT:
        col = self.operand.evaluate(rel)
        nil = col.nil_mask()
        needles = [v for v in self.values if v is not None]
        has_null_item = any(v is None for v in self.values)
        hit_pos = kernel.in_select(col, needles) if needles else \
            np.empty(0, dtype=np.int64)
        out = np.zeros(len(col), dtype=np.int8)
        out[hit_pos] = 1
        # x IN (..., NULL): a non-match is UNKNOWN, not FALSE
        if has_null_item:
            out[(out == 0)] = -1
        out[nil] = -1
        result = BAT.from_array(dt.BOOLEAN, out)
        if self.negated:
            result = kernel.calc_not(result)
        return result

    def sql(self) -> str:
        items = ", ".join("NULL" if v is None else repr(v)
                          for v in self.values)
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {word} ({items}))"


class BoundLike(BoundExpr):
    def __init__(self, operand: BoundExpr, pattern: str,
                 negated: bool = False):
        if not operand.dtype.is_string:
            raise BindError("LIKE over non-string expression")
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self.dtype = dt.BOOLEAN
        self._regex = kernel.like_to_regex(pattern)

    def children(self):
        return (self.operand,)

    def evaluate(self, rel: Relation) -> BAT:
        col = self.operand.evaluate(rel)
        out = np.empty(len(col), dtype=np.int8)
        for i, v in enumerate(col.values):
            if v is None:
                out[i] = -1
            else:
                out[i] = 1 if self._regex.match(v) else 0
        result = BAT.from_array(dt.BOOLEAN, out)
        if self.negated:
            result = kernel.calc_not(result)
        return result

    def sql(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.sql()} {word} '{self.pattern}')"


class BoundCase(BoundExpr):
    def __init__(self, whens: Sequence[Tuple[BoundExpr, BoundExpr]],
                 else_: Optional[BoundExpr], dtype: dt.DataType):
        self.whens = list(whens)
        self.else_ = else_
        self.dtype = dtype

    def children(self):
        out = []
        for cond, value in self.whens:
            out.extend((cond, value))
        if self.else_ is not None:
            out.append(self.else_)
        return out

    def evaluate(self, rel: Relation) -> BAT:
        n = rel.row_count
        decided = np.zeros(n, dtype=bool)
        result = kernel.const_column(self.dtype, None, n)
        values = result.values
        for cond, value in self.whens:
            mask = cond.evaluate(rel).values == 1
            take = mask & ~decided
            if take.any():
                branch = value.evaluate(rel)
                if branch.dtype != self.dtype:
                    branch = kernel.calc_cast(branch, self.dtype)
                values[take] = branch.values[take]
                decided |= take
        if self.else_ is not None and not decided.all():
            branch = self.else_.evaluate(rel)
            if branch.dtype != self.dtype:
                branch = kernel.calc_cast(branch, self.dtype)
            rest = ~decided
            values[rest] = branch.values[rest]
        return result

    def sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.whens:
            parts.append(f"WHEN {cond.sql()} THEN {value.sql()}")
        if self.else_ is not None:
            parts.append(f"ELSE {self.else_.sql()}")
        parts.append("END")
        return " ".join(parts)


class BoundCast(BoundExpr):
    def __init__(self, operand: BoundExpr, dtype: dt.DataType):
        self.operand = operand
        self.dtype = dtype

    def children(self):
        return (self.operand,)

    def evaluate(self, rel: Relation) -> BAT:
        return kernel.calc_cast(self.operand.evaluate(rel), self.dtype)

    def const_value(self):
        v = self.operand.const_value()
        if v is None:
            return None
        return dt.from_storage(self.dtype, dt.coerce_value(self.dtype, v))

    def sql(self) -> str:
        return f"CAST({self.operand.sql()} AS {self.dtype.name})"


class BoundFunc(BoundExpr):
    def __init__(self, name: str, args: Sequence[BoundExpr],
                 dtype: dt.DataType, impl: Callable[..., BAT]):
        self.name = name
        self.args = list(args)
        self.dtype = dtype
        self.impl = impl

    def children(self):
        return self.args

    def evaluate(self, rel: Relation) -> BAT:
        return self.impl(*[a.evaluate(rel) for a in self.args])

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


class BoundAgg(BoundExpr):
    """An aggregate call placeholder.

    Never evaluated directly: the Aggregate plan node computes it via the
    kernel and exposes the result as an output column; expressions above
    the aggregation refer to that column through a :class:`BoundColumn`.
    """

    def __init__(self, op: str, arg: Optional[BoundExpr],
                 distinct: bool = False):
        self.op = op.lower()
        self.arg = arg
        self.distinct = distinct
        self.dtype = _agg_type(self.op, arg)

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def evaluate(self, rel: Relation) -> BAT:
        raise KernelError(
            "aggregate evaluated outside an Aggregate plan node")

    def sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.sql()
        if self.distinct:
            inner = "DISTINCT " + inner
        return f"{self.op.upper()}({inner})"


def _agg_type(op: str, arg: Optional[BoundExpr]) -> dt.DataType:
    from repro.sql.functions import aggregate_result_type
    return aggregate_result_type(op, arg.dtype if arg is not None else None)


def contains_aggregate(expr: BoundExpr) -> bool:
    return any(isinstance(node, BoundAgg) for node in expr.walk())


def collect_aggregates(expr: BoundExpr) -> List[BoundAgg]:
    return [node for node in expr.walk() if isinstance(node, BoundAgg)]


def replace_nodes(expr: BoundExpr, mapping) -> BoundExpr:
    """Return a copy of *expr* with nodes substituted via *mapping*.

    *mapping* is ``fn(node) -> replacement or None``; children of replaced
    nodes are not revisited.
    """
    replacement = mapping(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, BoundArith):
        return BoundArith(expr.op, replace_nodes(expr.left, mapping),
                          replace_nodes(expr.right, mapping))
    if isinstance(expr, BoundNeg):
        return BoundNeg(replace_nodes(expr.operand, mapping))
    if isinstance(expr, BoundCompare):
        return BoundCompare(expr.op, replace_nodes(expr.left, mapping),
                            replace_nodes(expr.right, mapping))
    if isinstance(expr, BoundLogical):
        return BoundLogical(expr.op, replace_nodes(expr.left, mapping),
                            replace_nodes(expr.right, mapping))
    if isinstance(expr, BoundNot):
        return BoundNot(replace_nodes(expr.operand, mapping))
    if isinstance(expr, BoundIsNull):
        return BoundIsNull(replace_nodes(expr.operand, mapping),
                           expr.negated)
    if isinstance(expr, BoundInList):
        return BoundInList(replace_nodes(expr.operand, mapping),
                           expr.values, expr.negated)
    if isinstance(expr, BoundLike):
        return BoundLike(replace_nodes(expr.operand, mapping),
                         expr.pattern, expr.negated)
    if isinstance(expr, BoundCase):
        whens = [(replace_nodes(c, mapping), replace_nodes(v, mapping))
                 for c, v in expr.whens]
        else_ = (replace_nodes(expr.else_, mapping)
                 if expr.else_ is not None else None)
        return BoundCase(whens, else_, expr.dtype)
    if isinstance(expr, BoundCast):
        return BoundCast(replace_nodes(expr.operand, mapping), expr.dtype)
    if isinstance(expr, BoundFunc):
        return BoundFunc(expr.name,
                         [replace_nodes(a, mapping) for a in expr.args],
                         expr.dtype, expr.impl)
    if isinstance(expr, BoundAgg):
        arg = (replace_nodes(expr.arg, mapping)
               if expr.arg is not None else None)
        return BoundAgg(expr.op, arg, expr.distinct)
    return expr

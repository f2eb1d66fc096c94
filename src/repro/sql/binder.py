"""Semantic analysis: resolve names, type expressions, find aggregates."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import BindError
from repro.sql import ast
from repro.sql import functions as funcs
from repro.sql.expressions import (BoundAgg, BoundArith, BoundCase,
                                   BoundCast, BoundColumn, BoundCompare,
                                   BoundExpr, BoundFunc, BoundInList,
                                   BoundIsNull, BoundLike, BoundLiteral,
                                   BoundLogical, BoundNeg, BoundNot)
from repro.storage import types as dt
from repro.storage.schema import Schema


class Scope:
    """Name resolution scope: qualified and bare column lookups."""

    def __init__(self):
        self._qualified: Dict[str, dt.DataType] = {}
        self._bare: Dict[str, List[str]] = {}
        self.aliases: List[str] = []

    def add_source(self, alias: str, schema: Schema) -> None:
        alias = alias.lower()
        if alias in self.aliases:
            raise BindError(f"duplicate table alias {alias!r}")
        self.aliases.append(alias)
        for col in schema:
            self.add_column(f"{alias}.{col.name}", col.dtype,
                            bare_name=col.name)

    def add_column(self, key: str, dtype: dt.DataType,
                   bare_name: Optional[str] = None) -> None:
        key = key.lower()
        if key in self._qualified:
            raise BindError(f"duplicate column key {key!r}")
        self._qualified[key] = dtype
        bare = (bare_name or key).lower()
        self._bare.setdefault(bare, []).append(key)

    def resolve(self, name: str, table: Optional[str] = None
                ) -> Tuple[str, dt.DataType]:
        """Resolve a (possibly qualified) column reference to (key, type)."""
        name = name.lower()
        if table is not None:
            key = f"{table.lower()}.{name}"
            if key not in self._qualified:
                raise BindError(f"unknown column {table}.{name}")
            return key, self._qualified[key]
        if name in self._qualified:  # already-qualified internal key
            return name, self._qualified[name]
        candidates = self._bare.get(name, [])
        if not candidates:
            raise BindError(f"unknown column {name!r}")
        if len(candidates) > 1:
            raise BindError(
                f"ambiguous column {name!r}: could be any of {candidates}")
        key = candidates[0]
        return key, self._qualified[key]

    def columns(self) -> List[Tuple[str, dt.DataType]]:
        return list(self._qualified.items())


class Binder:
    """Turns parser AST expressions into typed :class:`BoundExpr` trees."""

    def __init__(self, scope: Scope, allow_aggregates: bool = False):
        self.scope = scope
        self.allow_aggregates = allow_aggregates

    def bind(self, expr: ast.Expr, inside_aggregate: bool = False
             ) -> BoundExpr:
        if isinstance(expr, ast.Literal):
            return _literal(expr.value)
        if isinstance(expr, ast.ColumnRef):
            key, dtype = self.scope.resolve(expr.name, expr.table)
            return BoundColumn(key, dtype)
        if isinstance(expr, ast.Star):
            raise BindError("'*' is only allowed in COUNT(*) here")
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "-":
                # a signed number is one literal, as the lexer reads it
                # in a VALUES row: -9223372036854775808 is in range
                if isinstance(expr.operand, ast.Literal) \
                        and type(expr.operand.value) in (int, float):
                    return _literal(-expr.operand.value)
                operand = self.bind(expr.operand, inside_aggregate)
                if isinstance(operand, BoundLiteral) \
                        and operand.value is not None:
                    return BoundLiteral(-operand.value, operand.dtype)
                return BoundNeg(operand)
            if expr.op == "not":
                return BoundNot(self.bind(expr.operand, inside_aggregate))
            raise BindError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, inside_aggregate)
        if isinstance(expr, ast.IsNull):
            return BoundIsNull(self.bind(expr.operand, inside_aggregate),
                               expr.negated)
        if isinstance(expr, ast.Between):
            operand = self.bind(expr.operand, inside_aggregate)
            low = self.bind(expr.low, inside_aggregate)
            high = self.bind(expr.high, inside_aggregate)
            low, _ = _unify_null(low, operand)
            high, _ = _unify_null(high, operand)
            test = BoundLogical("and",
                                BoundCompare(">=", operand, low),
                                BoundCompare("<=", operand, high))
            return BoundNot(test) if expr.negated else test
        if isinstance(expr, ast.InList):
            operand = self.bind(expr.operand, inside_aggregate)
            values = []
            for item in expr.items:
                bound = self.bind(item, inside_aggregate)
                try:
                    value = bound.const_value()
                except BindError:
                    raise BindError(
                        "IN list items must be constants") from None
                if value is not None:
                    value = dt.from_storage(
                        operand.dtype,
                        dt.coerce_value(operand.dtype, value))
                values.append(value)
            return BoundInList(operand, values, expr.negated)
        if isinstance(expr, ast.InSubquery):
            raise BindError(
                "IN (SELECT ...) is only supported as a top-level "
                "conjunct of WHERE (it rewrites to a semi/anti join)")
        if isinstance(expr, ast.Like):
            return BoundLike(self.bind(expr.operand, inside_aggregate),
                             expr.pattern, expr.negated)
        if isinstance(expr, ast.Case):
            return self._case(expr, inside_aggregate)
        if isinstance(expr, ast.Cast):
            target = dt.DataType.by_name(expr.type_name)
            return BoundCast(self.bind(expr.operand, inside_aggregate),
                             target)
        if isinstance(expr, ast.FunctionCall):
            return self._call(expr, inside_aggregate)
        raise BindError(f"cannot bind expression {expr!r}")

    # -- helpers -----------------------------------------------------

    def _binary(self, expr: ast.BinaryOp,
                inside_aggregate: bool) -> BoundExpr:
        op = expr.op
        left = self.bind(expr.left, inside_aggregate)
        right = self.bind(expr.right, inside_aggregate)
        if op in ("and", "or"):
            return BoundLogical(op, left, right)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            left, right = _unify_null(left, right)
            return BoundCompare(op, left, right)
        if op in ("+", "-", "*", "/", "%", "||"):
            left, right = _unify_null(left, right)
            return BoundArith(op, left, right)
        raise BindError(f"unknown binary operator {op!r}")

    def _case(self, expr: ast.Case, inside_aggregate: bool) -> BoundExpr:
        whens = [(self.bind(c, inside_aggregate),
                  self.bind(v, inside_aggregate)) for c, v in expr.whens]
        else_ = (self.bind(expr.else_, inside_aggregate)
                 if expr.else_ is not None else None)
        branches = [v for _c, v in whens] + \
            ([else_] if else_ is not None else [])
        out_type = None
        for branch in branches:
            if isinstance(branch, BoundLiteral) and branch.value is None:
                continue
            out_type = branch.dtype if out_type is None \
                else (branch.dtype if out_type == branch.dtype
                      else dt.common_type(out_type, branch.dtype))
        if out_type is None:
            out_type = dt.STRING
        return BoundCase(whens, else_, out_type)

    def _call(self, expr: ast.FunctionCall,
              inside_aggregate: bool) -> BoundExpr:
        name = expr.name
        if funcs.is_aggregate(name):
            if not self.allow_aggregates:
                raise BindError(
                    f"aggregate {name!r} is not allowed in this clause")
            if inside_aggregate:
                raise BindError("aggregates cannot be nested")
            if name == "count" and len(expr.args) == 1 \
                    and isinstance(expr.args[0], ast.Star):
                return BoundAgg("count", None, expr.distinct)
            if len(expr.args) != 1:
                raise BindError(f"{name} takes exactly one argument")
            arg = self.bind(expr.args[0], inside_aggregate=True)
            return BoundAgg(name, arg, expr.distinct)
        if expr.distinct:
            raise BindError("DISTINCT only applies to aggregates")
        fn = funcs.lookup(name)
        fn.check_arity(len(expr.args))
        args = [self.bind(a, inside_aggregate) for a in expr.args]
        out_type = fn.result_type([a.dtype for a in args])
        return BoundFunc(name, args, out_type, fn.impl)


def _literal(value) -> BoundLiteral:
    if value is None:
        return BoundLiteral(None, dt.STRING)
    return BoundLiteral(value, dt.infer_type(value))


def _unify_null(a: BoundExpr, b: BoundExpr
                ) -> Tuple[BoundExpr, BoundExpr]:
    """Retype bare NULL literals to the other operand's type."""
    if isinstance(a, BoundLiteral) and a.value is None \
            and a.dtype != b.dtype:
        a = BoundLiteral(None, b.dtype)
    if isinstance(b, BoundLiteral) and b.value is None \
            and b.dtype != a.dtype:
        b = BoundLiteral(None, a.dtype)
    return a, b

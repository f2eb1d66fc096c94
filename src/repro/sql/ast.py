"""Abstract syntax trees produced by the parser (unbound, untyped)."""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple


class Node:
    """Base class for all AST nodes; structural equality for testing."""

    _fields: Tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and all(getattr(self, f) == getattr(other, f)
                        for f in self._fields))

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


# ---------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------

class Expr(Node):
    pass


class Literal(Expr):
    _fields = ("value",)

    def __init__(self, value: Any):
        self.value = value  # int/float/str/bool/None


class ColumnRef(Expr):
    _fields = ("table", "name")

    def __init__(self, name: str, table: Optional[str] = None):
        self.table = table
        self.name = name


class Star(Expr):
    """``*`` — only valid inside COUNT(*) or as the whole select list."""
    _fields = ()


class BinaryOp(Expr):
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right


class UnaryOp(Expr):
    _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op  # "-" or "not"
        self.operand = operand


class FunctionCall(Expr):
    _fields = ("name", "args", "distinct")

    def __init__(self, name: str, args: Sequence[Expr],
                 distinct: bool = False):
        self.name = name.lower()
        self.args = list(args)
        self.distinct = distinct


class IsNull(Expr):
    _fields = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated


class Between(Expr):
    _fields = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr,
                 negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class InList(Expr):
    _fields = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Sequence[Expr],
                 negated: bool = False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated


class InSubquery(Expr):
    """``x [NOT] IN (SELECT ...)`` — planned as a semi/anti join.

    Only supported as a top-level conjunct of WHERE (it rewrites to a
    join, which cannot live under OR).
    """
    _fields = ("operand", "select", "negated")

    def __init__(self, operand: Expr, select: "SelectStmt",
                 negated: bool = False):
        self.operand = operand
        self.select = select
        self.negated = negated


class Like(Expr):
    _fields = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated


class Case(Expr):
    _fields = ("whens", "else_")

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]],
                 else_: Optional[Expr] = None):
        self.whens = list(whens)
        self.else_ = else_


class Cast(Expr):
    _fields = ("operand", "type_name")

    def __init__(self, operand: Expr, type_name: str):
        self.operand = operand
        self.type_name = type_name


# ---------------------------------------------------------------------
# query structure
# ---------------------------------------------------------------------

class WindowClause(Node):
    """DataCell window: ``[RANGE n (SECONDS) SLIDE m (SECONDS)]``.

    ``time_based`` selects time windows (sizes in seconds) versus tuple
    count windows. ``slide=None`` means a tumbling window (slide == size).
    """
    _fields = ("size", "slide", "time_based")

    def __init__(self, size: int, slide: Optional[int] = None,
                 time_based: bool = False):
        self.size = size
        self.slide = slide
        self.time_based = time_based


class TableRef(Node):
    _fields = ("name", "alias", "window")

    def __init__(self, name: str, alias: Optional[str] = None,
                 window: Optional[WindowClause] = None):
        self.name = name.lower()
        self.alias = (alias or name).lower()
        self.window = window


class FromItem(Node):
    """One member of the FROM clause with its join condition.

    The first item has ``join_cond None``; later items join against the
    accumulated result either with an explicit ON condition or as a
    cross product (comma syntax — equi-conditions are recovered from
    WHERE by the optimizer). ``join_type`` is ``"inner"`` or ``"left"``.
    """
    _fields = ("ref", "join_cond", "join_type")

    def __init__(self, ref: TableRef, join_cond: Optional[Expr] = None,
                 join_type: str = "inner"):
        self.ref = ref
        self.join_cond = join_cond
        self.join_type = join_type


class SelectItem(Node):
    _fields = ("expr", "alias")

    def __init__(self, expr: Expr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias


class OrderItem(Node):
    _fields = ("expr", "descending")

    def __init__(self, expr: Expr, descending: bool = False):
        self.expr = expr
        self.descending = descending


# ---------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------

class Statement(Node):
    pass


class SelectStmt(Statement):
    _fields = ("items", "from_items", "where", "group_by", "having",
               "order_by", "limit", "offset", "distinct")

    def __init__(self, items: Sequence[SelectItem],
                 from_items: Sequence[FromItem],
                 where: Optional[Expr] = None,
                 group_by: Sequence[Expr] = (),
                 having: Optional[Expr] = None,
                 order_by: Sequence[OrderItem] = (),
                 limit: Optional[int] = None,
                 offset: int = 0,
                 distinct: bool = False):
        self.items = list(items)
        self.from_items = list(from_items)
        self.where = where
        self.group_by = list(group_by)
        self.having = having
        self.order_by = list(order_by)
        self.limit = limit
        self.offset = offset
        self.distinct = distinct


class UnionStmt(Statement):
    """A UNION [ALL] chain of SELECT cores with compound-level
    ORDER BY / LIMIT. ``distinct=True`` for plain UNION."""
    _fields = ("selects", "distinct", "order_by", "limit", "offset")

    def __init__(self, selects: Sequence["SelectStmt"],
                 distinct: bool = False,
                 order_by: Sequence[OrderItem] = (),
                 limit: Optional[int] = None, offset: int = 0):
        self.selects = list(selects)
        self.distinct = distinct
        self.order_by = list(order_by)
        self.limit = limit
        self.offset = offset


class CreateTableStmt(Statement):
    _fields = ("name", "columns")

    def __init__(self, name: str, columns: Sequence[Tuple[str, str]]):
        self.name = name.lower()
        self.columns = list(columns)  # (name, type_name)


class CreateStreamStmt(Statement):
    _fields = ("name", "columns")

    def __init__(self, name: str, columns: Sequence[Tuple[str, str]]):
        self.name = name.lower()
        self.columns = list(columns)


class CreateIndexStmt(Statement):
    _fields = ("table", "column")

    def __init__(self, table: str, column: str):
        self.table = table.lower()
        self.column = column.lower()


class DropStmt(Statement):
    _fields = ("kind", "name")

    def __init__(self, kind: str, name: str):
        self.kind = kind  # "table" | "stream"
        self.name = name.lower()


class ExplainStmt(Statement):
    """EXPLAIN <select> — returns the logical plan and MAL program."""
    _fields = ("statement",)

    def __init__(self, statement: Statement):
        self.statement = statement


class DeleteStmt(Statement):
    _fields = ("table", "where")

    def __init__(self, table: str, where: Optional[Expr] = None):
        self.table = table.lower()
        self.where = where


class UpdateStmt(Statement):
    _fields = ("table", "assignments", "where")

    def __init__(self, table: str,
                 assignments: Sequence[Tuple[str, Expr]],
                 where: Optional[Expr] = None):
        self.table = table.lower()
        self.assignments = [(c.lower(), e) for c, e in assignments]
        self.where = where


class InsertStmt(Statement):
    """``rows`` holds a list of Exprs per row, or a literal row's values
    (int/float/str/bool/None) as they are, not wrapped in Literals."""
    _fields = ("table", "columns", "rows", "select")

    def __init__(self, table: str, columns: Optional[Sequence[str]],
                 rows: Optional[Sequence[list]] = None,
                 select: Optional[SelectStmt] = None):
        self.table = table.lower()
        self.columns = list(columns) if columns else None
        self.rows = list(rows) if rows is not None else None
        self.select = select

"""Recursive-descent SQL parser.

Covers the SQL'03 subset DataCell needs (select-project-join-aggregate
with HAVING/ORDER BY/LIMIT, DDL for tables and streams, INSERT) plus the
DataCell stream extensions: ``CREATE STREAM`` and the window clause
``FROM s [RANGE n SLIDE m]`` / ``[RANGE n SECONDS SLIDE m SECONDS]``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, tokenize

_AGG_KEYWORDS = ("count", "sum", "avg", "min", "max")


class Parser:
    """One-token-lookahead recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def _check(self, kind: str, value=None) -> bool:
        return self.current.matches(kind, value)

    def _accept(self, kind: str, value=None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value=None) -> Token:
        if not self._check(kind, value):
            raise ParseError(
                f"expected {value or kind}, found "
                f"{self.current.value!r}", self.current)
        return self._advance()

    def _accept_keyword(self, *words: str) -> Optional[str]:
        if self.current.kind == "KEYWORD" and self.current.value in words:
            return self._advance().value
        return None

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise ParseError(f"expected {word.upper()}, found "
                             f"{self.current.value!r}", self.current)

    def _ident(self) -> str:
        token = self.current
        if token.kind == "IDENT":
            return self._advance().value
        # allow non-reserved keywords as identifiers where unambiguous
        if token.kind == "KEYWORD" and token.value in (
                "range", "slide", "seconds", "tuples", "query", "index",
                "count", "min", "max"):
            return self._advance().value
        raise ParseError(f"expected identifier, found {token.value!r}",
                         token)

    # -- entry points -------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        stmt = self._statement()
        self._accept("PUNCT", ";")
        if not self._check("EOF"):
            raise ParseError(
                f"unexpected trailing input {self.current.value!r}",
                self.current)
        return stmt

    def parse_script(self) -> List[ast.Statement]:
        stmts = []
        while not self._check("EOF"):
            stmts.append(self._statement())
            if not self._accept("PUNCT", ";") and not self._check("EOF"):
                raise ParseError(
                    f"expected ';', found {self.current.value!r}",
                    self.current)
        return stmts

    # -- statements ---------------------------------------------------------

    def _statement(self) -> ast.Statement:
        if self._check("KEYWORD", "select"):
            return self._select()
        if self._accept_keyword("create"):
            return self._create()
        if self._accept_keyword("drop"):
            kind = self._accept_keyword("table", "stream")
            if kind is None:
                raise ParseError("expected TABLE or STREAM after DROP",
                                 self.current)
            return ast.DropStmt(kind, self._ident())
        if self._accept_keyword("insert"):
            return self._insert()
        if self._accept_keyword("delete"):
            self._expect_keyword("from")
            table = self._ident()
            where = self._expr() if self._accept_keyword("where") \
                else None
            return ast.DeleteStmt(table, where)
        if self._accept_keyword("update"):
            return self._update()
        if self._accept_keyword("explain"):
            if not self._check("KEYWORD", "select"):
                raise ParseError("EXPLAIN expects a SELECT statement",
                                 self.current)
            return ast.ExplainStmt(self._select())
        raise ParseError(f"unexpected statement start "
                         f"{self.current.value!r}", self.current)

    def _update(self) -> ast.UpdateStmt:
        table = self._ident()
        self._expect_keyword("set")
        assignments = []
        while True:
            column = self._ident()
            self._expect("OP", "=")
            assignments.append((column, self._expr()))
            if not self._accept("PUNCT", ","):
                break
        where = self._expr() if self._accept_keyword("where") else None
        return ast.UpdateStmt(table, assignments, where)

    def _create(self) -> ast.Statement:
        if self._accept_keyword("table"):
            name = self._ident()
            return ast.CreateTableStmt(name, self._column_defs())
        if self._accept_keyword("stream"):
            name = self._ident()
            return ast.CreateStreamStmt(name, self._column_defs())
        if self._accept_keyword("index"):
            self._expect_keyword("on")
            table = self._ident()
            self._expect("PUNCT", "(")
            column = self._ident()
            self._expect("PUNCT", ")")
            if self._accept_keyword("using"):
                # both words name the one ColumnIndex
                token = self.current
                if self._ident() not in ("hash", "sorted"):
                    raise ParseError("expected HASH or SORTED after "
                                     "USING", token)
            return ast.CreateIndexStmt(table, column)
        raise ParseError("expected TABLE, STREAM or INDEX after CREATE",
                         self.current)

    def _column_defs(self) -> List[Tuple[str, str]]:
        self._expect("PUNCT", "(")
        cols = []
        while True:
            name = self._ident()
            type_name = self._type_name()
            cols.append((name, type_name))
            if not self._accept("PUNCT", ","):
                break
        self._expect("PUNCT", ")")
        return cols

    def _type_name(self) -> str:
        token = self.current
        if token.kind in ("IDENT", "KEYWORD"):
            name = self._advance().value
            # swallow VARCHAR(30)-style length arguments
            if self._accept("PUNCT", "("):
                self._expect("NUMBER")
                if self._accept("PUNCT", ","):
                    self._expect("NUMBER")
                self._expect("PUNCT", ")")
            return name
        raise ParseError(f"expected type name, found {token.value!r}",
                         token)

    def _insert(self) -> ast.InsertStmt:
        self._expect_keyword("into")
        table = self._ident()
        columns = None
        if self._accept("PUNCT", "("):
            columns = [self._ident()]
            while self._accept("PUNCT", ","):
                columns.append(self._ident())
            self._expect("PUNCT", ")")
        if self._accept_keyword("values"):
            return ast.InsertStmt(table, columns, rows=self._value_rows())
        if self._check("KEYWORD", "select"):
            return ast.InsertStmt(table, columns, select=self._select())
        raise ParseError("expected VALUES or SELECT in INSERT",
                         self.current)

    def _value_rows(self) -> List[list]:
        """The comma-separated rows after ``VALUES``; a literal ``ROW``
        token is taken as it stands, without the token helpers."""
        tokens = self.tokens
        rows = []
        while True:
            token = tokens[self.pos]
            if token.kind == "ROW":
                rows.append(token.value)
                self.pos += 1
            else:
                rows.append(self._value_row())
            token = tokens[self.pos]
            if token.kind != "PUNCT" or token.value != ",":
                return rows
            self.pos += 1

    def _value_row(self) -> list:
        """A row of Exprs, or the values of a literal ``ROW`` token."""
        literals = self._accept("ROW")
        if literals is not None:
            return literals.value
        self._expect("PUNCT", "(")
        row = [self._expr()]
        while self._accept("PUNCT", ","):
            row.append(self._expr())
        self._expect("PUNCT", ")")
        return row

    # -- SELECT ---------------------------------------------------------------

    def _select(self):
        """One SELECT statement, possibly a UNION [ALL] compound."""
        first = self._select_core()
        if not self._check("KEYWORD", "union"):
            order_by, limit, offset = self._order_limit()
            first.order_by = order_by
            first.limit = limit
            first.offset = offset
            return first
        selects = [first]
        any_distinct = False
        while self._accept_keyword("union"):
            if not self._accept_keyword("all"):
                any_distinct = True
            selects.append(self._select_core())
        order_by, limit, offset = self._order_limit()
        return ast.UnionStmt(selects, any_distinct, order_by, limit,
                             offset)

    def _select_core(self) -> ast.SelectStmt:
        """SELECT ... [WHERE] [GROUP BY] [HAVING] — no ORDER/LIMIT
        (those bind to the whole compound)."""
        self._expect_keyword("select")
        distinct = bool(self._accept_keyword("distinct"))
        items = self._select_items()
        self._expect_keyword("from")
        from_items = self._from_clause()
        where = self._expr() if self._accept_keyword("where") else None
        group_by: List[ast.Expr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._expr())
            while self._accept("PUNCT", ","):
                group_by.append(self._expr())
        having = self._expr() if self._accept_keyword("having") else None
        return ast.SelectStmt(items, from_items, where, group_by, having,
                              (), None, 0, distinct)

    def _order_limit(self):
        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_item())
            while self._accept("PUNCT", ","):
                order_by.append(self._order_item())
        limit = None
        offset = 0
        if self._accept_keyword("limit"):
            limit = int(self._expect("NUMBER").value)
            if self._accept_keyword("offset"):
                offset = int(self._expect("NUMBER").value)
        return order_by, limit, offset

    def _select_items(self) -> List[ast.SelectItem]:
        if self._accept("OP", "*"):
            return [ast.SelectItem(ast.Star())]
        items = [self._select_item()]
        while self._accept("PUNCT", ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        expr = self._expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._ident()
        elif self.current.kind == "IDENT":
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expr, descending)

    # -- FROM / windows --------------------------------------------------------

    def _from_clause(self) -> List[ast.FromItem]:
        items = [ast.FromItem(self._table_ref())]
        while True:
            if self._accept("PUNCT", ","):
                items.append(ast.FromItem(self._table_ref()))
                continue
            if self._accept_keyword("cross"):
                self._expect_keyword("join")
                items.append(ast.FromItem(self._table_ref()))
                continue
            if self._accept_keyword("left"):
                self._accept_keyword("outer")
                self._expect_keyword("join")
                ref = self._table_ref()
                self._expect_keyword("on")
                items.append(ast.FromItem(ref, self._expr(),
                                          join_type="left"))
                continue
            saw_inner = self._accept_keyword("inner")
            if self._accept_keyword("join"):
                ref = self._table_ref()
                self._expect_keyword("on")
                items.append(ast.FromItem(ref, self._expr()))
                continue
            if saw_inner:
                raise ParseError("expected JOIN after INNER", self.current)
            break
        return items

    def _table_ref(self) -> ast.TableRef:
        name = self._ident()
        window = self._window_clause()
        alias = None
        if self._accept_keyword("as"):
            alias = self._ident()
        elif self.current.kind == "IDENT":
            alias = self._advance().value
        return ast.TableRef(name, alias, window)

    def _window_clause(self) -> Optional[ast.WindowClause]:
        if not self._accept("PUNCT", "["):
            return None
        self._expect_keyword("range")
        size = int(self._expect("NUMBER").value)
        time_based = False
        if self._accept_keyword("seconds"):
            time_based = True
        else:
            self._accept_keyword("tuples")
        slide = None
        if self._accept_keyword("slide"):
            slide = int(self._expect("NUMBER").value)
            unit = self._accept_keyword("seconds", "tuples")
            if time_based and unit == "tuples":
                raise ParseError("window mixes SECONDS and TUPLES",
                                 self.current)
            if not time_based and unit == "seconds":
                raise ParseError("window mixes TUPLES and SECONDS",
                                 self.current)
        self._expect("PUNCT", "]")
        return ast.WindowClause(size, slide, time_based)

    # -- expressions -------------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("not"):
            return ast.UnaryOp("not", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expr:
        left = self._additive()
        if self._accept_keyword("is"):
            negated = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return ast.IsNull(left, negated)
        negated = bool(self._accept_keyword("not"))
        if self._accept_keyword("between"):
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("in"):
            self._expect("PUNCT", "(")
            if self._check("KEYWORD", "select"):
                sub = self._select_core()
                self._expect("PUNCT", ")")
                return ast.InSubquery(left, sub, negated)
            items = [self._expr()]
            while self._accept("PUNCT", ","):
                items.append(self._expr())
            self._expect("PUNCT", ")")
            return ast.InList(left, items, negated)
        if self._accept_keyword("like"):
            pattern = self._expect("STRING").value
            return ast.Like(left, pattern, negated)
        if negated:
            raise ParseError("expected BETWEEN, IN or LIKE after NOT",
                             self.current)
        for op in ("=", "<>", "!=", "<=", ">=", "<", ">"):
            if self._accept("OP", op):
                normalized = {"=": "==", "<>": "!=", "!=": "!="}.get(op, op)
                return ast.BinaryOp(normalized, left, self._additive())
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            if self._accept("OP", "+"):
                left = ast.BinaryOp("+", left, self._multiplicative())
            elif self._accept("OP", "-"):
                left = ast.BinaryOp("-", left, self._multiplicative())
            elif self._accept("OP", "||"):
                left = ast.BinaryOp("||", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            if self._accept("OP", "*"):
                left = ast.BinaryOp("*", left, self._unary())
            elif self._accept("OP", "/"):
                left = ast.BinaryOp("/", left, self._unary())
            elif self._accept("OP", "%"):
                left = ast.BinaryOp("%", left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expr:
        if self._accept("OP", "-"):
            return ast.UnaryOp("-", self._unary())
        if self._accept("OP", "+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "NUMBER":
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "STRING":
            self._advance()
            return ast.Literal(token.value)
        if self._accept_keyword("true"):
            return ast.Literal(True)
        if self._accept_keyword("false"):
            return ast.Literal(False)
        if self._accept_keyword("null"):
            return ast.Literal(None)
        if self._accept_keyword("case"):
            return self._case()
        if self._accept_keyword("cast"):
            self._expect("PUNCT", "(")
            operand = self._expr()
            self._expect_keyword("as")
            type_name = self._type_name()
            self._expect("PUNCT", ")")
            return ast.Cast(operand, type_name)
        if (token.kind == "KEYWORD" and token.value in _AGG_KEYWORDS
                and self.tokens[self.pos + 1].matches("PUNCT", "(")):
            self._advance()
            return self._call(token.value)
        if token.kind == "IDENT":
            name = self._advance().value
            if self._check("PUNCT", "("):
                return self._call(name)
            if self._accept("PUNCT", "."):
                return ast.ColumnRef(self._ident(), table=name)
            return ast.ColumnRef(name)
        if self._accept("PUNCT", "("):
            expr = self._expr()
            self._expect("PUNCT", ")")
            return expr
        raise ParseError(f"unexpected token {token.value!r} in expression",
                         token)

    def _call(self, name: str) -> ast.FunctionCall:
        self._expect("PUNCT", "(")
        distinct = bool(self._accept_keyword("distinct"))
        if name == "count" and self._accept("OP", "*"):
            self._expect("PUNCT", ")")
            return ast.FunctionCall("count", [ast.Star()], distinct)
        args: List[ast.Expr] = []
        if not self._check("PUNCT", ")"):
            args.append(self._expr())
            while self._accept("PUNCT", ","):
                args.append(self._expr())
        self._expect("PUNCT", ")")
        return ast.FunctionCall(name, args, distinct)

    def _case(self) -> ast.Case:
        whens = []
        while self._accept_keyword("when"):
            cond = self._expr()
            self._expect_keyword("then")
            whens.append((cond, self._expr()))
        if not whens:
            raise ParseError("CASE needs at least one WHEN", self.current)
        else_ = self._expr() if self._accept_keyword("else") else None
        self._expect_keyword("end")
        return ast.Case(whens, else_)


def parse(text: str) -> ast.Statement:
    """Parse one SQL statement (a trailing ``;`` is allowed)."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> List[ast.Statement]:
    """Parse a ``;``-separated sequence of statements."""
    return Parser(text).parse_script()

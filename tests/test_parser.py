"""Unit tests for the SQL parser."""

import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.parser import parse, parse_script


class TestSelectBasics:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.from_items[0].ref.name == "t"

    def test_columns_and_aliases(self):
        stmt = parse("SELECT a, b AS bee, c cee FROM t")
        assert stmt.items[1].alias == "bee"
        assert stmt.items[2].alias == "cee"

    def test_qualified_column(self):
        stmt = parse("SELECT t.a FROM t")
        expr = stmt.items[0].expr
        assert expr == ast.ColumnRef("a", table="t")

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_where(self):
        stmt = parse("SELECT a FROM t WHERE a > 5")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == ">"

    def test_group_having(self):
        stmt = parse("SELECT a FROM t GROUP BY a, b HAVING count(*) > 1")
        assert len(stmt.group_by) == 2
        assert stmt.having is not None

    def test_order_limit_offset(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2")
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False
        assert stmt.limit == 5 and stmt.offset == 2

    def test_trailing_semicolon(self):
        parse("SELECT a FROM t;")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t extra stuff everywhere (")


class TestExpressions:
    def expr(self, text):
        return parse(f"SELECT {text} FROM t").items[0].expr

    def test_precedence_mul_over_add(self):
        e = self.expr("1 + 2 * 3")
        assert e.op == "+" and e.right.op == "*"

    def test_parentheses(self):
        e = self.expr("(1 + 2) * 3")
        assert e.op == "*" and e.left.op == "+"

    def test_and_or_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert stmt.where.op == "or"
        assert stmt.where.right.op == "and"

    def test_not(self):
        stmt = parse("SELECT a FROM t WHERE NOT a = 1")
        assert isinstance(stmt.where, ast.UnaryOp)
        assert stmt.where.op == "not"

    def test_unary_minus(self):
        e = self.expr("-a")
        assert e == ast.UnaryOp("-", ast.ColumnRef("a"))

    def test_equality_normalized(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 AND b <> 2")
        assert stmt.where.left.op == "=="
        assert stmt.where.right.op == "!="

    def test_between(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.Between)

    def test_not_between(self):
        stmt = parse("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 5")
        assert stmt.where.negated

    def test_in_list(self):
        stmt = parse("SELECT a FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.items) == 3

    def test_like(self):
        stmt = parse("SELECT a FROM t WHERE s LIKE 'ab%'")
        assert isinstance(stmt.where, ast.Like)
        assert stmt.where.pattern == "ab%"

    def test_is_null(self):
        stmt = parse("SELECT a FROM t WHERE a IS NULL")
        assert isinstance(stmt.where, ast.IsNull) and not stmt.where.negated

    def test_is_not_null(self):
        stmt = parse("SELECT a FROM t WHERE a IS NOT NULL")
        assert stmt.where.negated

    def test_case(self):
        e = self.expr("CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END")
        assert isinstance(e, ast.Case)
        assert len(e.whens) == 1 and e.else_ is not None

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse("SELECT CASE ELSE 1 END FROM t")

    def test_cast(self):
        e = self.expr("CAST(a AS FLOAT)")
        assert isinstance(e, ast.Cast) and e.type_name == "float"

    def test_function_call(self):
        e = self.expr("round(a, 2)")
        assert e == ast.FunctionCall("round",
                                     [ast.ColumnRef("a"), ast.Literal(2)])

    def test_count_star(self):
        e = self.expr("count(*)")
        assert e.name == "count"
        assert isinstance(e.args[0], ast.Star)

    def test_count_distinct(self):
        e = self.expr("count(DISTINCT a)")
        assert e.distinct

    def test_literals(self):
        stmt = parse("SELECT 1, 2.5, 'x', true, false, NULL FROM t")
        values = [i.expr.value for i in stmt.items]
        assert values == [1, 2.5, "x", True, False, None]

    def test_string_concat_op(self):
        e = self.expr("a || 'x'")
        assert e.op == "||"


class TestFromClause:
    def test_alias(self):
        stmt = parse("SELECT a FROM t AS x")
        assert stmt.from_items[0].ref.alias == "x"

    def test_implicit_alias(self):
        stmt = parse("SELECT a FROM t x")
        assert stmt.from_items[0].ref.alias == "x"

    def test_comma_join(self):
        stmt = parse("SELECT a FROM t, u")
        assert len(stmt.from_items) == 2
        assert stmt.from_items[1].join_cond is None

    def test_inner_join_on(self):
        stmt = parse("SELECT a FROM t JOIN u ON t.a = u.a")
        assert stmt.from_items[1].join_cond is not None

    def test_inner_keyword(self):
        stmt = parse("SELECT a FROM t INNER JOIN u ON t.a = u.a")
        assert len(stmt.from_items) == 2

    def test_cross_join(self):
        stmt = parse("SELECT a FROM t CROSS JOIN u")
        assert stmt.from_items[1].join_cond is None

    def test_inner_without_join(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t INNER u")


class TestWindows:
    def test_tuple_window(self):
        stmt = parse("SELECT a FROM s [RANGE 10 SLIDE 2]")
        win = stmt.from_items[0].ref.window
        assert win == ast.WindowClause(10, 2, False)

    def test_tumbling_default(self):
        win = parse("SELECT a FROM s [RANGE 10]").from_items[0].ref.window
        assert win.slide is None

    def test_time_window(self):
        win = parse("SELECT a FROM s [RANGE 10 SECONDS SLIDE 2 SECONDS]"
                    ).from_items[0].ref.window
        assert win == ast.WindowClause(10, 2, True)

    def test_tuples_keyword(self):
        win = parse("SELECT a FROM s [RANGE 10 TUPLES]"
                    ).from_items[0].ref.window
        assert not win.time_based

    def test_mixed_units_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM s [RANGE 10 SECONDS SLIDE 2 TUPLES]")

    def test_window_with_alias(self):
        stmt = parse("SELECT a FROM s [RANGE 5] AS w")
        assert stmt.from_items[0].ref.alias == "w"


class TestDDL:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (a INT, s VARCHAR(20))")
        assert stmt == ast.CreateTableStmt("t", [("a", "int"),
                                                 ("s", "varchar")])

    def test_create_stream(self):
        stmt = parse("CREATE STREAM s (k INT, v FLOAT)")
        assert isinstance(stmt, ast.CreateStreamStmt)

    def test_create_index(self):
        stmt = parse("CREATE INDEX ON t (a) USING sorted")
        assert stmt == ast.CreateIndexStmt("t", "a")
        # both words (or none) name the one column index
        assert parse("CREATE INDEX ON t (a) USING hash") == stmt
        assert parse("CREATE INDEX ON t (a)") == stmt

    def test_create_index_unknown_kind(self):
        with pytest.raises(ParseError):
            parse("CREATE INDEX ON t (a) USING btree")

    def test_drop(self):
        assert parse("DROP TABLE t") == ast.DropStmt("table", "t")
        assert parse("DROP STREAM s") == ast.DropStmt("stream", "s")

    def test_drop_needs_kind(self):
        with pytest.raises(ParseError):
            parse("DROP t")

    def test_decimal_type_args(self):
        stmt = parse("CREATE TABLE t (d DECIMAL(10, 2))")
        assert stmt.columns == [("d", "decimal")]


class TestInsert:
    def test_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        assert len(stmt.rows) == 2
        assert stmt.columns is None

    def test_column_list(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ["a", "b"]

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT a FROM u")
        assert stmt.select is not None

    def test_insert_requires_body(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO t")


class TestScript:
    def test_multiple_statements(self):
        stmts = parse_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT a FROM t")
        assert len(stmts) == 3

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_script("SELECT a FROM t SELECT b FROM t")

    def test_empty_script(self):
        assert parse_script("") == []

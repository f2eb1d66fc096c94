"""Randomized SQL generation: every generated query must agree across
(a) the tree executor on the unoptimized plan, (b) the tree executor on
the optimized plan, and (c) the MAL interpreter — the strongest
whole-stack consistency check in the suite."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mal.compiler import compile_plan
from repro.mal.interpreter import MALContext, execute
from repro.sql import compile_select
from tests.tree_executor import ExecutionContext, PlanExecutor
from repro.storage import Schema
from repro.storage.catalog import Catalog

NUM_COLS = ["id", "salary"]
STR_COLS = ["dept"]
AGGS = ["count(*)", "count(salary)", "sum(salary)", "avg(salary)",
        "min(id)", "max(salary)", "stddev(salary)"]


def fresh_catalog() -> Catalog:
    catalog = Catalog()
    emp = catalog.create_table("emp", Schema.parse(
        [("id", "INT"), ("dept", "STRING"), ("salary", "FLOAT")]))
    emp.insert_rows([
        (1, "a", 100.0), (2, "a", 200.0), (3, "b", 50.0),
        (4, None, None), (5, "b", 150.0), (6, "c", 100.0),
        (7, None, 75.0), (8, "a", None),
    ])
    dept = catalog.create_table("dept", Schema.parse(
        [("name", "STRING"), ("budget", "INT")]))
    dept.insert_rows([("a", 1000), ("b", 500), ("c", 250), (None, 9)])
    return catalog


@st.composite
def scalar_expr(draw):
    base = draw(st.sampled_from(NUM_COLS))
    shape = draw(st.sampled_from(
        ["{c}", "{c} + 1", "{c} * 2", "{c} - id", "abs({c})",
         "{c} / 4", "coalesce({c}, 0)"]))
    return shape.format(c=base)


@st.composite
def predicate(draw):
    kind = draw(st.sampled_from(
        ["num_cmp", "str_eq", "is_null", "in_list", "like", "between"]))
    if kind == "num_cmp":
        col = draw(st.sampled_from(NUM_COLS))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        value = draw(st.integers(0, 200))
        return f"{col} {op} {value}"
    if kind == "str_eq":
        value = draw(st.sampled_from(["a", "b", "zz"]))
        return f"dept = '{value}'"
    if kind == "is_null":
        col = draw(st.sampled_from(NUM_COLS + STR_COLS))
        negate = "NOT " if draw(st.booleans()) else ""
        return f"{col} IS {negate}NULL"
    if kind == "in_list":
        return "id IN (1, 3, 5, 7)"
    if kind == "like":
        return draw(st.sampled_from(
            ["dept LIKE 'a%'", "dept NOT LIKE '%b%'"]))
    low = draw(st.integers(0, 100))
    return f"salary BETWEEN {low} AND {low + 80}"


@st.composite
def simple_query(draw):
    """SELECT exprs FROM emp [WHERE ...] [ORDER BY 1, id] [LIMIT n]."""
    exprs = draw(st.lists(scalar_expr(), min_size=1, max_size=3))
    sql = "SELECT " + ", ".join(exprs) + " FROM emp"
    if draw(st.booleans()):
        conjuncts = draw(st.lists(predicate(), min_size=1, max_size=2))
        joiner = draw(st.sampled_from([" AND ", " OR "]))
        sql += " WHERE " + joiner.join(conjuncts)
    sql += " ORDER BY 1, id"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(1, 6))}"
    return sql


@st.composite
def aggregate_query(draw):
    aggs = draw(st.lists(st.sampled_from(AGGS), min_size=1, max_size=3,
                         unique=True))
    group = draw(st.booleans())
    if group:
        sql = ("SELECT dept, " + ", ".join(aggs)
               + " FROM emp")
        if draw(st.booleans()):
            sql += " WHERE " + draw(predicate())
        sql += " GROUP BY dept"
        if draw(st.booleans()):
            sql += " HAVING count(*) >= 1"
        sql += " ORDER BY dept"
    else:
        sql = "SELECT " + ", ".join(aggs) + " FROM emp"
        if draw(st.booleans()):
            sql += " WHERE " + draw(predicate())
    return sql


@st.composite
def join_query(draw):
    join_kind = draw(st.sampled_from(["comma", "on", "left"]))
    if join_kind == "comma":
        sql = ("SELECT e.id, d.budget FROM emp e, dept d "
               "WHERE e.dept = d.name")
        if draw(st.booleans()):
            sql += " AND e.salary > 60"
    elif join_kind == "on":
        sql = ("SELECT e.id, d.budget FROM emp e JOIN dept d "
               "ON e.dept = d.name")
    else:
        sql = ("SELECT e.id, d.budget FROM emp e LEFT JOIN dept d "
               "ON e.dept = d.name")
    sql += " ORDER BY e.id, d.budget"
    return sql


def norm(rows):
    out = []
    for row in rows:
        out.append(tuple(round(v, 9) if isinstance(v, float) else v
                         for v in row))
    return out


def assert_all_paths_agree(sql):
    catalog = fresh_catalog()
    optimized = compile_select(sql, catalog, optimize=True)
    raw = compile_select(sql, catalog, optimize=False)
    a = PlanExecutor(ExecutionContext(catalog)).execute(raw).to_rows()
    b = PlanExecutor(
        ExecutionContext(catalog)).execute(optimized).to_rows()
    c = execute(compile_plan(optimized), MALContext(catalog)).to_rows()
    assert norm(a) == norm(b), (sql, a, b)
    assert norm(b) == norm(c), (sql, b, c)


class TestQueryFuzz:
    @settings(max_examples=60, deadline=None)
    @given(simple_query())
    def test_simple_queries(self, sql):
        assert_all_paths_agree(sql)

    @settings(max_examples=60, deadline=None)
    @given(aggregate_query())
    def test_aggregate_queries(self, sql):
        assert_all_paths_agree(sql)

    @settings(max_examples=20, deadline=None)
    @given(join_query())
    def test_join_queries(self, sql):
        assert_all_paths_agree(sql)

    @settings(max_examples=25, deadline=None)
    @given(simple_query(), simple_query())
    def test_union_of_random_queries(self, a, b):
        # strip ORDER BY/LIMIT (not allowed inside union branches)
        core_a = a.split(" ORDER BY")[0]
        core_b = b.split(" ORDER BY")[0]
        catalog = fresh_catalog()
        width_a = len(compile_select(core_a, catalog).schema)
        width_b = len(compile_select(core_b, catalog).schema)
        if width_a != width_b:
            return  # column counts must match
        assert_all_paths_agree(
            f"{core_a} UNION ALL {core_b} ORDER BY 1")

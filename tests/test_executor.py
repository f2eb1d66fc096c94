"""Integration tests: one-time SQL through the plan executor."""


import pytest

from repro.core.engine import DataCellEngine
from tests.conftest import run_mal, run_select


class TestProjection:
    def test_simple(self, emp_catalog):
        rows = run_select(emp_catalog, "SELECT id FROM emp")
        assert rows == [(1,), (2,), (3,), (4,), (5,)]

    def test_expression(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id * 10 + 1 FROM emp WHERE id <= 2")
        assert rows == [(11,), (21,)]

    def test_constant_select(self, emp_catalog):
        rows = run_select(emp_catalog, "SELECT 42 FROM emp LIMIT 2")
        assert rows == [(42,), (42,)]

    def test_null_propagation(self, emp_catalog):
        rows = run_select(emp_catalog, "SELECT salary + 1 FROM emp "
                                       "WHERE id = 4")
        assert rows == [(None,)]

    def test_string_concat(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept || '!' FROM emp WHERE id = 1")
        assert rows == [("a!",)]


class TestFilters:
    def test_range(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE salary "
                          "BETWEEN 100 AND 200")
        assert rows == [(1,), (2,), (5,)]

    def test_nulls_never_match(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE salary > 0 "
                          "OR salary <= 0")
        assert [r[0] for r in rows] == [1, 2, 3, 5]

    def test_not_with_null_stays_excluded(self, emp_catalog):
        # NOT (salary > 0) is UNKNOWN for the NULL row -> excluded
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE NOT (salary > 0)")
        assert rows == []

    def test_is_null(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept IS NULL")
        assert rows == [(4,)]

    def test_in_list(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept IN ('b')")
        assert rows == [(3,), (5,)]

    def test_not_in_with_null_item(self, emp_catalog):
        # x NOT IN (..., NULL) is never TRUE
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept NOT IN "
                          "('a', NULL)")
        assert rows == []

    def test_like(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept LIKE 'a%'")
        assert rows == [(1,), (2,)]

    def test_case_in_projection(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT CASE WHEN salary >= 150 THEN 'hi' "
                          "WHEN salary >= 100 THEN 'mid' ELSE 'lo' END "
                          "FROM emp WHERE salary IS NOT NULL")
        assert [r[0] for r in rows] == ["mid", "hi", "lo", "hi"]


class TestJoins:
    def test_equi_join(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT e.id, d.city FROM emp e, dept d "
                          "WHERE e.dept = d.name ORDER BY e.id")
        assert rows == [(1, "ams"), (2, "ams"), (3, "rot"), (5, "rot")]

    def test_join_on_syntax(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT e.id FROM emp e JOIN dept d "
                          "ON e.dept = d.name AND d.budget >= 1000 "
                          "ORDER BY e.id")
        assert rows == [(1,), (2,)]

    def test_cross_join(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT e.id FROM emp e CROSS JOIN dept d")
        assert len(rows) == 15

    def test_null_keys_drop_out(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT e.id FROM emp e, dept d "
                          "WHERE e.dept = d.name")
        assert (4,) not in rows

    def test_self_join(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT a.id, b.id FROM emp a, emp b "
                          "WHERE a.dept = b.dept AND a.id < b.id "
                          "ORDER BY a.id, b.id")
        assert rows == [(1, 2), (3, 5)]


class TestAggregation:
    def test_group_by(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept, count(*), sum(salary) FROM emp "
                          "GROUP BY dept ORDER BY dept")
        assert rows == [(None, 1, None), ("a", 2, 300.0),
                        ("b", 2, 200.0)]

    def test_scalar_aggregates(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT count(*), count(salary), min(salary), "
                          "max(salary), avg(salary) FROM emp")
        assert rows == [(5, 4, 50.0, 200.0, 125.0)]

    def test_scalar_aggregate_empty_input(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT count(*), sum(salary) FROM emp "
                          "WHERE id > 100")
        assert rows == [(0, None)]

    def test_group_by_empty_input(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept, count(*) FROM emp "
                          "WHERE id > 100 GROUP BY dept")
        assert rows == []

    def test_having(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept FROM emp GROUP BY dept "
                          "HAVING sum(salary) > 250")
        assert rows == [("a",)]

    def test_count_distinct(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT count(DISTINCT dept) FROM emp")
        assert rows == [(2,)]

    def test_group_expr(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id % 2, count(*) FROM emp "
                          "GROUP BY id % 2 ORDER BY 1")
        assert rows == [(0, 2), (1, 3)]

    def test_aggregate_arithmetic_in_select(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT max(salary) - min(salary) FROM emp")
        assert rows == [(150.0,)]


class TestOrderingLimiting:
    def test_order_desc_with_null_last(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp ORDER BY salary DESC")
        # nils sort first ascending, hence last when descending
        assert rows == [(2,), (5,), (1,), (3,), (4,)]

    def test_multi_key(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp ORDER BY dept, salary DESC")
        assert rows == [(4,), (2,), (1,), (5,), (3,)]

    def test_limit_offset(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp ORDER BY id "
                          "LIMIT 2 OFFSET 1")
        assert rows == [(2,), (3,)]

    def test_distinct(self, emp_catalog):
        rows = run_select(emp_catalog, "SELECT DISTINCT dept FROM emp")
        assert rows == [("a",), ("b",), (None,)]

    def test_distinct_multi_column(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT DISTINCT dept, salary > 100 FROM emp")
        assert len(rows) == 5


class TestIndexedFilterPath:
    """Index probes are MAL (``algebra.indexselect``): the rows match the
    reference executor's scan, and the index counts the probe."""

    def test_index_probe_used_and_correct(self, emp_catalog):
        sql = "SELECT id, dept FROM emp WHERE id >= 4"
        emp_catalog.table("emp").create_index("id", "sorted")
        index = emp_catalog.table("emp").index_on("id")
        rows = run_mal(emp_catalog, sql)
        assert rows == run_select(emp_catalog, sql) == [(4, None),
                                                         (5, "b")]
        assert index.probes == 1

    def test_hash_index_equality(self, emp_catalog):
        sql = "SELECT id FROM emp WHERE dept = 'b'"
        emp_catalog.table("emp").create_index("dept", "hash")
        index = emp_catalog.table("emp").index_on("dept")
        rows = run_mal(emp_catalog, sql)
        assert rows == run_select(emp_catalog, sql) == [(3,), (5,)]
        assert index.probes == 1

    def test_index_with_extra_conjunct(self, emp_catalog):
        sql = "SELECT id FROM emp WHERE dept = 'b' AND salary > 100"
        emp_catalog.table("emp").create_index("dept", "hash")
        assert run_mal(emp_catalog, sql) == [(5,)]
        assert emp_catalog.table("emp").index_on("dept").probes == 1


    @pytest.mark.parametrize("kind,where", [
        ("hash", "key = 1234"),
        ("sorted", "key = 1234"),
        ("sorted", "key >= 1990"),
        # probed after a scanned conjunct: the probe meets its candidates
        ("sorted", "label = 'label3' AND key >= 1990"),
    ])
    def test_one_time_query_probes(self, kind, where):
        """One-time SELECTs run as MAL on the engine: an index created
        on the table is probed, with the rows a scan returns."""
        engine = DataCellEngine()
        engine.execute("CREATE TABLE dim (key INT, label VARCHAR(16))")
        engine.catalog.table("dim").insert_rows(
            [(k, f"label{k % 7}") for k in range(2000)])
        sql = f"SELECT label FROM dim WHERE {where}"
        scanned = engine.query(sql).to_rows()
        engine.execute(f"CREATE INDEX ON dim (key) USING {kind}")
        assert engine.query(sql).to_rows() == scanned
        assert scanned
        assert engine.catalog.table("dim").index_on("key").probes == 1


class TestFunctionsInQueries:
    def test_round_and_abs(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT abs(-id), round(salary / 3, 1) "
                          "FROM emp WHERE id = 1")
        assert rows == [(1, 33.3)]

    def test_upper_lower(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT upper(dept), lower('ABC') FROM emp "
                          "WHERE id = 1")
        assert rows == [("A", "abc")]

    def test_coalesce(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT coalesce(dept, 'none') FROM emp "
                          "ORDER BY id")
        assert [r[0] for r in rows] == ["a", "a", "b", "none", "b"]

    def test_cast_in_query(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT CAST(salary AS INT) FROM emp "
                          "WHERE id = 1")
        assert rows == [(100,)]

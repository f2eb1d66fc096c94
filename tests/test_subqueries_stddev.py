"""Tests for IN/NOT IN subqueries (semi/anti joins) and the
stddev/variance aggregates."""

import statistics

import pytest

from repro.core.engine import DataCellEngine
from repro.errors import BindError
from repro.mal.compiler import compile_plan
from repro.mal.interpreter import MALContext, execute
from repro.sql import compile_select
from tests.tree_executor import ExecutionContext, PlanExecutor
from repro.sql.plan import JoinNode, walk_plan
from repro.streams.source import RateSource
from tests.conftest import run_select


class TestInSubquery:
    def test_semi_join(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept IN "
                          "(SELECT name FROM dept) ORDER BY id")
        assert rows == [(1,), (2,), (3,), (5,)]

    def test_anti_join(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept NOT IN "
                          "(SELECT name FROM dept WHERE budget < 600)")
        # NULL dept never qualifies; 'a' is in the subquery? budget
        # 1000 -> no; so 'a' rows qualify, 'b' rows (500) do not
        assert rows == [(1,), (2,)]

    def test_filtered_subquery(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept IN "
                          "(SELECT name FROM dept WHERE city = 'rot')")
        assert rows == [(3,), (5,)]

    def test_combines_with_other_conjuncts(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept IN "
                          "(SELECT name FROM dept) AND salary > 120")
        assert rows == [(2,), (5,)]

    def test_null_operand_never_qualifies(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept IN "
                          "(SELECT name FROM dept)")
        assert (4,) not in rows

    def test_not_in_with_null_in_subquery_is_empty(self, emp_catalog):
        emp_catalog.create_table(
            "vals", __import__("repro.storage", fromlist=["Schema"]
                               ).Schema.parse([("v", "STRING")]))
        emp_catalog.table("vals").insert_rows([("a",), (None,)])
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE dept NOT IN "
                          "(SELECT v FROM vals)")
        assert rows == []

    def test_plan_has_semi_join(self, emp_catalog):
        plan = compile_select("SELECT id FROM emp WHERE dept IN "
                              "(SELECT name FROM dept)", emp_catalog)
        joins = [n for n in walk_plan(plan) if isinstance(n, JoinNode)]
        assert joins[0].join_type == "semi"
        assert plan.schema.names == ["id"]

    def test_mal_path_agrees(self, emp_catalog):
        for q in ("SELECT id FROM emp WHERE dept IN "
                  "(SELECT name FROM dept) ORDER BY id",
                  "SELECT id FROM emp WHERE dept NOT IN "
                  "(SELECT name FROM dept) ORDER BY id"):
            plan = compile_select(q, emp_catalog)
            tree = PlanExecutor(
                ExecutionContext(emp_catalog)).execute(plan).to_rows()
            mal = execute(compile_plan(plan),
                          MALContext(emp_catalog)).to_rows()
            assert tree == mal

    def test_multi_column_subquery_rejected(self, emp_catalog):
        with pytest.raises(BindError, match="single-column"):
            compile_select("SELECT id FROM emp WHERE dept IN "
                           "(SELECT name, city FROM dept)", emp_catalog)

    def test_type_mismatch_rejected(self, emp_catalog):
        with pytest.raises(BindError):
            compile_select("SELECT id FROM emp WHERE id IN "
                           "(SELECT name FROM dept)", emp_catalog)

    def test_under_or_rejected(self, emp_catalog):
        with pytest.raises(BindError, match="top-level"):
            compile_select(
                "SELECT id FROM emp WHERE id = 1 OR dept IN "
                "(SELECT name FROM dept)", emp_catalog)

    def test_streaming_semi_join(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.execute("CREATE TABLE watchlist (sid INT)")
        engine.execute("INSERT INTO watchlist VALUES (1), (3)")
        q = engine.register_continuous(
            "SELECT sid, temp FROM s WHERE sid IN "
            "(SELECT sid FROM watchlist)", name="watched")
        engine.feed("s", [(1, 10.0), (2, 20.0), (3, 30.0)])
        engine.step()
        assert engine.results("watched").rows() == [(1, 10.0),
                                                    (3, 30.0)]

    def test_incremental_semi_join_modes_agree(self):
        def run(mode):
            engine = DataCellEngine()
            engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
            engine.execute("CREATE TABLE watchlist (sid INT)")
            engine.execute("INSERT INTO watchlist VALUES (0), (2)")
            q = engine.register_continuous(
                "SELECT sid, count(*) c FROM s [RANGE 8 SLIDE 4] "
                "WHERE sid IN (SELECT sid FROM watchlist) "
                "GROUP BY sid ORDER BY sid", mode=mode)
            assert q.mode == mode
            rows = [(i % 4, float(i)) for i in range(32)]
            engine.attach_source("s", RateSource(rows, rate=100000))
            engine.run_until_drained()
            assert not engine.scheduler.failed
            return [r.to_rows() for _t, r in
                    engine.results(q.name).batches]

        assert run("reeval") == run("incremental")


class TestStddevVariance:
    def test_grouped_matches_statistics_module(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept, stddev(salary), "
                          "variance(salary) FROM emp "
                          "WHERE dept IS NOT NULL "
                          "GROUP BY dept ORDER BY dept")
        a_sd = statistics.stdev([100.0, 200.0])
        b_var = statistics.variance([50.0, 150.0])
        assert rows[0][1] == pytest.approx(a_sd)
        assert rows[1][2] == pytest.approx(b_var)

    def test_scalar(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT stddev(salary) FROM emp")
        expected = statistics.stdev([100.0, 200.0, 50.0, 150.0])
        assert rows[0][0] == pytest.approx(expected)

    def test_single_value_is_null(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT stddev(salary) FROM emp WHERE id = 1")
        assert rows == [(None,)]

    def test_non_numeric_rejected(self, emp_catalog):
        with pytest.raises(BindError):
            compile_select("SELECT stddev(dept) FROM emp", emp_catalog)

    def test_mal_agrees(self, emp_catalog):
        plan = compile_select(
            "SELECT dept, stddev(salary) FROM emp GROUP BY dept "
            "ORDER BY dept", emp_catalog)
        tree = PlanExecutor(
            ExecutionContext(emp_catalog)).execute(plan).to_rows()
        mal = execute(compile_plan(plan),
                      MALContext(emp_catalog)).to_rows()
        assert tree == mal

    def test_incremental_modes_agree(self):
        def run(mode):
            engine = DataCellEngine()
            engine.execute("CREATE STREAM s (g INT, v FLOAT)")
            q = engine.register_continuous(
                "SELECT g, stddev(v), variance(v) FROM s "
                "[RANGE 20 SLIDE 5] GROUP BY g ORDER BY g", mode=mode)
            rows = [(i % 3, float((i * 13) % 17)) for i in range(80)]
            engine.attach_source("s", RateSource(rows, rate=100000))
            engine.run_until_drained()
            assert not engine.scheduler.failed
            out = []
            for _t, rel in engine.results(q.name).batches:
                out.append([tuple(round(v, 9) if isinstance(v, float)
                                  else v for v in row)
                            for row in rel.to_rows()])
            return out

        assert run("reeval") == run("incremental")

    def test_all_null_group(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT variance(salary) FROM emp "
                          "WHERE dept IS NULL")
        assert rows == [(None,)]

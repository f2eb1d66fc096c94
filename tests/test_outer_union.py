"""Tests for LEFT OUTER JOIN and UNION [ALL] across the whole stack."""

import pytest

from repro.errors import BindError
from repro.mal.compiler import compile_plan
from repro.mal.interpreter import MALContext, execute
from repro.sql import ast, compile_select
from tests.tree_executor import ExecutionContext, PlanExecutor
from repro.sql.parser import parse
from repro.sql.plan import FilterNode, JoinNode, UnionNode, walk_plan
from tests.conftest import run_select


class TestParser:
    def test_left_join(self):
        stmt = parse("SELECT a FROM t LEFT JOIN u ON t.a = u.a")
        assert stmt.from_items[1].join_type == "left"

    def test_left_outer_join(self):
        stmt = parse("SELECT a FROM t LEFT OUTER JOIN u ON t.a = u.a")
        assert stmt.from_items[1].join_type == "left"

    def test_union_all(self):
        stmt = parse("SELECT a FROM t UNION ALL SELECT b FROM u")
        assert isinstance(stmt, ast.UnionStmt)
        assert not stmt.distinct
        assert len(stmt.selects) == 2

    def test_union_distinct(self):
        stmt = parse("SELECT a FROM t UNION SELECT b FROM u")
        assert stmt.distinct

    def test_union_order_limit_bind_to_compound(self):
        stmt = parse("SELECT a FROM t UNION ALL SELECT b FROM u "
                     "ORDER BY 1 LIMIT 3")
        assert stmt.limit == 3
        assert len(stmt.order_by) == 1
        assert all(not s.order_by for s in stmt.selects)

    def test_three_way_union(self):
        stmt = parse("SELECT a FROM t UNION ALL SELECT a FROM t "
                     "UNION ALL SELECT a FROM t")
        assert len(stmt.selects) == 3


class TestLeftJoinSemantics:
    def test_unmatched_rows_nil_padded(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT e.id, d.city FROM emp e "
                          "LEFT JOIN dept d ON e.dept = d.name "
                          "ORDER BY e.id")
        assert rows == [(1, "ams"), (2, "ams"), (3, "rot"),
                        (4, None), (5, "rot")]

    def test_anti_join_pattern(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT e.id FROM emp e LEFT JOIN dept d "
                          "ON e.dept = d.name WHERE d.name IS NULL")
        assert rows == [(4,)]

    def test_duplicate_matches_still_multiply(self, emp_catalog):
        emp_catalog.table("dept").insert_rows([("a", "ext", 7)])
        rows = run_select(emp_catalog,
                          "SELECT e.id FROM emp e LEFT JOIN dept d "
                          "ON e.dept = d.name WHERE e.id = 1")
        assert rows == [(1,), (1,)]

    def test_right_side_filter_stays_above(self, emp_catalog):
        plan = compile_select(
            "SELECT e.id FROM emp e LEFT JOIN dept d "
            "ON e.dept = d.name WHERE d.budget > 600", emp_catalog)
        join = [n for n in walk_plan(plan) if isinstance(n, JoinNode)][0]
        # the budget filter must NOT be below the preserved join's right
        right_filters = [n for n in walk_plan(join.right)
                         if isinstance(n, FilterNode)]
        assert not right_filters
        rows = PlanExecutor(
            ExecutionContext(emp_catalog)).execute(plan).to_rows()
        assert rows == [(1,), (2,)]

    def test_left_side_filter_still_pushes(self, emp_catalog):
        plan = compile_select(
            "SELECT e.id FROM emp e LEFT JOIN dept d "
            "ON e.dept = d.name WHERE e.salary > 120", emp_catalog)
        join = [n for n in walk_plan(plan) if isinstance(n, JoinNode)][0]
        left_filters = [n for n in walk_plan(join.left)
                        if isinstance(n, FilterNode)]
        assert left_filters

    def test_requires_equality_on(self, emp_catalog):
        with pytest.raises(BindError):
            compile_select("SELECT e.id FROM emp e LEFT JOIN dept d "
                           "ON e.salary > d.budget", emp_catalog)

    def test_extra_on_conditions_rejected(self, emp_catalog):
        with pytest.raises(BindError, match="WHERE"):
            compile_select(
                "SELECT e.id FROM emp e LEFT JOIN dept d "
                "ON e.dept = d.name AND d.budget > 0", emp_catalog)

    def test_mal_path_agrees(self, emp_catalog):
        plan = compile_select(
            "SELECT e.id, d.city, d.budget FROM emp e LEFT JOIN dept d "
            "ON e.dept = d.name ORDER BY e.id", emp_catalog)
        tree = PlanExecutor(
            ExecutionContext(emp_catalog)).execute(plan).to_rows()
        mal = execute(compile_plan(plan),
                      MALContext(emp_catalog)).to_rows()
        assert tree == mal
        assert (4, None, None) in tree


class TestUnionSemantics:
    def test_union_all_keeps_duplicates(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept FROM emp WHERE id = 1 "
                          "UNION ALL SELECT dept FROM emp WHERE id = 2")
        assert rows == [("a",), ("a",)]

    def test_union_dedups(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT dept FROM emp WHERE id = 1 "
                          "UNION SELECT dept FROM emp WHERE id = 2")
        assert rows == [("a",)]

    def test_type_coercion_across_branches(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp WHERE id = 1 "
                          "UNION ALL SELECT salary FROM emp "
                          "WHERE id = 3")
        assert rows == [(1.0,), (50.0,)]

    def test_incompatible_types_rejected(self, emp_catalog):
        with pytest.raises(Exception):
            compile_select("SELECT id FROM emp UNION ALL "
                           "SELECT dept FROM emp", emp_catalog)

    def test_column_count_mismatch(self, emp_catalog):
        with pytest.raises(BindError, match="columns"):
            compile_select("SELECT id FROM emp UNION ALL "
                           "SELECT id, dept FROM emp", emp_catalog)

    def test_names_from_first_branch(self, emp_catalog):
        plan = compile_select("SELECT id AS x FROM emp UNION ALL "
                              "SELECT budget FROM dept", emp_catalog)
        assert plan.schema.names == ["x"]

    def test_order_by_position_and_limit(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT id FROM emp UNION ALL "
                          "SELECT budget FROM dept "
                          "ORDER BY 1 DESC LIMIT 3")
        assert rows == [(1000,), (500,), (250,)]

    def test_union_node_in_plan(self, emp_catalog):
        plan = compile_select("SELECT id FROM emp UNION ALL "
                              "SELECT budget FROM dept", emp_catalog)
        assert any(isinstance(n, UnionNode) for n in walk_plan(plan))

    def test_aggregates_inside_branches(self, emp_catalog):
        rows = run_select(emp_catalog,
                          "SELECT count(*) FROM emp "
                          "UNION ALL SELECT count(*) FROM dept")
        assert rows == [(5,), (3,)]

    def test_mal_path_agrees(self, emp_catalog):
        plan = compile_select(
            "SELECT dept FROM emp UNION SELECT name FROM dept "
            "ORDER BY 1", emp_catalog)
        tree = PlanExecutor(
            ExecutionContext(emp_catalog)).execute(plan).to_rows()
        mal = execute(compile_plan(plan),
                      MALContext(emp_catalog)).to_rows()
        assert tree == mal


class TestStreamingWithNewOperators:
    def test_left_join_continuous_both_modes(self, engine):
        from repro.streams.source import RateSource

        results = {}
        for mode in ("reeval", "incremental"):
            from repro.core.engine import DataCellEngine

            eng = DataCellEngine()
            eng.execute("CREATE STREAM s (sid INT, temp FLOAT)")
            eng.execute("CREATE TABLE rooms (sid INT, room VARCHAR(8))")
            eng.execute("INSERT INTO rooms VALUES (0,'a'), (1,'b')")
            q = eng.register_continuous(
                "SELECT r.room, count(*) c FROM s [RANGE 8 SLIDE 4] t "
                "LEFT JOIN rooms r ON t.sid = r.sid "
                "GROUP BY r.room ORDER BY r.room", mode=mode)
            assert q.mode == mode
            rows = [(i % 4, float(i)) for i in range(32)]
            eng.attach_source("s", RateSource(rows, rate=100000))
            eng.run_until_drained()
            assert not eng.scheduler.failed
            results[mode] = [r.to_rows() for _t, r in
                             eng.results(q.name).batches]
        assert results["reeval"] == results["incremental"]
        # unmatched sensors (sid 2, 3) appear under the NULL room
        assert any(row[0] is None for batch in results["reeval"]
                   for row in batch)

    def test_union_of_two_streams_continuous(self, engine):
        engine.execute("CREATE STREAM sensors2 (sid INT, temp FLOAT)")
        q = engine.register_continuous(
            "SELECT sid, temp FROM sensors WHERE temp > 5 "
            "UNION ALL SELECT sid, temp FROM sensors2 WHERE temp > 5",
            name="merged")
        assert q.mode == "reeval"
        engine.feed("sensors", [(1, 10.0), (2, 1.0)])
        engine.feed("sensors2", [(3, 20.0)])
        engine.step()
        assert sorted(engine.results("merged").rows()) == \
            [(1, 10.0), (3, 20.0)]


class TestChainedQueryNetworks:
    def test_two_stage_network(self, engine):
        from repro.streams.source import RateSource

        engine.register_continuous(
            "SELECT sid, avg(temp) AS avg_temp FROM sensors "
            "[RANGE 10 SLIDE 5] GROUP BY sid",
            name="stage1", output_stream="averages")
        engine.register_continuous(
            "SELECT sid, avg_temp FROM averages WHERE avg_temp > 20",
            name="stage2")
        rows = [(i % 2, 10.0 + (i % 2) * 20) for i in range(40)]
        engine.attach_source("sensors", RateSource(rows, rate=100000))
        engine.run_until_drained()
        assert not engine.scheduler.failed
        alerts = engine.results("stage2").rows()
        assert alerts and all(sid == 1 for sid, _a in alerts)

    def test_output_stream_schema_matches_query(self, engine):
        engine.register_continuous(
            "SELECT sid, count(*) AS n FROM sensors [RANGE 4] "
            "GROUP BY sid", name="q", output_stream="counts")
        schema = engine.catalog.stream("counts").schema
        assert schema.names == ["sid", "n"]

    def test_output_stream_queryable_one_time(self, engine):
        engine.register_continuous(
            "SELECT sid FROM sensors", name="q",
            output_stream="derived")
        engine.feed("sensors", [(7, 1.0)])
        engine.step()
        assert engine.query("SELECT * FROM derived").to_rows() == [(7,)]

    def test_output_stream_schema_collision(self, engine):
        from repro.errors import StreamError

        # an existing stream with a different schema cannot be reused
        with pytest.raises(StreamError):
            engine.register_continuous(
                "SELECT sid FROM sensors", name="q",
                output_stream="sensors")

    def test_output_stream_reuse_with_matching_schema(self, engine):
        # a pre-existing, schema-compatible stream is reused (this is
        # what snapshot restore relies on)
        engine.execute("CREATE STREAM sink (sid INT)")
        engine.register_continuous("SELECT sid FROM sensors",
                                   name="q", output_stream="sink")
        engine.feed("sensors", [(3, 1.0)])
        engine.step()
        assert engine.query("SELECT * FROM sink").to_rows() == [(3,)]

    def test_three_stage_cascade_single_step(self, engine):
        engine.register_continuous("SELECT sid FROM sensors",
                                   name="a", output_stream="s1")
        engine.register_continuous("SELECT sid FROM s1",
                                   name="b", output_stream="s2")
        engine.register_continuous("SELECT sid FROM s2", name="c")
        engine.feed("sensors", [(5, 1.0)])
        engine.step()  # one step: the cascade must reach stage 3
        assert engine.results("c").rows() == [(5,)]

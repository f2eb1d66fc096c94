"""Unit tests for incremental plan analysis, partial aggregation and
the cache-and-merge executor."""

import pytest

from repro.core.incremental import (IncrementalExecutor, PartialAggregator,
                                    UnsupportedIncremental,
                                    analyze_incremental)
from repro.mal.relation import Relation
from repro.sql import compile_select
from repro.sql.plan import AggregateNode, JoinNode, StreamScanNode
from repro.storage import Schema


@pytest.fixture
def catalog(emp_catalog):
    emp_catalog.create_stream("s", Schema.parse(
        [("k", "INT"), ("v", "FLOAT")]))
    emp_catalog.create_stream("s2", Schema.parse(
        [("k", "INT"), ("w", "INT")]))
    return emp_catalog


def analyze(catalog, sql):
    return analyze_incremental(compile_select(sql, catalog))


class TestAnalysis:
    def test_spa_query_splits_at_aggregate(self, catalog):
        a = analyze(catalog,
                    "SELECT k, sum(v) FROM s [RANGE 4 SLIDE 2] "
                    "WHERE v > 0 GROUP BY k")
        assert a.kind == "single"
        assert isinstance(a.agg, AggregateNode)
        assert any(isinstance(n, StreamScanNode)
                   for n in [a.pipeline] + a.pipeline.children)

    def test_post_merge_tail_collected(self, catalog):
        a = analyze(catalog,
                    "SELECT k, sum(v) t FROM s [RANGE 4 SLIDE 2] "
                    "GROUP BY k HAVING sum(v) > 1 ORDER BY t LIMIT 3")
        labels = [n.label() for n in a.upper]
        assert any(l.startswith("Limit") for l in labels)
        assert any(l.startswith("Sort") for l in labels)
        assert any(l.startswith("Filter") for l in labels)

    def test_no_aggregate_filters_run_per_slice(self, catalog):
        a = analyze(catalog,
                    "SELECT k, v FROM s [RANGE 4 SLIDE 2] WHERE v > 1")
        assert a.agg is None
        # the filter must have moved into the per-slice pipeline
        assert "Filter" in a.pipeline.pretty()

    def test_stream_table_join_in_pipeline(self, catalog):
        a = analyze(catalog,
                    "SELECT d.city, count(*) FROM s [RANGE 4 SLIDE 2], "
                    "dept d WHERE s.k = d.budget GROUP BY d.city")
        assert a.kind == "single"
        assert isinstance(a.pipeline, JoinNode)

    def test_two_streams_join2(self, catalog):
        a = analyze(catalog,
                    "SELECT a.k FROM s [RANGE 4 SLIDE 2] a, "
                    "s2 [RANGE 4 SLIDE 2] b WHERE a.k = b.k")
        assert a.kind == "join2"
        assert a.left_stream == "s" and a.right_stream == "s2"
        assert list(a.programs) == ["left", "right", "pair", "tail"]

    def test_describe_mentions_split(self, catalog):
        a = analyze(catalog,
                    "SELECT k, sum(v) FROM s [RANGE 4 SLIDE 2] GROUP BY k")
        text = a.describe()
        assert "per-slice pipeline" in text
        assert "blocking merge" in text
        assert "function incr.slice()" in text
        assert "function incr.tail()" in text


class TestAnalysisRejections:
    def test_no_stream(self, catalog):
        with pytest.raises(UnsupportedIncremental):
            analyze(catalog, "SELECT id FROM emp")

    def test_missing_window(self, catalog):
        with pytest.raises(UnsupportedIncremental):
            analyze(catalog, "SELECT k FROM s")

    def test_distinct_aggregate(self, catalog):
        with pytest.raises(UnsupportedIncremental):
            analyze(catalog, "SELECT count(DISTINCT k) FROM s [RANGE 4]")

    def test_distinct_without_aggregate_ok(self, catalog):
        a = analyze(catalog, "SELECT DISTINCT k FROM s [RANGE 4 SLIDE 2]")
        assert a.agg is None  # DISTINCT handled post-merge


def rel(rows):
    """Pipeline-output relation (qualified names, as the aggregator
    sees it)."""
    return Relation.from_rows(
        Schema.parse([("s.k", "INT"), ("s.v", "FLOAT")]), rows)


def slice_rel(rows):
    """Raw basket slice (bare column names, as baskets produce)."""
    return Relation.from_rows(
        Schema.parse([("k", "INT"), ("v", "FLOAT")]), rows)


@pytest.fixture
def aggregator(catalog):
    a = analyze(catalog,
                "SELECT k, count(*) c, sum(v) t, avg(v) a, min(v) mn, "
                "max(v) mx FROM s [RANGE 4 SLIDE 2] GROUP BY k")
    return PartialAggregator(a.agg)


class TestPartialAggregator:
    def test_partial_states(self, aggregator):
        partial = aggregator.partial(rel([(1, 2.0), (1, 4.0), (2, None)]))
        assert partial[(1,)] == [2, (6.0, 2), (6.0, 2), 2.0, 4.0]
        assert partial[(2,)] == [1, (0, 0), (0, 0), None, None]

    def test_merge(self, aggregator):
        p1 = aggregator.partial(rel([(1, 2.0)]))
        p2 = aggregator.partial(rel([(1, 10.0), (3, 1.0)]))
        merged = aggregator.merge([p1, p2])
        assert merged[(1,)] == [2, (12.0, 2), (12.0, 2), 2.0, 10.0]
        assert merged[(3,)][0] == 1

    def test_finalize(self, aggregator):
        p = aggregator.partial(rel([(1, 2.0), (1, 4.0)]))
        out = aggregator.finalize(aggregator.merge([p]))
        assert out.to_rows() == [(1, 2, 6.0, 3.0, 2.0, 4.0)]

    def test_finalize_all_nil_group(self, aggregator):
        p = aggregator.partial(rel([(1, None)]))
        out = aggregator.finalize(p)
        assert out.to_rows() == [(1, 1, None, None, None, None)]

    def test_finalize_empty_with_groups_is_empty(self, aggregator):
        out = aggregator.finalize({})
        assert out.row_count == 0
        assert out.names == aggregator.node.schema.names

    def test_scalar_aggregate_empty_window_one_row(self, catalog):
        a = analyze(catalog,
                    "SELECT count(*), sum(v) FROM s [RANGE 4 SLIDE 2]")
        agg = PartialAggregator(a.agg)
        out = agg.finalize(agg.merge([agg.partial(rel([]))]))
        assert out.to_rows() == [(0, None)]

    def test_merge_order_insensitive_totals(self, aggregator):
        p1 = aggregator.partial(rel([(1, 1.0), (2, 2.0)]))
        p2 = aggregator.partial(rel([(2, 5.0)]))
        a = aggregator.finalize(aggregator.merge([p1, p2]))
        b = aggregator.finalize(aggregator.merge([p2, p1]))
        assert sorted(a.to_rows()) == sorted(b.to_rows())


class TestExecutorCaches:
    def make_executor(self, catalog, sql, cache=True):
        analysis = analyze(catalog, sql)
        return IncrementalExecutor(analysis, catalog, cache)

    def test_single_stream_cache_and_fire(self, catalog):
        ex = self.make_executor(
            catalog, "SELECT k, sum(v) FROM s [RANGE 4 SLIDE 2] GROUP BY k")
        ex.process_basic_window("s", 0, slice_rel([(1, 1.0), (1, 2.0)]))
        ex.process_basic_window("s", 1, slice_rel([(1, 4.0)]))
        out = ex.fire({"s": [0, 1]})
        assert out.to_rows() == [(1, 7.0)]
        assert ex.slices_computed == 2

    def test_eviction(self, catalog):
        ex = self.make_executor(
            catalog, "SELECT k, sum(v) FROM s [RANGE 4 SLIDE 2] GROUP BY k")
        ex.process_basic_window("s", 0, slice_rel([(1, 1.0)]))
        ex.process_basic_window("s", 1, slice_rel([(1, 2.0)]))
        assert ex.evict({"s": 1}) == 1
        assert ex.cache_stats()["partials_cached"] == 1

    def test_concat_mode_without_aggregate(self, catalog):
        ex = self.make_executor(
            catalog, "SELECT k, v FROM s [RANGE 4 SLIDE 2] WHERE v > 1")
        ex.process_basic_window("s", 0, slice_rel([(1, 0.5), (2, 3.0)]))
        ex.process_basic_window("s", 1, slice_rel([(3, 9.0)]))
        out = ex.fire({"s": [0, 1]})
        assert out.to_rows() == [(2, 3.0), (3, 9.0)]

    def test_cached_rows_metric(self, catalog):
        ex = self.make_executor(
            catalog, "SELECT k, v FROM s [RANGE 4 SLIDE 2] WHERE v > 1")
        ex.process_basic_window("s", 0, slice_rel([(2, 3.0)]))
        assert ex.cached_intermediate_rows() == 1

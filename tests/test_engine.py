"""Integration tests for the DataCellEngine facade."""

import pytest

from repro.core.incremental import UnsupportedIncremental
from repro.errors import BindError, CatalogError, StreamError
from repro.streams.source import ListSource, RateSource


class TestDDL:
    def test_create_table_and_insert(self, engine):
        engine.execute("CREATE TABLE t (a INT, s VARCHAR(8))")
        assert engine.execute(
            "INSERT INTO t VALUES (1, 'x'), (2, NULL)") == 2
        assert engine.query("SELECT * FROM t").to_rows() == \
            [(1, "x"), (2, None)]

    def test_create_index_via_sql(self, engine):
        engine.execute("CREATE INDEX ON rooms (sid)")
        assert engine.catalog.table("rooms").index_on("sid") is not None

    def test_drop_table(self, engine):
        engine.execute("CREATE TABLE t (a INT)")
        engine.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            engine.catalog.table("t")

    def test_create_stream_makes_basket(self, engine):
        engine.execute("CREATE STREAM s2 (x INT)")
        assert engine.basket("s2").schema.names == ["x"]

    def test_drop_stream(self, engine):
        engine.execute("CREATE STREAM s2 (x INT)")
        engine.execute("DROP STREAM s2")
        with pytest.raises(CatalogError):
            engine.basket("s2")

    def test_drop_stream_with_bound_query_rejected(self, engine):
        engine.register_continuous("SELECT sid FROM sensors", name="q")
        with pytest.raises(StreamError):
            engine.execute("DROP STREAM sensors")

    def test_insert_column_subset(self, engine):
        engine.execute("CREATE TABLE t (a INT, b INT, c INT)")
        engine.execute("INSERT INTO t (c, a) VALUES (3, 1)")
        assert engine.query("SELECT * FROM t").to_rows() == [(1, None, 3)]

    def test_insert_expression_values(self, engine):
        engine.execute("CREATE TABLE t (a INT)")
        engine.execute("INSERT INTO t VALUES (2 + 3 * 4)")
        assert engine.query("SELECT a FROM t").to_rows() == [(14,)]

    def test_insert_select(self, engine):
        engine.execute("CREATE TABLE t (sid INT)")
        engine.execute("INSERT INTO t SELECT sid FROM rooms "
                       "WHERE sid > 0")
        assert engine.query("SELECT * FROM t ORDER BY sid").to_rows() == \
            [(1,), (2,)]

    def test_execute_script(self, engine):
        results = engine.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT a FROM t")
        assert results[1] == 1
        assert results[2].to_rows() == [(1,)]


class TestStreamsAndOneTimeQueries:
    def test_insert_into_stream_via_sql(self, engine):
        engine.execute("INSERT INTO sensors VALUES (1, 20.5)")
        assert engine.query("SELECT * FROM sensors").to_rows() == \
            [(1, 20.5)]

    def test_feed(self, engine):
        engine.feed("sensors", [(1, 20.0), (2, 21.0)])
        assert engine.query(
            "SELECT count(*) FROM sensors").to_rows() == [(2,)]

    def test_one_time_join_stream_table(self, engine):
        engine.feed("sensors", [(1, 20.0)])
        rows = engine.query(
            "SELECT r.room, s.temp FROM sensors s, rooms r "
            "WHERE s.sid = r.sid").to_rows()
        assert rows == [("office", 20.0)]

    def test_query_rejects_non_select(self, engine):
        with pytest.raises(BindError):
            engine.query("CREATE TABLE t (a INT)")

    def test_pause_resume_stream(self, engine):
        receptor = engine.attach_source(
            "sensors", ListSource([(0, (1, 1.0)), (5, (2, 2.0))]))
        engine.pause_stream("sensors")
        engine.step(advance_ms=10)
        assert len(engine.basket("sensors")) == 0
        engine.resume_stream("sensors")
        engine.step()
        assert len(engine.basket("sensors")) == 2


class TestContinuousQueries:
    def test_register_and_results(self, engine):
        q = engine.register_continuous(
            "SELECT sid, temp FROM sensors WHERE temp > 25")
        engine.feed("sensors", [(1, 20.0), (2, 30.0)])
        engine.step()
        assert engine.results(q.name).rows() == [(2, 30.0)]

    def test_auto_names_unique(self, engine):
        a = engine.register_continuous("SELECT sid FROM sensors")
        b = engine.register_continuous("SELECT temp FROM sensors")
        assert a.name != b.name

    def test_duplicate_name_rejected(self, engine):
        engine.register_continuous("SELECT sid FROM sensors", name="q")
        with pytest.raises(StreamError):
            engine.register_continuous("SELECT sid FROM sensors",
                                       name="q")

    def test_requires_stream(self, engine):
        with pytest.raises(BindError):
            engine.register_continuous("SELECT sid FROM rooms")

    def test_requires_select(self, engine):
        with pytest.raises(BindError):
            engine.register_continuous("CREATE TABLE t (a INT)")

    def test_same_stream_twice_rejected(self, engine):
        with pytest.raises(StreamError):
            engine.register_continuous(
                "SELECT a.sid FROM sensors a, sensors b "
                "WHERE a.sid = b.sid")

    def test_mode_auto_plain_is_reeval(self, engine):
        q = engine.register_continuous("SELECT sid FROM sensors")
        assert q.mode == "reeval"

    def test_mode_auto_sliding_is_incremental(self, engine):
        q = engine.register_continuous(
            "SELECT avg(temp) FROM sensors [RANGE 4 SLIDE 2]")
        assert q.mode == "incremental"

    def test_mode_incremental_unsupported_raises(self, engine):
        with pytest.raises(UnsupportedIncremental):
            engine.register_continuous(
                "SELECT count(DISTINCT sid) FROM sensors [RANGE 4]",
                mode="incremental")

    def test_mode_auto_falls_back(self, engine):
        q = engine.register_continuous(
            "SELECT count(DISTINCT sid) FROM sensors [RANGE 4]",
            mode="auto")
        assert q.mode == "reeval"

    def test_mode_auto_keeps_fallback_reason(self, engine):
        cases = [
            ("SELECT count(DISTINCT sid) FROM sensors [RANGE 4]",
             "DISTINCT"),
            ("SELECT count(*) FROM sensors [RANGE 10 SLIDE 3]",
             "not a multiple of slide 3"),
            ("SELECT sid FROM sensors", "no window clause")]
        for sql, reason in cases:
            q = engine.register_continuous(sql, mode="auto")
            assert q.mode == "reeval"
            assert reason in q.mode_reason
        q = engine.register_continuous(
            "SELECT avg(temp) FROM sensors [RANGE 4 SLIDE 2]")
        assert q.mode == "incremental" and q.mode_reason is None

    def test_unknown_mode(self, engine):
        with pytest.raises(StreamError):
            engine.register_continuous("SELECT sid FROM sensors",
                                       mode="warp")

    def test_non_divisible_window_falls_back(self, engine):
        q = engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 10 SLIDE 3]")
        assert q.mode == "reeval"

    def test_remove_query(self, engine):
        q = engine.register_continuous("SELECT sid FROM sensors",
                                       name="q")
        engine.remove_query("q")
        assert engine.queries() == []
        assert engine.basket("sensors").subscriptions() == []
        with pytest.raises(StreamError):
            engine.remove_query("q")

    def test_removed_query_stops_blocking_drain(self, engine):
        slow = engine.register_continuous(
            "SELECT sid FROM sensors [RANGE 100]", name="slow")
        fast = engine.register_continuous(
            "SELECT sid FROM sensors", name="fast")
        engine.feed("sensors", [(1, 1.0)])
        engine.step()
        # the windowed query retains the tuple until its window passes
        assert len(engine.basket("sensors")) == 1
        engine.remove_query("slow")
        # with only the fast consumer left the prefix drains
        assert len(engine.basket("sensors")) == 0

    def test_pause_resume_query(self, engine):
        q = engine.register_continuous(
            "SELECT sid FROM sensors", name="q")
        engine.pause_query("q")
        engine.feed("sensors", [(1, 1.0)])
        engine.step()
        assert len(engine.results("q").rows()) == 0
        engine.resume_query("q")
        engine.step()
        assert engine.results("q").rows() == [(1,)]

    def test_subscribe_callback(self, engine):
        seen = []
        engine.register_continuous("SELECT sid FROM sensors", name="q")
        engine.subscribe("q", lambda rel, now: seen.extend(rel.to_rows()))
        engine.feed("sensors", [(7, 1.0)])
        engine.step()
        assert seen == [(7,)]

    def test_hybrid_query_sees_table_updates(self, engine):
        q = engine.register_continuous(
            "SELECT r.room FROM sensors s, rooms r WHERE s.sid = r.sid",
            mode="reeval", name="q")
        engine.feed("sensors", [(0, 1.0)])
        engine.step()
        engine.execute("INSERT INTO rooms VALUES (9, 'attic')")
        engine.feed("sensors", [(9, 2.0)])
        engine.step()
        assert engine.results("q").rows() == [("lab",), ("attic",)]


class TestWindowedEndToEnd:
    def test_tumbling_counts(self, engine):
        q = engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 3]", name="q")
        engine.attach_source("sensors", RateSource(
            [(i, float(i)) for i in range(7)], rate=1000))
        engine.run_until_drained()
        assert engine.results("q").rows() == [(3,), (3,)]

    def test_sliding_window_series(self, engine):
        q = engine.register_continuous(
            "SELECT sum(temp) FROM sensors [RANGE 4 SLIDE 2]", name="q")
        engine.attach_source("sensors", RateSource(
            [(i, 1.0) for i in range(8)], rate=1000))
        engine.run_until_drained()
        assert engine.results("q").rows() == [(4.0,), (4.0,), (4.0,)]

    def test_batching_knobs_delay_firing(self, engine):
        q = engine.register_continuous(
            "SELECT sid FROM sensors", name="q", mode="reeval",
            min_batch=5, max_delay_ms=100)
        engine.feed("sensors", [(1, 1.0)])
        engine.step()
        assert len(engine.results("q")) == 0  # below batch, young
        engine.step(advance_ms=150)
        assert len(engine.results("q")) == 1  # delay constraint kicked in

    def test_min_batch_trigger(self, engine):
        q = engine.register_continuous(
            "SELECT sid FROM sensors", name="q", mode="reeval",
            min_batch=3)
        engine.feed("sensors", [(1, 1.0), (2, 1.0)])
        engine.step()
        assert len(engine.results("q")) == 0
        engine.feed("sensors", [(3, 1.0)])
        engine.step()
        assert engine.results("q").rows() == [(1,), (2,), (3,)]


class TestExplain:
    def test_explain_sql_text(self, engine):
        text = engine.explain("SELECT sid FROM sensors [RANGE 4]")
        assert "StreamScan" in text and "function user.explain" in text

    def test_explain_registered_query(self, engine):
        engine.register_continuous(
            "SELECT avg(temp) FROM sensors [RANGE 4 SLIDE 2]", name="q")
        text = engine.explain("q")
        assert "continuous plan" in text
        assert "incremental split" in text

    def test_explain_rejects_ddl(self, engine):
        with pytest.raises(BindError):
            engine.explain("CREATE TABLE t (a INT)")


class TestConstructorSurface:
    def test_engine_knobs_are_exactly_these(self):
        """The guard against knob creep: a new engine option must
        replace one, or argue its way into this list."""
        import inspect

        from repro.core.engine import DataCellEngine

        params = list(inspect.signature(
            DataCellEngine.__init__).parameters)[1:]
        assert params == [
            "clock", "recycler_enabled",
            "compile_plans", "interp_profile",
            "data_dir", "durability", "segment_rows",
            "checkpoint_interval_s", "retain_ms", "retain_bytes"]
        assert len(params) == 10
        assert not hasattr(DataCellEngine, "save")
        assert not hasattr(DataCellEngine, "restore")

    def test_execution_modes_are_exactly_these(self):
        from repro.core.engine import DataCellEngine
        from repro.core.factory import EXECUTION_MODES

        assert EXECUTION_MODES == ("auto", "reeval", "incremental")
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT)")
        for word in ("delta", "bogus"):
            with pytest.raises(StreamError) as err:
                engine.register_continuous(
                    "SELECT k FROM s [RANGE 4 SLIDE 2]", mode=word)
            assert f"unknown execution mode {word!r}" in str(err.value)
            assert str(EXECUTION_MODES) in str(err.value)
        assert engine.queries() == []

    def test_durability_modes_are_exactly_these(self, tmp_path):
        from repro.core.engine import DataCellEngine
        from repro.store import DURABILITY_MODES

        assert DURABILITY_MODES == ("async", "fsync")
        for word in ("off", "bogus"):
            for data_dir in (None, str(tmp_path)):
                with pytest.raises(StreamError) as err:
                    DataCellEngine(data_dir=data_dir, durability=word)
                assert f"unknown durability mode {word!r}" \
                    in str(err.value)
                assert str(DURABILITY_MODES) in str(err.value)
        # an unlogged engine is one without a data_dir
        engine = DataCellEngine()
        assert not engine.durable and engine.durability == "off"

    def test_recycler_knobs_are_exactly_these(self):
        import inspect

        from repro.core.recycler import Recycler

        assert list(inspect.signature(
            Recycler.__init__).parameters)[1:] == [
                "budget_bytes", "enabled", "verify"]

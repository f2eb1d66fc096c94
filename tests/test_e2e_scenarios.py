"""End-to-end scenario tests mirroring the demo's storylines:
multi-query networks, pause/resume, failure injection, hybrid
stream+table processing, clocks."""

import pytest

from repro.core.engine import DataCellEngine
from repro.streams.source import ListSource, RateSource


class TestMultiQueryNetwork:
    def test_many_queries_one_stream(self, engine):
        for threshold in range(5):
            engine.register_continuous(
                f"SELECT sid FROM sensors WHERE temp > {threshold * 10}",
                name=f"q{threshold}")
        engine.attach_source("sensors", RateSource(
            [(i, float(i)) for i in range(50)], rate=1000))
        engine.run_until_drained()
        assert not engine.scheduler.failed
        for threshold in range(5):
            rows = engine.results(f"q{threshold}").rows()
            assert len(rows) == 50 - threshold * 10 - 1
        # every tuple consumed by all five queries, then dropped
        assert len(engine.basket("sensors")) == 0

    def test_mixed_modes_one_stream(self, engine):
        inc = engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 10 SLIDE 5]",
            mode="incremental", name="inc")
        ree = engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 10 SLIDE 5]",
            mode="reeval", name="ree")
        engine.attach_source("sensors", RateSource(
            [(i, float(i)) for i in range(30)], rate=1000))
        engine.run_until_drained()
        assert engine.results("inc").rows() == engine.results(
            "ree").rows()

    def test_one_time_query_while_standing_queries_run(self, engine):
        engine.register_continuous(
            "SELECT sid FROM sensors [RANGE 1000]", name="retainer")
        engine.feed("sensors", [(1, 10.0), (2, 20.0)])
        engine.step()
        rows = engine.query("SELECT count(*), max(temp) "
                            "FROM sensors").to_rows()
        assert rows == [(2, 20.0)]


class TestPauseResumeScenario:
    def test_paused_query_catches_up(self, engine):
        engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 5]", name="q")
        engine.feed("sensors", [(i, 0.0) for i in range(5)])
        engine.step()
        assert len(engine.results("q")) == 1
        engine.pause_query("q")
        engine.feed("sensors", [(i, 0.0) for i in range(10)])
        engine.step()
        assert len(engine.results("q")) == 1
        engine.resume_query("q")
        engine.step()
        # catches up on both missed windows
        assert len(engine.results("q")) == 3

    def test_paused_stream_buffers_at_source(self, engine):
        engine.register_continuous("SELECT sid FROM sensors", name="q")
        engine.attach_source("sensors", ListSource(
            [(0, (1, 1.0)), (10, (2, 2.0))]))
        engine.pause_stream("sensors")
        engine.step(advance_ms=20)
        assert engine.results("q").rows() == []
        engine.resume_stream("sensors")
        engine.step()
        assert engine.results("q").rows() == [(1,), (2,)]


class TestFailureInjection:
    def test_failing_query_quarantined_others_continue(self, engine):
        # division by zero yields NULL (not an error), so force a
        # failure through a query whose factory we sabotage
        bad = engine.register_continuous("SELECT sid FROM sensors",
                                         name="bad")
        good = engine.register_continuous("SELECT temp FROM sensors",
                                          name="good")

        def explode(now):
            raise RuntimeError("injected")

        bad.factory._evaluate = explode
        engine.feed("sensors", [(1, 1.0)])
        engine.step()
        assert bad.factory.state == "failed"
        assert engine.results("good").rows() == [(1.0,)]
        assert engine.scheduler.failed
        # failed factory no longer blocks the basket forever
        engine.remove_query("bad")
        engine.feed("sensors", [(2, 2.0)])
        engine.step()
        assert len(engine.basket("sensors")) == 0

    def test_malformed_rows_rejected_without_corruption(self, engine):
        with pytest.raises(Exception):
            engine.feed("sensors", [(1,)])  # wrong arity
        engine.feed("sensors", [(1, 1.0)])
        assert engine.query("SELECT count(*) FROM sensors"
                            ).to_rows() == [(1,)]


class TestOutOfOrderAndEdgeCases:
    def test_empty_stream_run(self, engine):
        engine.register_continuous("SELECT sid FROM sensors", name="q")
        engine.run_until_drained()
        assert engine.results("q").rows() == []

    def test_source_slower_than_windows(self, engine):
        engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 2 SECONDS "
            "SLIDE 1 SECONDS]", name="q")
        engine.attach_source("sensors", ListSource(
            [(0, (1, 1.0)), (3500, (2, 2.0))]))
        engine.run_for(5000, step_ms=100)
        counts = [r[0] for r in engine.results("q").rows()]
        assert counts[0] == 1   # window [0, 2000)
        assert 1 in counts and 0 in counts  # quiet middle windows

    def test_burst_arrivals_same_timestamp(self, engine):
        engine.register_continuous(
            "SELECT count(*) FROM sensors [RANGE 10]", name="q")
        engine.attach_source("sensors", ListSource(
            [(5, (i, 0.0)) for i in range(25)]))
        engine.run_until_drained()
        assert engine.results("q").rows() == [(10,), (10,)]


class TestPersistentIntegration:
    def test_snapshot_roundtrip_through_engine(self, engine, tmp_path):
        from repro.storage.persistence import load_catalog, save_catalog

        engine.execute("CREATE TABLE results (sid INT, n INT)")
        engine.execute("INSERT INTO results VALUES (1, 10)")
        save_catalog(engine.catalog, str(tmp_path))
        fresh = DataCellEngine()
        load_catalog(str(tmp_path), into=fresh.catalog)
        assert fresh.query("SELECT * FROM results").to_rows() == \
            [(1, 10)]
        # streams come back as definitions; recreate the basket side
        assert fresh.catalog.has_stream("sensors")

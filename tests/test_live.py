"""Tests for the live (wall-clock, threaded) runtime mode."""

import os
import threading
import time

import pytest

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.core.live import LiveRunner
from repro.errors import StreamError
from repro.store import StreamLog
from repro.streams.source import RateSource


def live_engine():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    return engine


class TestLiveRunner:
    def test_requires_wall_clock(self):
        engine = DataCellEngine()  # simulated clock
        with pytest.raises(StreamError):
            LiveRunner(engine)

    def test_end_to_end_delivery(self):
        engine = live_engine()
        engine.register_continuous("SELECT k, v FROM s WHERE v > 0.5",
                                   name="q")
        runner = LiveRunner(engine)
        rows = [(i, float(i % 2)) for i in range(40)]
        runner.attach("s", RateSource(rows, rate=2000))
        runner.start()
        assert runner.wait_drained(timeout_s=5.0)
        runner.stop()
        got = engine.results("q").rows()
        assert len(got) == 20
        assert all(v == 1.0 for _k, v in got)
        assert not engine.scheduler.failed

    def test_windowed_query_live(self):
        engine = live_engine()
        engine.register_continuous(
            "SELECT count(*) FROM s [RANGE 10]", name="q",
            mode="incremental")
        runner = LiveRunner(engine)
        runner.attach("s", RateSource([(i, 0.0) for i in range(30)],
                                      rate=3000))
        with runner:
            assert runner.wait_drained(timeout_s=5.0)
        assert engine.results("q").rows() == [(10,), (10,), (10,)]

    def test_two_streams_concurrent(self):
        engine = live_engine()
        engine.execute("CREATE STREAM s2 (k INT, v FLOAT)")
        engine.register_continuous("SELECT k FROM s", name="a")
        engine.register_continuous("SELECT k FROM s2", name="b")
        runner = LiveRunner(engine)
        runner.attach("s", RateSource([(i, 0.0) for i in range(25)],
                                      rate=2500))
        runner.attach("s2", RateSource([(i, 0.0) for i in range(25)],
                                       rate=2500))
        runner.start()
        assert runner.wait_drained(timeout_s=5.0)
        runner.stop()
        assert len(engine.results("a").rows()) == 25
        assert len(engine.results("b").rows()) == 25

    def test_attach_after_start_rejected(self):
        engine = live_engine()
        runner = LiveRunner(engine)
        runner.start()
        try:
            with pytest.raises(StreamError):
                runner.attach("s", RateSource([(1, 0.0)], rate=10))
        finally:
            runner.stop()

    def test_stop_idempotent(self):
        engine = live_engine()
        runner = LiveRunner(engine)
        runner.start()
        runner.stop()
        runner.stop()  # second stop is a no-op

    def test_double_start_rejected(self):
        engine = live_engine()
        runner = LiveRunner(engine)
        runner.start()
        try:
            with pytest.raises(StreamError):
                runner.start()
        finally:
            runner.stop()

    def test_stop_drains_chained_network(self):
        """stop() must flush chained output_stream networks: a firing in
        the final step can enable a downstream factory, so a single step
        is not enough — the bounded drain loop runs until no transition
        is enabled."""
        engine = live_engine()
        engine.register_continuous("SELECT k, v FROM s", name="q1",
                                   output_stream="mid")
        engine.register_continuous("SELECT k FROM mid", name="q2")
        runner = LiveRunner(engine)
        runner.attach("s", RateSource([(i, 1.0) for i in range(50)],
                                      rate=5000))
        runner.start()
        time.sleep(0.03)  # stop mid-stream, tuples in flight
        runner.stop()
        ingested = sum(r.total_ingested for r in runner._receptors)
        # everything ingested before stop flowed through both stages
        assert len(engine.results("q2").rows()) == ingested
        assert not engine.scheduler.enabled_transitions()

    def test_drain_scheduler_bounded(self):
        from repro.core.live import drain_scheduler

        engine = live_engine()
        steps = drain_scheduler(engine.scheduler, max_steps=8)
        assert steps == 1  # idle net quiesces on the first step

    def test_conservation_under_concurrency(self):
        engine = live_engine()
        engine.register_continuous("SELECT k FROM s", name="q")
        runner = LiveRunner(engine)
        runner.attach("s", RateSource([(i, 0.0) for i in range(200)],
                                      rate=20000))
        runner.start()
        assert runner.wait_drained(timeout_s=5.0)
        runner.stop()
        basket = engine.basket("s")
        assert basket.total_in == 200
        assert basket.total_in == basket.total_dropped + len(basket)
        rows = engine.results("q").rows()
        assert [k for k, in rows] == list(range(200))

    def test_runner_owns_the_engine_and_takes_submitted_work(self):
        """While running, only the scheduler thread changes the engine:
        other threads hand work to submit()."""
        engine = live_engine()
        runner = LiveRunner(engine)
        with pytest.raises(StreamError):
            runner.submit(engine.execute, "INSERT INTO s VALUES (0, 0.0)")
        with runner:
            with pytest.raises(StreamError, match="serving loop owns"):
                engine.register_continuous("SELECT k FROM s", name="q")
            runner.submit(lambda: engine.register_continuous(
                "SELECT k FROM s", name="q")).result(2.0)
            assert runner.submit(
                engine.execute, "INSERT INTO s VALUES (1, 1.0)"
            ).result(2.0) == 1
            assert runner.wait_drained(timeout_s=2.0)
        assert engine.results("q").rows() == [(1,)]
        assert engine.loop_thread is None

    def test_durable_threaded_receptor_rows_reach_the_log(self, tmp_path):
        """A ThreadedReceptor appends to the log from its own thread;
        the scheduler steps commit what it staged, and no other thread
        writes the log."""
        before = set(threading.enumerate())
        engine = DataCellEngine(clock=WallClock(), data_dir=str(tmp_path))
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        runner = LiveRunner(engine)
        rows = [(i, float(i) / 2) for i in range(300)]
        runner.attach("s", RateSource(rows, rate=6000))
        runner.start()
        started = sorted(t.name for t in threading.enumerate()
                         if t not in before)
        assert started == ["datacell-receptor-s_live0",
                           "datacell-scheduler"]
        assert runner.wait_drained(timeout_s=5.0)
        runner.stop()
        log = engine.stream_log("s")
        assert log.durable_offset == log.next_offset == len(rows)
        schema = engine.catalog.schema_of("s")
        engine.close()
        reopened = StreamLog(os.path.join(str(tmp_path), "streams", "s"),
                             "s", schema)
        cols, _arrival = reopened.read(0, reopened.next_offset)
        assert list(zip(cols["k"].tolist(), cols["v"].tolist())) == rows
        reopened.close()

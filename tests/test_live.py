"""Tests for the live (wall-clock) runtime mode: one serving loop
pumps every attached source as its events come due."""

import os
import sys
import threading
import time

import pytest

from repro.core import live
from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.core.live import LiveRunner
from repro.errors import StreamError
from repro.net.server import DataCellServer
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
        """A live source is pumped on the scheduler thread, which also
        commits what it staged: no other thread writes the log."""
        before = set(threading.enumerate())
        engine = DataCellEngine(clock=WallClock(), data_dir=str(tmp_path))
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        runner = LiveRunner(engine)
        rows = [(i, float(i) / 2) for i in range(300)]
        runner.attach("s", RateSource(rows, rate=6000))
        runner.start()
        started = sorted(t.name for t in threading.enumerate()
                         if t not in before)
        assert started == ["datacell-scheduler"]
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


def _datacell_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("datacell-")]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestOneThread:
    def test_three_sources_run_one_thread(self):
        engine = live_engine()
        engine.execute("CREATE STREAM s2 (k INT, v FLOAT)")
        engine.execute("CREATE STREAM s3 (k INT, v FLOAT)")
        engine.register_continuous("SELECT k FROM s", name="a")
        engine.register_continuous("SELECT k FROM s3", name="c")
        runner = LiveRunner(engine)
        for stream in ("s", "s2", "s3"):
            runner.attach(stream, RateSource(
                [(i, 0.0) for i in range(30)], rate=3000))
        with runner:
            assert _datacell_threads() == ["datacell-scheduler"]
            assert runner.wait_drained(timeout_s=5.0)
        assert len(engine.results("a").rows()) == 30
        assert len(engine.results("c").rows()) == 30

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc (Linux)")
    def test_stop_closes_what_start_opened(self):
        """The wake's self-pipe and the selector are the loop's: opened
        at start, closed at stop; an engine that never serves opens
        none."""
        engine = live_engine()
        runner = LiveRunner(engine)
        runner.attach("s", RateSource([(1, 1.0)], rate=100))
        before = _open_fds()
        runner.start()
        assert _open_fds() > before
        runner.stop()
        assert _open_fds() == before
        engine.wake.set()  # no pipe to write: a flag only
        assert engine.wake.is_set()
        assert _open_fds() == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc (Linux)")
    def test_served_stop_closes_what_start_opened(self):
        engine = live_engine()
        engine.register_continuous("SELECT k FROM s", name="q")
        server = DataCellServer(engine, pg_port=0)
        before = _open_fds()
        server.start()
        assert server.submit(engine.execute,
                             "INSERT INTO s VALUES (1, 1.0)").result(2.0)
        server.stop()
        assert _open_fds() == before
        engine.close()

    def test_no_wake_is_lost_under_contention(self, monkeypatch):
        """Eight threads hand the loop commands and feed rows while the
        interpreter switches threads as often as it can; with the
        heartbeat patched out, a lost wake would leave a command waiting
        30 s and fail its 2 s bound."""
        monkeypatch.setattr(live, "HEARTBEAT_S", 30.0)
        engine = live_engine()
        engine.register_continuous("SELECT k FROM s", name="q")
        runner = LiveRunner(engine)
        errors = []

        def hammer(base):
            try:
                for i in range(40):
                    engine.feed("s", [(base + i, 1.0)])
                    runner.submit(lambda: None).result(2.0)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with runner:
                threads = [threading.Thread(target=hammer,
                                            args=(1000 * n,))
                           for n in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(t.is_alive() for t in threads)
                assert runner.wait_drained(timeout_s=2.0)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(engine.results("q").rows()) == 8 * 40

"""The serving loop wakes on work, not on a poll
(:class:`repro.core.live.ServingLoop`).

With the housekeeping heartbeat patched out to 30 s, anything that still
arrives promptly was delivered by a wake source or by the timer deadline;
a source that forgot to signal would sit for half a minute and fail its
2 s bound. Every wait below carries its own timeout, so the file needs
no ``--timeout`` plugin to terminate.
"""

import threading
import time

import pytest

from repro.core import live
from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.pg.server import PGWireServer
from repro.streams.source import ListSource
from tests.test_pg import MiniPG, _wait_until


def _engine():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.execute("CREATE STREAM t (k INT, v FLOAT)")
    engine.register_continuous("SELECT k, v FROM s", name="q")
    return engine


def _scheduler_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("datacell-") and "scheduler" in t.name]


HOSTS = {
    "framed": lambda engine: DataCellServer(engine),
    "pg": lambda engine: PGWireServer(engine, drive_scheduler=True),
    "live": lambda engine: live.LiveRunner(engine),
}


@pytest.fixture
def no_heartbeat(monkeypatch):
    monkeypatch.setattr(live, "HEARTBEAT_S", 30.0)


@pytest.fixture
def served(no_heartbeat):
    """Framed and pg front ends on one engine, heartbeat patched out."""
    engine = _engine()
    framed = DataCellServer(engine).start()
    pg = PGWireServer(engine, drive_scheduler=False,
                      io_loop=framed.io).start()
    yield engine, framed, pg
    pg.stop()
    framed.stop()
    engine.close()


@pytest.mark.parametrize("host", sorted(HOSTS))
def test_idle_engine_sleeps_and_stop_joins_the_loop(host):
    """(a) an idle served engine takes a handful of steps, not one per
    2 ms; (d) no scheduler thread survives stop(), and stop() does not
    wait out a heartbeat."""
    engine = _engine()
    runner = HOSTS[host](engine)
    runner.start()
    try:
        assert _scheduler_threads()
        time.sleep(0.1)  # start-up wakes
        before = engine.scheduler.steps
        time.sleep(0.5)
        assert engine.scheduler.steps - before <= 20
    finally:
        t0 = time.monotonic()
        runner.stop()
        stopped_in = time.monotonic() - t0
    assert _scheduler_threads() == []
    assert stopped_in < 1.0
    engine.close()


def test_every_arrival_wakes_the_loop(served):
    """(b) rows from 4 framed producer threads, then pg INSERTs on a
    second connection once the producers are quiet (so each INSERT is
    the only signal around), are all delivered with no heartbeat to
    lean on."""
    engine, framed, pg = served
    batches, per_batch, inserts = 10, 5, 5
    subscriber = DataCellClient(port=framed.port)
    subscriber.subscribe("q")

    def produce(base):
        with DataCellClient(port=framed.port) as producer:
            for b in range(batches):
                producer.ingest("s", [[base + b * per_batch + i, 1.0]
                                      for i in range(per_batch)])

    threads = [threading.Thread(target=produce, args=(1000 * n,))
               for n in range(1, 5)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    total = 4 * batches * per_batch
    got = subscriber.results(max_rows=total, timeout=2.0)
    assert sum(b.row_count for b in got) == total

    client = MiniPG(pg.host, pg.port)
    for i in range(inserts):
        client.query(f"INSERT INTO s VALUES ({i}, 2.0), ({i + 100}, 2.0)")
        got = subscriber.results(max_rows=2, timeout=2.0)
        assert [r for b in got for r in b.rows] == [(i, 2.0),
                                                    (i + 100, 2.0)]
    client.close()
    subscriber.close()


def test_register_and_resume_wake_the_loop(served):
    """(b) a query registered on a running server over rows already in
    its basket fires; resume after pause fires what arrived meanwhile."""
    engine, _framed, _pg = served
    engine.feed("t", [[1, 1.0], [2, 2.0]])  # no reader: rows stay put
    assert _wait_until(lambda: not engine.wake.is_set(), 2.0)
    engine.register_continuous("SELECT k FROM t", name="late",
                               from_start=True)
    assert _wait_until(
        lambda: engine.results("late").rows() == [(1,), (2,)], 2.0)

    engine.pause_query("q")
    engine.feed("s", [[7, 7.0]])
    time.sleep(0.2)
    assert engine.results("q").rows() == []
    engine.resume_query("q")
    assert _wait_until(
        lambda: engine.results("q").rows() == [(7, 7.0)], 2.0)


@pytest.mark.parametrize("mode", ["reeval", "incremental"])
def test_time_window_fires_at_its_boundary(served, mode):
    """(c) the timer path: no arrival after the feed, so only the
    window's own deadline can fire it — within one window of the
    boundary, not at the 30 s heartbeat."""
    engine, _framed, _pg = served
    t0 = time.monotonic()
    engine.register_continuous(
        "SELECT count(*) FROM s [RANGE 1 SECONDS]", name="w", mode=mode)
    engine.feed("s", [[1, 1.0], [2, 2.0], [3, 3.0]])
    assert _wait_until(lambda: engine.results("w").rows(), 2.5,
                       interval_s=0.005)
    elapsed = time.monotonic() - t0
    assert engine.results("w").rows()[0] == (3,)
    assert 0.99 <= elapsed < 2.0


def test_pumped_source_delivers_at_its_event_time(served):
    """(c) an attach_source receptor's next event time is a deadline."""
    engine, _framed, _pg = served
    t0 = time.monotonic()
    due = engine.now() + 400
    engine.attach_source("s", ListSource([(due, (5, 5.0))]))
    assert _wait_until(lambda: engine.results("q").rows(), 2.0,
                       interval_s=0.005)
    elapsed = time.monotonic() - t0
    assert engine.results("q").rows() == [(5, 5.0)]
    assert 0.39 <= elapsed < 1.4

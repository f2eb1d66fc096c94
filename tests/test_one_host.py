"""One host, one mutator thread (:class:`repro.net.server.DataCellServer`).

A served engine is mutated by exactly one thread, the serving loop:
every pg statement and every framed edge command is handed to it
through :meth:`~repro.net.server.DataCellServer.submit`. These tests
record which thread runs each engine entry point over a session that
uses both protocols, and check the answer the served system gives
under concurrent writers from both protocols against the oracle.
"""

import functools
import threading
import time

import pytest

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.core.factory import Factory
from repro.core.recycler import Recycler
from repro.errors import NetError, StreamError
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.pg.server import PGEdge
from repro.pg.session import sqlstate_for
from tests.test_modes_equivalence import ORACLE, canon
from tests.test_pg import MiniPG, errors_of, tags_of

ENGINE_CALLS = ("execute_statement", "register_continuous",
                "remove_query", "add_socket_receptor", "network_stats")
# the pg channel's reader and writer, and a tail's delivery
PG_EDGE_CALLS = ("_on_readable", "_send", "_pump")


def _recycler_methods():
    return sorted(name for name, attr in vars(Recycler).items()
                  if not name.startswith("_")
                  and (callable(attr) or isinstance(attr, staticmethod)))


@pytest.fixture
def calls(monkeypatch):
    """``{entry point: [thread ident, ...]}`` while ``calls["on"]``,
    counting only calls on ``calls["engine"]`` and what it owns."""
    record = {"on": False, "engine": None}

    def owned(obj):
        engine = record["engine"]
        return obj is engine or obj is engine.recycler \
            or obj is getattr(engine.net_edge, "pg", None) \
            or any(obj is f for f in engine.scheduler.factories)

    def traced(owner, name):
        attr = vars(owner)[name]
        static = isinstance(attr, staticmethod)
        fn = attr.__func__ if static else attr

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a static Recycler method has no owner to tell
            if record["on"] and (static or owned(args[0])):
                record.setdefault(f"{owner.__name__}.{name}", []).append(
                    threading.get_ident())
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name,
                            staticmethod(wrapper) if static else wrapper)

    for name in ENGINE_CALLS:
        traced(DataCellEngine, name)
    for name in PG_EDGE_CALLS:
        traced(PGEdge, name)
    traced(Factory, "fire")
    for name in _recycler_methods():
        traced(Recycler, name)
    return record


def test_every_engine_call_runs_on_the_loop_thread(calls):
    engine = calls["engine"] = DataCellEngine(clock=WallClock())
    server = DataCellServer(engine, pg_port=0).start()
    try:
        loop_thread = engine.loop_thread
        assert loop_thread not in (None, threading.get_ident())
        # the serving loop and the framed I/O loop; the pg edge is a
        # process, and no thread hands the loop its channel
        assert sorted(t.name for t in threading.enumerate()
                      if t.name.startswith("datacell-")) \
            == ["datacell-io", "datacell-server-scheduler"]
        calls["on"] = True
        pg = MiniPG(server.pg_host, server.pg_port)
        assert tags_of(pg.query("CREATE STREAM s (k INT, v FLOAT)")) \
            == ["CREATE STREAM"]
        for name in ("q", "twin"):  # identical plans share the recycler
            assert tags_of(pg.query(
                f"REGISTER CONTINUOUS {name} AS "
                f"SELECT k, sum(v) FROM s [RANGE 4 SLIDE 2] GROUP BY k"
            )) == ["REGISTER CONTINUOUS"]
        assert tags_of(pg.query(
            "INSERT INTO s VALUES (1, 1.0), (2, 2.0)")) == ["INSERT 0 2"]

        tail = {}

        def run_tail():
            client = MiniPG(server.pg_host, server.pg_port)
            tail["msgs"] = client.query("TAIL q BATCHES 1 TIMEOUT 5000")
            client.close()

        tailer = threading.Thread(target=run_tail)
        tailer.start()
        with DataCellClient(port=server.port) as subscriber, \
                DataCellClient(port=server.port) as producer:
            subscriber.subscribe("twin")
            deadline = time.monotonic() + 5.0
            while server.pg.pg_stats()["tails"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            producer.ingest("s", [[3, 3.0], [4, 4.0], [1, 5.0]])
            assert subscriber.results(max_batches=1, timeout=5.0)
            stats = producer.stats()
            assert stats["pg"]["connections_total"] == 2
        tailer.join(10.0)
        (tag,) = tags_of(tail["msgs"])
        assert tag.startswith("TAIL ") and tag != "TAIL 0"
        assert tags_of(pg.query("SELECT k, v FROM s"))[0] \
            .startswith("SELECT ")
        assert tags_of(pg.query("UNREGISTER CONTINUOUS twin")) \
            == ["UNREGISTER CONTINUOUS"]
        pg.close()
        calls["on"] = False

        # the ownership check guards every way in, not just step()
        for off_loop_call in (
                engine.step, engine.run_until_drained,
                lambda: engine.register_continuous("SELECT k FROM s"),
                lambda: engine.remove_query("q"),
                lambda: engine.execute("INSERT INTO s VALUES (9, 9.0)"),
                engine.network_stats):
            with pytest.raises(StreamError, match="serving loop owns"):
                off_loop_call()
    finally:
        server.stop()
        engine.close()
    assert engine.loop_thread is None

    for name in ENGINE_CALLS:
        assert f"DataCellEngine.{name}" in calls, name
    for name in PG_EDGE_CALLS:
        assert set(calls[f"PGEdge.{name}"]) == {loop_thread}, name
    assert "Factory.fire" in calls
    assert any(key.startswith("Recycler.") for key in calls)
    off_loop = {key: len([t for t in idents if t != loop_thread])
                for key, idents in calls.items()
                if key not in ("on", "engine")
                and set(idents) != {loop_thread}}
    assert off_loop == {}


def test_statement_after_stop_fails_promptly():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT)")
    server = DataCellServer(engine, pg_port=0)
    with pytest.raises(StreamError, match="not started"):
        server.submit(engine.execute, "INSERT INTO s VALUES (0)")
    server.start()
    assert server.submit(engine.execute,
                         "INSERT INTO s VALUES (1)").result(2.0) == 1
    server.stop()
    engine.close()
    # the host let go of the engine: no front end is reported any more
    assert "not attached" in engine.monitor.net()
    assert "not attached" in engine.monitor.pg()
    assert "net" not in engine.network_stats()
    started = time.monotonic()
    future = server.submit(engine.execute, "INSERT INTO s VALUES (2)")
    with pytest.raises(NetError) as excinfo:
        future.result(1.0)
    assert time.monotonic() - started < 1.0
    assert excinfo.value.code == "shutdown"
    assert sqlstate_for(excinfo.value) == "57P01"
    engine.step()  # no live loop owns it any more


# -- composed concurrency: both protocols writing one stream at once ----

WINDOWED = ("SELECT k, count(*), sum(v), min(v), max(v) "
            "FROM s [RANGE 24 SLIDE 6] GROUP BY k")
STATEMENTS, ROWS_PER = 30, 4


def test_concurrent_writers_from_both_protocols_match_the_oracle():
    """Two pg connections INSERT and a framed producer INGESTs into one
    stream at once; count windows make the answer a function of arrival
    order alone, which a pass-through query captures."""
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v INT, src INT)")
    engine.register_continuous("SELECT k, v, src FROM s", name="seen")
    engine.register_continuous(WINDOWED, name="inc", mode="auto")
    engine.register_continuous(WINDOWED, name="re", mode="reeval")
    assert engine.continuous_query("inc").mode == "incremental"
    server = DataCellServer(engine, pg_port=0).start()
    errors = []

    def row(src, i, j):
        return (i * ROWS_PER + j) % 5, src * 1000 + i * ROWS_PER + j

    def pg_writer(src):
        client = MiniPG(server.pg_host, server.pg_port)
        for i in range(STATEMENTS):
            values = ", ".join(f"({k}, {v}, {src})" for k, v in
                               (row(src, i, j) for j in range(ROWS_PER)))
            errors.extend(errors_of(client.query(
                f"INSERT INTO s VALUES {values}")))
        client.close()

    def framed_writer(src):
        with DataCellClient(port=server.port) as producer:
            for i in range(STATEMENTS):
                producer.ingest("s", [[*row(src, i, j), src]
                                      for j in range(ROWS_PER)])

    writers = [threading.Thread(target=pg_writer, args=(1,)),
               threading.Thread(target=pg_writer, args=(2,)),
               threading.Thread(target=framed_writer, args=(3,))]
    try:
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(30.0)
    finally:
        server.stop()  # drains everything admitted
    assert errors == []
    arrived = engine.results("seen").rows()
    assert len(arrived) == 3 * STATEMENTS * ROWS_PER
    assert {src for _k, _v, src in arrived} == {1, 2, 3}
    served = {name: [r.to_rows() for _t, r in engine.results(name).batches]
              for name in ("inc", "re")}
    engine.close()

    oracle = DataCellEngine(**ORACLE)
    oracle.execute("CREATE STREAM s (k INT, v INT, src INT)")
    oracle.register_continuous(WINDOWED, name="o", mode="reeval")
    oracle.feed("s", arrived)
    oracle.run_until_drained()
    expected = [r.to_rows() for _t, r in oracle.results("o").batches]
    assert len(expected) == (len(arrived) - 24) // 6 + 1
    assert canon(served["inc"]) == canon(expected)
    assert canon(served["re"]) == canon(expected)

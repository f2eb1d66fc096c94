"""The pg edge process (:mod:`repro.pg.server`): a served engine with a
``pg_port`` forks one child that owns the pg listener and sessions.

These tests check the process picture — no orphan when either side is
killed, framed clients served on after the edge dies, no child without
``--pg-port`` — the semantics that cross the channel (cancel, 57P01 at
shutdown, the ``STATS`` section the edge pushes), and that a session
sends each reply in one socket write, byte for byte what the message
builders give.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.pg import messages as msg
from repro.pg.session import PGSession, columns_of
from repro.storage import types as dt
from tests.conftest import live_children
from tests.test_pg import (MiniPG, _typed, _wait_until, cancel_request,
                           data_rows, errors_of, tags_of)

SRC = Path(__file__).resolve().parents[1] / "src"


def _engine() -> DataCellEngine:
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.register_continuous("SELECT k, v FROM s", name="q")
    return engine


def _alive(pid: int) -> bool:
    """Running, as opposed to gone or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2:].split()[0] != "Z"


def _serve(tmp_path, *extra):
    """A ``repro serve`` process; returns it once it listens."""
    port_file = tmp_path / "port"
    cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
           "--port-file", str(port_file), *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    files = [port_file] + [Path(a) for a in extra
                           if a.endswith("pg_port")]
    if not _wait_until(lambda: all(f.exists() and f.read_text()
                                   for f in files), timeout_s=20):
        proc.kill()
        proc.wait(10)
        pytest.fail("repro serve did not start listening")
    return proc


pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="needs /proc (Linux)")


class TestProcesses:
    def test_serve_without_pg_port_starts_no_child(self, tmp_path):
        proc = _serve(tmp_path)
        try:
            time.sleep(0.2)
            assert live_children(proc.pid) == set()
        finally:
            proc.terminate()
            proc.wait(10)

    def test_server_without_pg_port_starts_no_child(self):
        engine = _engine()
        before = live_children(os.getpid())
        with DataCellServer(engine) as server:
            assert server.pg is None
            assert live_children(os.getpid()) == before
        engine.close()

    def test_sigkill_of_the_host_leaves_no_orphan(self, tmp_path):
        proc = _serve(tmp_path, "--pg-port", "0", "--pg-port-file",
                      str(tmp_path / "pg_port"))
        try:
            (edge,) = live_children(proc.pid)
        finally:
            proc.kill()
            proc.wait(10)
        assert _wait_until(lambda: not _alive(edge), timeout_s=2.0)

    def test_sigkill_of_the_edge_leaves_no_orphan_and_framed_serves_on(
            self):
        engine = _engine()
        server = DataCellServer(engine, pg_port=0).start()
        try:
            edge = server.pg.pid
            assert live_children(os.getpid()) >= {edge}
            os.kill(edge, signal.SIGKILL)
            assert _wait_until(lambda: not _alive(edge), timeout_s=2.0)
            assert _wait_until(
                lambda: not server.pg.pg_stats()["running"])
            # the framed edge still ingests and delivers
            with DataCellClient(port=server.port) as subscriber, \
                    DataCellClient(port=server.port) as producer:
                subscriber.subscribe("q")
                assert producer.ingest("s", [[1, 1.5], [2, 2.5]]) == 2
                batches = subscriber.results(max_rows=2, timeout=5.0)
                assert [tuple(r) for b in batches for r in b.rows] \
                    == [(1, 1.5), (2, 2.5)]
                stats = producer.stats()
                assert stats["pg"]["running"] is False
        finally:
            server.stop()
            engine.close()
        assert not os.path.exists(f"/proc/{edge}")  # reaped

    def test_stop_reaps_the_edge(self):
        engine = _engine()
        server = DataCellServer(engine, pg_port=0).start()
        edge = server.pg.pid
        client = MiniPG(server.pg_host, server.pg_port)
        assert tags_of(client.query("SELECT k FROM s")) == ["SELECT 0"]
        server.stop()
        assert not os.path.exists(f"/proc/{edge}")
        client.close()
        engine.close()

    def test_the_edge_adds_no_thread(self):
        """The edge runs on one thread, and the host runs no more
        threads than without it."""
        engine = _engine()
        with DataCellServer(engine):
            threads = threading.active_count()
        engine.close()
        engine = _engine()
        with DataCellServer(engine, pg_port=0) as server:
            assert threading.active_count() == threads
            status = Path(f"/proc/{server.pg.pid}/status").read_text()
            assert "Threads:\t1\n" in status
        engine.close()


class TestAcrossTheChannel:
    def test_cancel_request_ends_a_running_tail(self):
        engine = _engine()
        server = DataCellServer(engine, pg_port=0).start()
        try:
            client = MiniPG(server.pg_host, server.pg_port)
            client.send(_typed(b"Q", b"TAIL q\x00"))
            assert _wait_until(lambda: server.pg.pg_stats()["tails"] == 1)
            started = time.monotonic()
            cancel_request(server.pg_host, server.pg_port, client.key)
            msgs = client.read_until(b"Z")
            assert [e[0] for e in errors_of(msgs)] == ["57014"]
            assert time.monotonic() - started < 1.0
            assert server.pg.pg_stats()["cancels"] == 1
            # the host let go of the follower before the reply
            assert server.pg.tail_followers() == []
            client.close()
        finally:
            server.stop()
            engine.close()

    def test_statement_the_loop_can_no_longer_run_gets_57P01(self):
        engine = _engine()
        server = DataCellServer(engine, pg_port=0).start()
        try:
            client = MiniPG(server.pg_host, server.pg_port)
            server._loop.stop(1.0)  # the serving loop is gone
            msgs = client.query("INSERT INTO s VALUES (1, 1.0)")
            assert [e[0] for e in errors_of(msgs)] == ["57P01"]
            assert msgs[-1][0] == b"Z"
            client.close()
        finally:
            server.stop()
            engine.close()

    def test_stats_section_is_what_the_edge_pushed(self):
        engine = _engine()
        server = DataCellServer(engine, pg_port=0).start()
        try:
            client = MiniPG(server.pg_host, server.pg_port)
            client.query("CREATE TABLE t (k INT, v FLOAT)")
            client.query("INSERT INTO t VALUES (1, 1.0), (2, NULL)")
            msgs = client.query("SELECT k, v FROM t")
            assert data_rows(msgs) == [("1", "1.0"), ("2", None)]
            stats = server.submit(engine.network_stats).result(5)["pg"]
            assert stats["pid"] == server.pg.pid
            assert stats["queries"] == 3
            assert stats["sessions"][0]["queries"] == 3
            client.close()
            assert _wait_until(
                lambda: not server.pg.pg_stats()["sessions"])
            # a closed session's counters are folded into the totals
            assert server.pg.pg_stats()["rows_sent"] == 2
        finally:
            server.stop()
            engine.close()


# -- one socket write per reply ---------------------------------------------


class _Writer:
    """A transport stand-in that records every write."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    async def drain(self):
        pass

    def get_extra_info(self, name):
        return ("127.0.0.1", 5432) if name == "peername" else None


class _Front:
    """Canned engine-process replies, one list per op."""

    def __init__(self, replies):
        self.replies = replies

    def request(self, op, args, session):
        future = asyncio.get_running_loop().create_future()
        future.set_result(self.replies[op].pop(0))
        return future


def _session(replies):
    writer = _Writer()
    return PGSession(_Front(replies), None, writer, 1, 2), writer


def _query(session, sql):
    asyncio.run(session._on_query(sql.encode() + b"\x00"))


class TestOneWritePerReply:
    def test_insert_reply_is_one_write(self):
        session, writer = _session({"run": [(True, 64)]})
        values = ", ".join(f"({i}, {i}.5)" for i in range(64))
        _query(session, f"INSERT INTO s VALUES {values}")
        assert writer.writes == [msg.command_complete("INSERT 0 64")
                                 + msg.ready_for_query()]

    def test_tail_batch_is_one_write(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous("SELECT k, v FROM s", name="q")
        for rows in ([(1, 1.5), (2, None), (3, 3.5)], [(4, 4.5), (5, 5.5)]):
            engine.feed("s", rows)
            engine.run_until_drained()
        first, second = [rel for _now, rel in engine.results("q").batches]
        engine.close()
        columns = [("k", dt.INT), ("v", dt.FLOAT)]
        session, writer = _session({
            "follow": [(True, (7, columns))],
            "next": [(True, ("batch", columns_of(first))),
                     (True, ("batch", columns_of(second)))],
            "untail": [(True, None)]})
        _query(session, "TAIL q BATCHES 2")
        assert writer.writes == [
            msg.row_description(columns)
            + b"".join(msg.data_row(r) for r in first.to_rows()),
            b"".join(msg.data_row(r) for r in second.to_rows()),
            msg.command_complete("TAIL 5") + msg.ready_for_query()]
        assert session.rows_sent == 5

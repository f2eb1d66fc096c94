"""Tests for the Postgres wire-protocol front end: v3 messages, the
session state machine (simple + extended query), the streaming dialect
(REGISTER/TAIL/SHOW), cancel, stats panes, and the serve CLI wiring.

``MiniPG`` is a from-scratch socket client speaking just enough of the
v3 protocol to exercise the server the way psql/pg8000 do — so the
suite runs with zero client-side dependencies. The pg8000 end-to-end
test at the bottom runs only when pg8000 is installed.
"""

import io
import socket
import struct
import threading
import time

import pytest

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.pg import messages as msg
from repro.pg.server import PGWireServer
from repro.pg.session import classify, split_statements
from repro.storage import types as dt

I16 = struct.Struct("!h")
I32 = struct.Struct("!i")


def _wait_until(predicate, timeout_s=5.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _typed(t, payload=b""):
    return t + I32.pack(len(payload) + 4) + payload


class MiniPG:
    """A minimal v3 frontend: startup, simple Query, extended
    Parse/Bind/Describe/Execute/Sync, CancelRequest."""

    def __init__(self, host, port, user="tester", database="datacell",
                 timeout=10.0):
        self.sock = socket.create_connection((host, port),
                                             timeout=timeout)
        body = I32.pack(msg.PROTOCOL_3_0)
        for k, v in (("user", user), ("database", database)):
            body += k.encode() + b"\x00" + v.encode() + b"\x00"
        body += b"\x00"
        self.sock.sendall(I32.pack(len(body) + 4) + body)
        self.params = {}
        self.key = None
        for t, payload in self.read_until(b"Z"):
            if t == b"S":
                k, v = payload.split(b"\x00")[:2]
                self.params[k.decode()] = v.decode()
            elif t == b"K":
                self.key = struct.unpack("!ii", payload)

    # -- plumbing ------------------------------------------------------

    def _rx(self, n):
        buf = b""
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise EOFError("server closed the connection")
            buf += chunk
        return buf

    def send(self, data):
        self.sock.sendall(data)

    def read_message(self):
        head = self._rx(5)
        (length,) = I32.unpack(head[1:])
        payload = self._rx(length - 4) if length > 4 else b""
        return head[0:1], payload

    def read_until(self, *stop):
        out = []
        while True:
            t, p = self.read_message()
            out.append((t, p))
            if t in stop:
                return out

    # -- protocol ------------------------------------------------------

    def query(self, sql):
        self.send(_typed(b"Q", sql.encode() + b"\x00"))
        return self.read_until(b"Z")

    def parse(self, sql, name=b""):
        self.send(_typed(
            b"P", name + b"\x00" + sql.encode() + b"\x00" + I16.pack(0)))

    def bind(self, portal=b"", statement=b"", result_formats=()):
        body = portal + b"\x00" + statement + b"\x00" \
            + I16.pack(0) + I16.pack(0) \
            + I16.pack(len(result_formats))
        for fmt in result_formats:
            body += I16.pack(fmt)
        self.send(_typed(b"B", body))

    def describe(self, kind=b"S", name=b""):
        self.send(_typed(b"D", kind + name + b"\x00"))

    def execute(self, portal=b"", max_rows=0):
        self.send(_typed(b"E", portal + b"\x00" + I32.pack(max_rows)))

    def sync(self):
        self.send(_typed(b"S"))
        return self.read_until(b"Z")

    def close(self):
        try:
            self.send(_typed(b"X"))
        except OSError:
            pass
        self.sock.close()


def cancel_request(host, port, key):
    """A second connection carrying only a CancelRequest."""
    with socket.create_connection((host, port), timeout=5) as sock:
        body = I32.pack(msg.CANCEL_REQUEST_CODE) \
            + I32.pack(key[0]) + I32.pack(key[1])
        sock.sendall(I32.pack(len(body) + 4) + body)


def data_rows(msgs, raw=False):
    """Decode DataRow messages to tuples (bytes when *raw*)."""
    out = []
    for t, p in msgs:
        if t != b"D":
            continue
        (n,) = I16.unpack_from(p, 0)
        off = 2
        row = []
        for _ in range(n):
            (ln,) = I32.unpack_from(p, off)
            off += 4
            if ln < 0:
                row.append(None)
            else:
                cell = p[off:off + ln]
                row.append(cell if raw else cell.decode())
                off += ln
        out.append(tuple(row))
    return out


def row_description(msgs):
    """Decode the RowDescription to [(name, oid, fmt)]."""
    for t, p in msgs:
        if t != b"T":
            continue
        (n,) = I16.unpack_from(p, 0)
        off = 2
        cols = []
        for _ in range(n):
            end = p.index(b"\x00", off)
            name = p[off:end].decode()
            off = end + 1
            _table, _attnum = struct.unpack_from("!ih", p, off)
            off += 6
            (oid,) = I32.unpack_from(p, off)
            off += 4
            _typlen, _typmod, fmt = struct.unpack_from("!hih", p, off)
            off += 8
            cols.append((name, oid, fmt))
        return cols
    return None


def errors_of(msgs):
    """[(sqlstate, message)] of every ErrorResponse."""
    out = []
    for t, p in msgs:
        if t != b"E":
            continue
        fields = {}
        off = 0
        while off < len(p) and p[off:off + 1] != b"\x00":
            code = p[off:off + 1]
            end = p.index(b"\x00", off + 1)
            fields[code] = p[off + 1:end].decode()
            off = end + 1
        out.append((fields.get(b"C"), fields.get(b"M")))
    return out


def tags_of(msgs):
    return [p.rstrip(b"\x00").decode() for t, p in msgs if t == b"C"]


# ---------------------------------------------------------------------
# message encoding (pure bytes)
# ---------------------------------------------------------------------


class TestMessages:
    def test_data_row_null_and_text_encodings(self):
        row = msg.data_row((1, None, 2.5, True, False, "x"))
        # 6 columns; NULL is length -1 with no payload
        assert row[0:1] == b"D"
        body = row[5:]
        assert I16.unpack_from(body, 0) == (6,)
        assert b"\xff\xff\xff\xff" in body          # the NULL cell
        assert b"t" in body and b"f" in body        # booleans
        assert b"2.5" in body

    def test_type_oids(self):
        assert msg.pg_type_of(dt.INT) == (20, 8)
        assert msg.pg_type_of(dt.FLOAT) == (701, 8)
        assert msg.pg_type_of(dt.STRING) == (25, -1)
        assert msg.pg_type_of(dt.BOOLEAN) == (16, 1)
        assert msg.pg_type_of(dt.TIMESTAMP) == (20, 8)

    def test_error_response_fields(self):
        err = msg.error_response("42601", "busted", hint="fix it")
        assert b"C42601\x00" in err
        assert b"Mbusted\x00" in err
        assert b"Hfix it\x00" in err
        assert err.endswith(b"\x00")

    def test_startup_payload_roundtrip(self):
        payload = b"user\x00alice\x00database\x00db\x00\x00"
        assert msg.parse_startup_payload(payload) == {
            "user": "alice", "database": "db"}

    def test_split_statements_quote_aware(self):
        assert split_statements("a; b") == ["a", "b"]
        assert split_statements("insert into s values ('x;y'); b") \
            == ["insert into s values ('x;y')", "b"]
        assert split_statements("  ;; ") == []

    def test_classify_dialect(self):
        cmd = classify("REGISTER CONTINUOUS q1 MODE incremental AS "
                       "SELECT k FROM s")
        assert (cmd.kind, cmd.name, cmd.mode) == \
            ("register", "q1", "incremental")
        assert "SELECT k FROM s" in cmd.query
        cmd = classify("TAIL q1 BATCHES 3 ROWS 10 TIMEOUT 500")
        assert (cmd.kind, cmd.name, cmd.batches, cmd.rows,
                cmd.timeout_ms) == ("tail", "q1", 3, 10, 500)
        assert classify("UNREGISTER CONTINUOUS QUERY q1").name == "q1"
        assert classify("begin transaction").kind == "noop"
        assert classify("SELECT 1 FROM s").kind == "sql"


# ---------------------------------------------------------------------
# server fixtures
# ---------------------------------------------------------------------


def _pg_engine():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT, name STRING, "
                   "ok BOOLEAN)")
    engine.register_continuous("SELECT k, v FROM s WHERE v > 0.5",
                               name="q")
    return engine


@pytest.fixture
def pg_server():
    server = PGWireServer(_pg_engine(), drive_scheduler=True)
    server.start()
    yield server
    server.stop()
    server.engine.close()


# ---------------------------------------------------------------------
# simple query protocol
# ---------------------------------------------------------------------


class TestSimpleQuery:
    def test_startup_handshake(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        assert client.params["server_encoding"] == "UTF8"
        assert client.params["integer_datetimes"] == "on"
        assert client.key is not None and client.key[1] > 0
        client.close()

    def test_ddl_insert_select_roundtrip(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        assert tags_of(client.query(
            "CREATE STREAM t2 (a INT, b STRING)")) == ["CREATE STREAM"]
        assert tags_of(client.query(
            "INSERT INTO t2 VALUES (1, 'x'), (2, NULL)")) \
            == ["INSERT 0 2"]
        msgs = client.query("SELECT a, b FROM t2")
        assert row_description(msgs) == [("a", 20, 0), ("b", 25, 0)]
        assert data_rows(msgs) == [("1", "x"), ("2", None)]
        assert tags_of(msgs) == ["SELECT 2"]
        client.close()

    def test_type_oids_and_text_format(self, pg_server):
        # a private stream: no standing query consumes it, so the
        # inserted tuples are still in the basket for the SELECT
        client = MiniPG(pg_server.host, pg_server.port)
        client.query("CREATE STREAM ty (k INT, v FLOAT, name STRING, "
                     "ok BOOLEAN)")
        client.query("INSERT INTO ty VALUES (7, 1.25, 'x', TRUE)")
        msgs = client.query("SELECT k, v, name, ok FROM ty")
        assert row_description(msgs) == [
            ("k", 20, 0), ("v", 701, 0), ("name", 25, 0),
            ("ok", 16, 0)]
        assert data_rows(msgs) == [("7", "1.25", "x", "t")]
        client.close()

    def test_multi_statement_query(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        msgs = client.query("CREATE STREAM m1 (a INT); "
                            "INSERT INTO m1 VALUES (5); "
                            "SELECT a FROM m1")
        assert tags_of(msgs) == ["CREATE STREAM", "INSERT 0 1",
                                 "SELECT 1"]
        client.close()

    def test_empty_query(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        msgs = client.query("   ")
        assert [t for t, _ in msgs] == [b"I", b"Z"]
        client.close()

    def test_errors_map_to_sqlstates(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        cases = [
            ("SELECT k FROM missing", "42P01"),
            ("SELEC k FROM s", "42601"),
            ("SELECT nope FROM s", "42703"),
            ("TAIL missing BATCHES 1", "55000"),
        ]
        for sql, state in cases:
            msgs = client.query(sql)
            assert [e[0] for e in errors_of(msgs)] == [state], sql
            assert msgs[-1][0] == b"Z"  # still ready after the error
        client.close()

    def test_error_aborts_statement_batch(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        msgs = client.query("CREATE STREAM ab1 (a INT); "
                            "SELECT a FROM missing; "
                            "CREATE STREAM ab2 (a INT)")
        assert tags_of(msgs) == ["CREATE STREAM"]
        assert len(errors_of(msgs)) == 1
        # the statement after the error did not run
        streams = {s.name for s in
                   pg_server.engine.catalog.streams()}
        assert "ab1" in streams and "ab2" not in streams
        client.close()

    def test_ssl_request_negotiated_away(self, pg_server):
        sock = socket.create_connection(
            (pg_server.host, pg_server.port), timeout=5)
        sock.sendall(I32.pack(8) + I32.pack(msg.SSL_REQUEST_CODE))
        assert sock.recv(1) == b"N"
        sock.close()


# ---------------------------------------------------------------------
# streaming dialect
# ---------------------------------------------------------------------


class TestDialect:
    def test_register_show_unregister(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        msgs = client.query("REGISTER CONTINUOUS q2 AS "
                            "SELECT k FROM s WHERE k > 0")
        assert tags_of(msgs) == ["REGISTER CONTINUOUS"]
        assert "q2" in [q.name for q in pg_server.engine.queries()]

        msgs = client.query("SHOW QUERIES")
        names = [r[0] for r in data_rows(msgs)]
        assert set(names) == {"q", "q2"}

        msgs = client.query("SHOW STREAMS")
        rows = data_rows(msgs)
        assert ("s" in [r[0] for r in rows])
        schema_of = {r[0]: r[1] for r in rows}
        assert schema_of["s"].startswith("k INT, v FLOAT")

        msgs = client.query("UNREGISTER CONTINUOUS q2")
        assert tags_of(msgs) == ["UNREGISTER CONTINUOUS"]
        assert "q2" not in [q.name for q in pg_server.engine.queries()]

        # a retired mode is an unknown word like any other
        msgs = client.query("REGISTER CONTINUOUS q3 MODE delta AS "
                            "SELECT k FROM s")
        (state, message), = errors_of(msgs)
        assert state == "55000"
        assert "unknown execution mode 'delta'" in message
        assert all(mode in message
                   for mode in ("auto", "reeval", "incremental"))
        assert "q3" not in [q.name for q in pg_server.engine.queries()]
        client.close()

    def test_query_registered_on_running_server_is_bounded(self):
        """A query registered over pg after start gets the server's
        CollectingSink bound, like the ones registered before it."""
        engine = _pg_engine()
        framed = DataCellServer(engine, collect_max_batches=3)
        framed.start()
        pg = PGWireServer(engine, drive_scheduler=False,
                          io_loop=framed.io)
        pg.start()
        try:
            client = MiniPG(pg.host, pg.port)
            client.query("REGISTER CONTINUOUS late AS "
                         "SELECT k FROM s WHERE k >= 0")
            factory = engine.continuous_query("late").factory
            for i in range(8):
                client.query(f"INSERT INTO s VALUES ({i}, 1.0, 'x', true)")
                assert _wait_until(lambda: factory.fires > i)
            client.close()
            sink = engine.results("late")
            assert len(sink.batches) <= 3
            assert sink.dropped_batches > 0
        finally:
            pg.stop()
            framed.stop()
            engine.close()

    def test_pg_server_alone_bounds_result_sinks(self, pg_server):
        from repro.core.emitter import SERVED_MAX_BATCHES

        client = MiniPG(pg_server.host, pg_server.port)
        client.query("REGISTER CONTINUOUS late AS SELECT k FROM s")
        client.close()
        engine = pg_server.engine
        assert engine.results("q").max_batches == SERVED_MAX_BATCHES
        assert engine.results("late").max_batches == SERVED_MAX_BATCHES

    def test_noops_keep_drivers_happy(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        assert tags_of(client.query("BEGIN")) == ["BEGIN"]
        assert tags_of(client.query("COMMIT")) == ["COMMIT"]
        assert tags_of(client.query(
            "SET client_encoding TO 'UTF8'")) == ["SET"]
        client.close()

    def test_tail_streams_live_batches(self, pg_server):
        engine = pg_server.engine
        result = {}

        def tail():
            client = MiniPG(pg_server.host, pg_server.port)
            msgs = client.query("TAIL q BATCHES 2 TIMEOUT 8000")
            result["desc"] = row_description(msgs)
            result["rows"] = data_rows(msgs)
            result["tags"] = tags_of(msgs)
            client.close()

        thread = threading.Thread(target=tail)
        thread.start()
        assert _wait_until(
            lambda: pg_server.pg_stats()["tails"] == 1)
        engine.feed("s", [(1, 1.5, "a", True)])
        assert _wait_until(lambda: engine.results("q").rows())
        engine.feed("s", [(2, 2.5, "b", False)])
        thread.join(10)
        assert not thread.is_alive()
        assert result["desc"] == [("k", 20, 0), ("v", 701, 0)]
        assert result["rows"] == [("1", "1.5"), ("2", "2.5")]
        assert result["tags"] == ["TAIL 2"]

    def test_tail_timeout_completes_empty(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        start = time.monotonic()
        msgs = client.query("TAIL q TIMEOUT 300")
        assert tags_of(msgs) == ["TAIL 0"]
        assert time.monotonic() - start < 5.0
        client.close()

    def test_tail_rows_byte_equal_to_framed_subscriber(self):
        """The acceptance bar: a psql tail and a framed-client
        subscriber see byte-identical row text for the same firings."""
        engine = _pg_engine()
        framed = DataCellServer(engine)
        framed.start()
        pg = PGWireServer(engine, drive_scheduler=False,
                          io_loop=framed.io)
        pg.start()
        try:
            sub = DataCellClient(port=framed.port)
            sub.subscribe("q")
            result = {}

            def tail():
                client = MiniPG(pg.host, pg.port)
                msgs = client.query("TAIL q BATCHES 2 TIMEOUT 8000")
                result["raw"] = data_rows(msgs, raw=True)
                client.close()

            thread = threading.Thread(target=tail)
            thread.start()
            assert _wait_until(lambda: pg.pg_stats()["tails"] == 1)
            engine.feed("s", [(1, 1.5, "a", True),
                              (2, 0.75, None, False)])
            assert _wait_until(lambda: engine.results("q").rows())
            engine.feed("s", [(3, 2.5, "c", True)])
            thread.join(10)
            batches = sub.results(max_batches=2, timeout=5.0)
            framed_rows = [row for b in batches for row in b.rows]
            expected = [tuple(msg.text_of(v) for v in row)
                        for row in framed_rows]
            assert result["raw"] == expected
            assert len(result["raw"]) == 3
            sub.close()
        finally:
            pg.stop()
            framed.stop()
            engine.close()


# ---------------------------------------------------------------------
# extended query protocol (the pg8000 path)
# ---------------------------------------------------------------------


class TestExtendedQuery:
    def test_parse_describe_bind_execute(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.query("CREATE STREAM e1 (k INT, v FLOAT); "
                     "INSERT INTO e1 VALUES (5, 2.0)")
        # round 1: Parse + Describe(statement) + Sync (pg8000 shape)
        client.parse("SELECT k, v FROM e1")
        client.describe(b"S")
        msgs = client.sync()
        assert [t for t, _ in msgs] == [b"1", b"t", b"T", b"Z"]
        assert row_description(msgs) == [("k", 20, 0), ("v", 701, 0)]
        # round 2: Bind + Execute + Sync
        client.bind()
        client.execute()
        msgs = client.sync()
        assert [t for t, _ in msgs] == [b"2", b"D", b"C", b"Z"]
        assert data_rows(msgs) == [("5", "2.0")]
        client.close()

    def test_describe_nondata_statement_is_nodata(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.parse("INSERT INTO s VALUES (6, 3.0, 'f', FALSE)")
        client.describe(b"S")
        msgs = client.sync()
        assert [t for t, _ in msgs] == [b"1", b"t", b"n", b"Z"]
        client.bind()
        client.execute()
        msgs = client.sync()
        assert tags_of(msgs) == ["INSERT 0 1"]
        client.close()

    def test_binary_result_format_rejected(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.parse("SELECT k FROM s")
        client.bind(result_formats=(1,))
        msgs = client.sync()
        assert [e[0] for e in errors_of(msgs)] == ["0A000"]
        client.close()

    def test_error_recovery_skips_until_sync(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.parse("SELEC oops")      # syntax error at Parse
        client.describe(b"S")           # must be skipped
        client.execute()                # must be skipped
        msgs = client.sync()
        assert [e[0] for e in errors_of(msgs)] == ["42601"]
        assert [t for t, _ in msgs] == [b"E", b"Z"]
        # service resumes after Sync
        client.parse("SELECT k FROM s")
        client.bind()
        client.execute()
        msgs = client.sync()
        assert tags_of(msgs)[0].startswith("SELECT")
        client.close()

    def test_unknown_portal_and_statement(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.describe(b"S", b"nope")
        msgs = client.sync()
        assert [e[0] for e in errors_of(msgs)] == ["26000"]
        client.execute(b"nope")
        msgs = client.sync()
        assert [e[0] for e in errors_of(msgs)] == ["34000"]
        client.close()


# ---------------------------------------------------------------------
# cancel
# ---------------------------------------------------------------------


class TestCancel:
    def test_cancel_request_interrupts_tail(self, pg_server):
        result = {}
        keys = {}
        ready = threading.Event()

        def tail():
            client = MiniPG(pg_server.host, pg_server.port)
            keys["key"] = client.key
            ready.set()
            msgs = client.query("TAIL q")  # unbounded
            result["errors"] = errors_of(msgs)
            client.close()

        thread = threading.Thread(target=tail)
        thread.start()
        assert ready.wait(5)
        assert _wait_until(
            lambda: pg_server.pg_stats()["tails"] == 1)
        cancel_request(pg_server.host, pg_server.port, keys["key"])
        thread.join(10)
        assert not thread.is_alive()
        assert [e[0] for e in result["errors"]] == ["57014"]
        assert pg_server.pg_stats()["cancels"] == 1

    def test_unknown_cancel_key_ignored(self, pg_server):
        cancel_request(pg_server.host, pg_server.port, (999, 999))
        client = MiniPG(pg_server.host, pg_server.port)
        assert tags_of(client.query("BEGIN")) == ["BEGIN"]
        client.close()


# ---------------------------------------------------------------------
# stats / monitor / serve CLI
# ---------------------------------------------------------------------


class TestStatsAndCLI:
    def test_pg_stats_in_network_stats(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.query("SELECT k FROM s")
        stats = pg_server.engine.network_stats()
        assert stats["pg"]["connections_total"] == 1
        assert stats["pg"]["queries"] == 1
        assert stats["pg"]["sessions"][0]["user"] == "tester"
        client.close()

    def test_monitor_pg_pane(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.query("SELECT k FROM s")
        pane = pg_server.engine.monitor.pg()
        assert "postgres front end [running]" in pane
        assert "user=tester" in pane
        client.close()

    def test_monitor_pg_pane_unattached(self):
        engine = DataCellEngine()
        assert "not attached" in engine.monitor.pg()
        engine.close()

    def test_session_teardown_folds_into_stats(self, pg_server):
        client = MiniPG(pg_server.host, pg_server.port)
        client.query("SELECT k FROM s")
        client.close()
        assert _wait_until(
            lambda: not pg_server.pg_stats()["sessions"])
        stats = pg_server.pg_stats()
        assert stats["connections_total"] == 1
        # counters from the closed session are folded into aggregates
        assert stats["queries"] == 1

    def test_serve_cli_with_pg_port(self, tmp_path):
        from repro.net.cli import main as net_main

        script = tmp_path / "init.sql"
        script.write_text("CREATE STREAM s (k INT, v FLOAT);\n"
                          ".register q SELECT k FROM s;\n")
        port_file = tmp_path / "port"
        pg_port_file = tmp_path / "pg_port"
        out = io.StringIO()
        thread = threading.Thread(target=net_main, args=(
            ["serve", "--port", "0", "--pg-port", "0",
             "--script", str(script),
             "--port-file", str(port_file),
             "--pg-port-file", str(pg_port_file),
             "--duration", "3.0"], out))
        thread.start()
        try:
            assert _wait_until(
                lambda: pg_port_file.exists()
                and pg_port_file.read_text(), timeout_s=10)
            pg_port = int(pg_port_file.read_text())
            client = MiniPG("127.0.0.1", pg_port)
            msgs = client.query("SHOW STREAMS")
            assert [r[0] for r in data_rows(msgs)] == ["s"]
            msgs = client.query("INSERT INTO s VALUES (1, 2.0)")
            assert tags_of(msgs) == ["INSERT 0 1"]
            client.close()
        finally:
            thread.join(15)
        assert not thread.is_alive()
        assert "postgres front end listening" in out.getvalue()
        assert "queries=2" in out.getvalue()


# ---------------------------------------------------------------------
# pg8000 end-to-end (runs only when pg8000 is installed)
# ---------------------------------------------------------------------


class TestPG8000:
    def test_pg8000_end_to_end(self):
        pg8000 = pytest.importorskip(
            "pg8000.dbapi",
            reason="pg8000 not installed (pip install pg8000 or the "
                   "[test] extra)")
        engine = DataCellEngine(clock=WallClock())
        with PGWireServer(engine, drive_scheduler=True) as server:
            conn = pg8000.connect(user="tester", host=server.host,
                                  port=server.port, database="dc")
            try:
                conn.autocommit = True
            except (AttributeError, pg8000.InterfaceError):
                pass
            cur = conn.cursor()
            cur.execute("CREATE STREAM s8 (k INT, v FLOAT, "
                        "name STRING)")
            cur.execute("INSERT INTO s8 VALUES (1, 0.5, 'a'), "
                        "(2, 1.5, NULL)")
            cur.execute("SELECT k, v, name FROM s8")
            assert [list(r) for r in cur.fetchall()] \
                == [[1, 0.5, "a"], [2, 1.5, None]]
            cur.execute("REGISTER CONTINUOUS q8 AS "
                        "SELECT k, v FROM s8 WHERE v > 1.0")

            feeder_stop = threading.Event()

            def feed():
                k = 10
                while not feeder_stop.is_set():
                    engine.feed("s8", [(k, 2.0 + k, "z")])
                    k += 1
                    time.sleep(0.05)

            feeder = threading.Thread(target=feed)
            feeder.start()
            try:
                cur.execute("TAIL q8 BATCHES 2 TIMEOUT 10000")
                rows = cur.fetchall()
            finally:
                feeder_stop.set()
                feeder.join(5)
            assert len(rows) >= 2
            assert all(float(v) > 1.0 for _, v in rows)
            conn.close()
        engine.close()

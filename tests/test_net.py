"""Tests for the network edge: wire protocol, socket receptors,
queued emitters, the DataCell server/client pair, and the CLI trio."""

import io
import os
import socket
import threading
import time

import pytest

from repro.core.clock import WallClock
from repro.core.emitter import QueueSink
from repro.core.engine import DataCellEngine
from repro.core.receptor import SocketReceptor
from repro.errors import NetError, StoreError, StreamError
from repro.mal.relation import Relation
from repro.net import protocol
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.storage import Schema
from repro.store import CRASH_ENV, FaultInjector, StreamLog
from repro.streams.source import ListSource

# ---------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------


class TestProtocol:
    def test_json_roundtrip(self):
        message = protocol.ingest("s", [[1, 2.5, "x", None]], seq=7)
        frame = protocol.encode_frame(message, protocol.JSONCodec)
        header, payload = frame[:protocol.HEADER.size], \
            frame[protocol.HEADER.size:]
        assert protocol.decode_frame(header, payload) == message

    def test_numpy_scalars_serialize(self):
        import numpy as np

        frame = protocol.encode_frame(
            protocol.ok(count=np.int64(3), ratio=np.float64(0.5)))
        message = protocol.decode_frame(
            frame[:protocol.HEADER.size], frame[protocol.HEADER.size:])
        assert message["count"] == 3

    def test_unknown_codec_falls_back_to_json(self):
        assert protocol.get_codec("nope") is protocol.JSONCodec
        assert protocol.get_codec("JSON") is protocol.JSONCodec

    def test_unknown_codec_id_rejected(self):
        header = protocol.HEADER.pack(2, 99)
        with pytest.raises(NetError) as exc:
            protocol.decode_frame(header, b"{}")
        assert exc.value.code == "bad_frame"

    def test_untyped_payload_rejected(self):
        frame = protocol.encode_frame({"type": "ok"})
        with pytest.raises(NetError):
            protocol.decode_frame(protocol.HEADER.pack(2, 0), b"[]")
        assert frame  # typed payload was fine

    def test_frame_stream_roundtrip_and_eof(self):
        a, b = socket.socketpair()
        sa, sb = protocol.FrameStream(a), protocol.FrameStream(b)
        sa.send(protocol.hello())
        sa.send(protocol.stats({"x": 1}))
        assert sb.recv()["type"] == "hello"
        assert sb.recv()["payload"] == {"x": 1}
        sa.close()
        assert sb.recv() is None  # clean EOF
        sb.close()


# ---------------------------------------------------------------------
# socket receptor (admission control)
# ---------------------------------------------------------------------


@pytest.fixture
def basket():
    from repro.core.basket import Basket

    return Basket("s", Schema.parse([("k", "INT")]))


class TestSocketReceptor:
    def test_offer_then_pump(self, basket):
        receptor = SocketReceptor("r", basket, max_pending=4)
        assert receptor.offer([(1,), (2,)]) == 2
        assert receptor.pending_batches() == 1
        assert len(basket) == 0
        assert receptor.pump(now=5) == 2
        assert len(basket) == 2
        assert receptor.total_ingested == 2
        assert basket.arrival_slice(0, 2)[0].tolist() == [5, 5]

    def test_shed_policy_counts(self, basket):
        receptor = SocketReceptor("r", basket, max_pending=2,
                                  policy="shed")
        assert receptor.offer([(1,)]) == 1
        assert receptor.offer([(2,)]) == 1
        assert receptor.offer([(3,), (4,)]) == 0  # queue full -> shed
        assert receptor.total_shed == 2
        assert receptor.pump(0) == 2  # shed rows never reach the basket

    def test_block_policy_waits_for_pump(self, basket):
        receptor = SocketReceptor("r", basket, max_pending=1,
                                  policy="block", block_timeout_s=5.0)
        receptor.offer([(1,)])
        done = threading.Event()

        def offer_second():
            receptor.offer([(2,)])
            done.set()

        thread = threading.Thread(target=offer_second, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not done.is_set()  # producer is blocked
        assert receptor.total_blocked == 1
        receptor.pump(0)  # scheduler drains -> unblocks the producer
        assert done.wait(2.0)
        receptor.pump(0)
        assert len(basket) == 2

    def test_block_policy_timeout_raises(self, basket):
        receptor = SocketReceptor("r", basket, max_pending=1,
                                  policy="block", block_timeout_s=0.05)
        receptor.offer([(1,)])
        with pytest.raises(StreamError):
            receptor.offer([(2,)])

    def test_close_then_drain_marks_exhausted(self, basket):
        receptor = SocketReceptor("r", basket)
        receptor.offer([(1,)])
        receptor.close()
        assert not receptor.exhausted  # still has a queued batch
        receptor.pump(0)
        assert receptor.exhausted
        with pytest.raises(StreamError):
            receptor.offer([(2,)])

    def test_paused_offer_raises_and_pump_noop(self, basket):
        receptor = SocketReceptor("r", basket)
        receptor.offer([(1,)])
        receptor.pause()
        with pytest.raises(StreamError):
            receptor.offer([(2,)])
        assert receptor.pump(0) == 0  # batch stays queued
        receptor.resume()
        assert receptor.pump(0) == 1

    def test_bad_policy_rejected(self, basket):
        with pytest.raises(StreamError):
            SocketReceptor("r", basket, policy="drop-everything")

    def test_offer_signals_wake_after_enqueue(self, basket):
        seen = []
        receptor = SocketReceptor(
            "r", basket, max_pending=1, policy="shed",
            wake=lambda: seen.append(receptor.pending_batches()))
        receptor.offer([(1,)])
        assert seen == [1]  # the batch was visible when the wake fired
        receptor.offer([(2,)])  # shed: nothing to wake for
        assert seen == [1]

    def test_pump_bounded_by_batches_queued_at_entry(self, basket):
        """A producer thread that refills the queue for every batch
        the pump takes, forever, cannot keep one pump() from
        returning (PR 12's unbounded-step defect)."""
        receptor = SocketReceptor("r", basket, max_pending=4)
        for i in range(3):
            receptor.offer([(i,)])
        taken = threading.Semaphore(0)
        refilled = threading.Semaphore(0)
        stop = threading.Event()

        def producer():
            while True:
                taken.acquire()
                if stop.is_set():
                    return
                receptor.offer([(99,)])
                refilled.release()

        append = basket.append_rows

        def append_then_let_producer_refill(rows, now):
            n = append(rows, now)
            taken.release()
            refilled.acquire(timeout=2.0)
            return n

        basket.append_rows = append_then_let_producer_refill
        pumped = []
        threading.Thread(target=producer, daemon=True).start()
        pumper = threading.Thread(
            target=lambda: pumped.append(receptor.pump(0)), daemon=True)
        pumper.start()
        pumper.join(5.0)
        returned = not pumper.is_alive()
        stop.set()
        taken.release()
        pumper.join(10.0)
        assert returned
        assert pumped == [3]
        assert receptor.pending_batches() == 3  # the refills wait a step


# ---------------------------------------------------------------------
# queue sink (per-client delivery)
# ---------------------------------------------------------------------


def _rel(values):
    return Relation.from_rows(Schema.parse([("x", "INT")]),
                              [(v,) for v in values])


class TestQueueSink:
    """A query's one result queue, read through follower cursors."""

    def test_in_order_delivery(self):
        queue = QueueSink("q", max_batches=8)
        follower = queue.follow(lambda: None)
        queue.deliver(_rel([1]), now=5)
        queue.deliver(_rel([2, 3]), now=9)
        seq0, t0, rel0 = follower.next()
        seq1, t1, rel1 = follower.next()
        assert (seq0, t0, rel0.to_rows()) == (0, 5, [(1,)])
        assert (seq1, t1, rel1.to_rows()) == (1, 9, [(2,), (3,)])
        assert follower.next() is None
        assert queue.delivered_rows == 3

    def test_slow_consumer_evicted(self):
        queue = QueueSink("q", max_batches=2)
        slow = queue.follow(lambda: None)
        fast = queue.follow(lambda: None)
        queue.deliver(_rel([1]), 0)
        queue.deliver(_rel([2]), 0)
        assert queue.depth() == 2 and not slow.evicted
        assert [fast.next()[0], fast.next()[0]] == [0, 1]
        queue.deliver(_rel([3]), 0)  # trims offset 0 past `slow`
        assert slow.evicted and not fast.evicted
        assert queue.depth() == 1  # evicted readers no longer count
        queue.deliver(_rel([4]), 0)
        # the evicted reader still flushes the max_batches batches it
        # had not read, then stops
        assert [slow.next()[2].to_rows() for _ in range(2)] \
            == [[(1,)], [(2,)]]
        assert slow.next() is None and slow.lag() == 0
        assert [fast.next()[0], fast.next()[0]] == [2, 3]

    def test_offsets_survive_trimming_and_clear(self):
        queue = QueueSink("q", max_batches=2)
        follower = queue.follow(lambda: None)
        for i in range(3):
            queue.deliver(_rel([i]), now=i)
        assert follower.evicted  # offset 0 was trimmed under it
        assert (queue.first, queue.delivered_batches) == (1, 3)
        assert queue.get_nowait(0) is None  # below the floor
        assert queue.get_nowait(2)[0] == 2
        late = queue.follow(lambda: None)
        queue.clear()
        assert len(queue) == 0 and queue.first == 3
        assert not late.evicted  # it was at the head
        queue.deliver(_rel([9]), now=9)
        assert late.next()[0] == 3  # numbering carries on

    def test_concurrent_readers_see_each_offset_once_in_order(self):
        """A delivering thread and more readers than cores: every
        reader sees a gap-free, duplicate-free run of offsets from 0,
        each with its own batch — to the head, or until it is evicted
        and has flushed its backlog."""
        import sys

        n = 3000
        queue = QueueSink("q", max_batches=8)
        readers = [queue.follow(lambda: None) for _ in range(4)]
        seen = [[] for _ in readers]
        delivered = threading.Event()

        def read(follower, out):
            while True:
                item = follower.next()
                if item is not None:
                    out.append((item[0], item[2].to_rows()))
                elif follower.evicted or (delivered.is_set()
                                          and follower.lag() == 0):
                    return

        threads = [threading.Thread(target=read, args=(f, out))
                   for f, out in zip(readers, seen)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for k in range(n):
                queue.deliver(_rel([k]), now=k)
            delivered.set()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for follower, out in zip(readers, seen):
            assert out == [(k, [(k,)]) for k in range(len(out))]
            assert follower.evicted or len(out) == n


# ---------------------------------------------------------------------
# server / client loopback
# ---------------------------------------------------------------------


ROWS = [(i, float(i % 3) / 2) for i in range(60)]  # v in {0, .5, 1.0}
FILTER_SQL = "SELECT k, v FROM s WHERE v > 0.5"
WINDOW_SQL = "SELECT count(*) FROM s [RANGE 10]"


def _server_engine():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.execute("CREATE STREAM t (k INT, v FLOAT)")
    engine.register_continuous(FILTER_SQL, name="q")
    engine.register_continuous(WINDOW_SQL, name="w",
                               mode="incremental")
    engine.register_continuous("SELECT k FROM t", name="qt")
    return engine


@pytest.fixture
def server():
    server = DataCellServer(_server_engine())
    server.start()
    yield server
    server.stop()
    server.engine.close()


def _expected_inprocess():
    """The same source through the in-process CollectingSink path."""
    engine = DataCellEngine()
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.register_continuous(FILTER_SQL, name="q")
    engine.register_continuous(WINDOW_SQL, name="w",
                               mode="incremental")
    engine.attach_source("s", ListSource(
        [(i, row) for i, row in enumerate(ROWS)]))
    engine.run_until_drained()
    return engine.results("q").rows(), engine.results("w").rows()


def _rows_by_query(batches):
    out = {}
    for batch in batches:
        out.setdefault(batch.query, []).extend(batch.rows)
    return out


class TestServer:
    def test_hello_reports_streams_and_queries(self, server):
        with DataCellClient(port=server.port) as client:
            info = client.server_info
            assert set(info["streams"]) >= {"s", "t"}
            assert set(info["queries"]) == {"q", "w", "qt"}
            assert info["codec"] == "json"

    def test_stats_frame(self, server):
        with DataCellClient(port=server.port) as client:
            stats = client.stats()
            assert "net" in stats and "baskets" in stats
            assert stats["net"]["running"] is True

    def test_ingest_unknown_stream(self, server):
        with DataCellClient(port=server.port) as client:
            with pytest.raises(NetError) as exc:
                client.ingest("nope", [[1, 2.0]])
            assert exc.value.code == "no_stream"

    def test_subscribe_unknown_query(self, server):
        with DataCellClient(port=server.port) as client:
            with pytest.raises(NetError) as exc:
                client.subscribe("nope")
            assert exc.value.code == "no_query"

    def test_mistyped_row_is_refused_and_the_loop_lives_on(self, server):
        with DataCellClient(port=server.port) as client:
            client.subscribe("q")
            with pytest.raises(NetError) as exc:
                client.ingest("s", [[1, 1.0], ["x", 2.0]])
            assert exc.value.code == "bad_row"
            assert "column 'k'" in str(exc.value)
            with pytest.raises(NetError) as exc:
                client.ingest("s", [[1, 1.0, 3]])
            assert exc.value.code == "bad_row"
            assert client.ingest("s", [[7, 2.0]]) == 1
            batches = client.results(max_batches=1, timeout=5.0)
            assert [b.rows for b in batches] == [[(7, 2.0)]]
            stats = client.stats()
            assert stats["net"]["running"] is True
            assert stats["baskets"]["s"]["total_in"] == 1

    def test_duplicate_subscribe_rejected(self, server):
        with DataCellClient(port=server.port) as client:
            client.subscribe("q")
            with pytest.raises(NetError) as exc:
                client.subscribe("q")
            assert exc.value.code == "duplicate"

    def test_loopback_equivalence_three_clients(self):
        """Acceptance: the same source through a SocketReceptor, with 3
        subscribed framed clients and a pg ``TAIL`` following one
        query's result queue, is row-identical per reader to the
        in-process run."""
        from repro.pg import messages as msg
        from tests.test_pg import MiniPG, _typed, _wait_until, data_rows

        expected_q, expected_w = _expected_inprocess()
        total = len(expected_q) + len(expected_w)
        engine = _server_engine()
        server = DataCellServer(engine, pg_port=0).start()
        subscribers = [DataCellClient(port=server.port)
                       for _ in range(3)]
        tail = MiniPG(server.pg_host, server.pg_port)
        try:
            for sub in subscribers:
                assert sub.subscribe("q") == ["k", "v"]
                sub.subscribe("w")
            tail.send(_typed(b"Q", f"TAIL q ROWS {len(expected_q)} "
                                   f"TIMEOUT 15000\x00".encode()))
            assert _wait_until(lambda: server.pg.pg_stats()["tails"] == 1)
            with DataCellClient(port=server.port) as producer:
                for i in range(0, len(ROWS), 7):  # uneven batches
                    producer.ingest("s", ROWS[i:i + 7], seq=i)
            for sub in subscribers:
                got = _rows_by_query(
                    sub.results(max_rows=total, timeout=15.0))
                assert got.get("q", []) == expected_q
                assert got.get("w", []) == expected_w
            assert data_rows(tail.read_until(b"Z"), raw=True) == [
                tuple(msg.text_of(v) for v in row) for row in expected_q]
            assert len(engine.results("q")) <= server.max_client_queue
        finally:
            for sub in subscribers:
                sub.close()
            tail.close()
            server.stop()
            engine.close()

    def test_two_streams_two_clients_smoke(self, server):
        """CI smoke: two producers on two streams, two subscribers."""
        sub_q = DataCellClient(port=server.port)
        sub_t = DataCellClient(port=server.port)
        try:
            sub_q.subscribe("q")
            sub_t.subscribe("qt")
            with DataCellClient(port=server.port) as p1, \
                    DataCellClient(port=server.port) as p2:
                p1.ingest("s", [[i, 1.0] for i in range(10)])
                p2.ingest("t", [[i, 0.0] for i in range(5)])
            rows_q = [r for b in sub_q.results(max_rows=10,
                                               timeout=10.0)
                      for r in b.rows]
            rows_t = [r for b in sub_t.results(max_rows=5,
                                               timeout=10.0)
                      for r in b.rows]
            assert rows_q == [(i, 1.0) for i in range(10)]
            assert rows_t == [(i,) for i in range(5)]
        finally:
            sub_q.close()
            sub_t.close()

    def test_backpressure_shed(self):
        """Acceptance: a producer faster than the scheduler hits the
        bounded admission queue and receives a shed ERROR frame, with
        the shed count visible in network_stats() and the .net pane."""
        engine = _server_engine()
        server = DataCellServer(engine, admission="shed",
                                max_pending_batches=2)
        server.start()
        # stall the scheduler loop (paused nets still pump receptors,
        # so pausing no longer models a scheduler that can't drain)
        real_step = engine.scheduler.step
        engine.scheduler.step = \
            lambda: {"ingested": 0, "fired": 0, "dropped": 0}
        try:
            with DataCellClient(port=server.port) as producer:
                shed = 0
                for i in range(5):
                    try:
                        producer.ingest("s", [[i, 1.0]] * 3)
                    except NetError as exc:
                        assert exc.code == "shed"
                        shed += 1
                assert shed == 3  # queue holds 2 batches, rest shed
                stats = producer.stats()
                assert stats["net"]["totals"]["shed"] == 9
            pane = engine.monitor.net()
            assert "shed=9" in pane
            engine.scheduler.step = real_step
        finally:
            engine.scheduler.step = real_step
            server.stop()
            engine.close()

    def test_backpressure_block(self):
        """Acceptance (block policy): the producer blocks on a full
        admission queue until the scheduler drains; the wait shows up
        in the blocked counter."""
        engine = _server_engine()
        server = DataCellServer(engine, admission="block",
                                max_pending_batches=1,
                                block_timeout_s=10.0)
        server.start()
        # stall the scheduler loop (paused nets still pump receptors,
        # so pausing no longer models a scheduler that can't drain)
        real_step = engine.scheduler.step
        engine.scheduler.step = \
            lambda: {"ingested": 0, "fired": 0, "dropped": 0}
        try:
            producer = DataCellClient(port=server.port, timeout_s=10.0)
            watcher = DataCellClient(port=server.port)
            producer.ingest("s", [[0, 1.0]])  # fills the queue
            unblocked = threading.Event()

            def blocked_ingest():
                producer.ingest("s", [[1, 1.0]])
                unblocked.set()

            thread = threading.Thread(target=blocked_ingest,
                                      daemon=True)
            thread.start()
            time.sleep(0.3)
            assert not unblocked.is_set()  # producer is stuck
            assert watcher.stats()["net"]["totals"]["blocked"] >= 1
            engine.scheduler.step = real_step  # drain -> unblock
            assert unblocked.wait(5.0)
            assert "blocked=" in engine.monitor.net()
            producer.close()
            watcher.close()
        finally:
            engine.scheduler.step = real_step
            server.stop()
            engine.close()

    def test_stop_flushes_pending_deliveries(self):
        engine = _server_engine()
        server = DataCellServer(engine)
        server.start()
        subscriber = DataCellClient(port=server.port)
        try:
            subscriber.subscribe("q")
            with DataCellClient(port=server.port) as producer:
                producer.ingest("s", [[i, 1.0] for i in range(20)])
            server.stop()  # orderly: drain net, flush subscribers
            rows = [r for b in subscriber.results(max_rows=20,
                                                  timeout=5.0)
                    for r in b.rows]
            assert rows == [(i, 1.0) for i in range(20)]
        finally:
            subscriber.close()
            server.stop()
            engine.close()

    def test_server_requires_wall_clock(self):
        with pytest.raises(StreamError):
            DataCellServer(DataCellEngine())  # simulated clock

    def test_server_bounds_collecting_sinks(self):
        """Every result queue keeps max_client_queue batches: queries
        registered before start and after it."""
        engine = _server_engine()
        server = DataCellServer(engine, max_client_queue=5)
        server.start()
        try:
            server.submit(engine.register_continuous, "SELECT k FROM s",
                          "late").result(5)
            assert [engine.results(q.name).max_batches
                    for q in engine.queries()] == [5, 5, 5, 5]
        finally:
            server.stop()
            engine.close()

    def test_departed_producer_receptor_reaped(self, server):
        with DataCellClient(port=server.port) as producer:
            producer.ingest("s", [[1, 1.0]])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            # folds once closed *and* drained
            server.submit(server._reap_receptors).result(5)
            if not any(isinstance(r, SocketReceptor)
                       for r in server.engine.scheduler.receptors):
                break
            time.sleep(0.02)
        assert not any(isinstance(r, SocketReceptor)
                       for r in server.engine.scheduler.receptors)
        # the ingested row survives in the server's totals
        assert server.net_stats()["totals"]["ingested"] == 1

    def test_monitor_net_pane_unattached(self):
        engine = DataCellEngine()
        assert "not attached" in engine.monitor.net()


# ---------------------------------------------------------------------
# CLI trio
# ---------------------------------------------------------------------


class TestNetCLI:
    def test_serve_send_tail_roundtrip(self, tmp_path):
        from repro.cli import main as repro_main

        script = tmp_path / "init.sql"
        script.write_text(
            "CREATE STREAM sensors (sid INT, temp FLOAT);\n"
            ".register hot SELECT sid, temp FROM sensors "
            "WHERE temp > 25.0;\n")
        rows = tmp_path / "rows.txt"
        rows.write_text("1, 20.0\n2, 30.0\n3, 31.5\n# comment\n")
        port_file = tmp_path / "port"

        serve_out = io.StringIO()
        serve_rc = []

        def run_serve():
            from repro.net.cli import main as net_main

            serve_rc.append(net_main(
                ["serve", "--port", "0", "--script", str(script),
                 "--duration", "8", "--port-file", str(port_file)],
                out=serve_out))

        serve_thread = threading.Thread(target=run_serve, daemon=True)
        serve_thread.start()
        deadline = time.monotonic() + 5.0
        while not os.path.exists(port_file) \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        port = port_file.read_text().strip()

        tail_out = io.StringIO()
        tail_rc = []

        def run_tail():
            from repro.net.cli import main as net_main

            tail_rc.append(net_main(
                ["tail", "hot", "--port", port, "--count", "1",
                 "--timeout", "6"], out=tail_out))

        tail_thread = threading.Thread(target=run_tail, daemon=True)
        tail_thread.start()
        deadline = time.monotonic() + 5.0
        while "subscribed" not in tail_out.getvalue() \
                and time.monotonic() < deadline:
            time.sleep(0.02)

        # dispatch through the top-level `repro` entry point
        assert repro_main(["send", "sensors", "--port", port,
                           "--file", str(rows)]) == 0
        tail_thread.join(10.0)
        serve_thread.join(12.0)
        assert tail_rc == [0]
        assert serve_rc == [0]
        output = tail_out.getvalue()
        assert "subscribed to 'hot'" in output
        assert "30.0" in output and "31.5" in output
        assert "20.0" not in output.replace("-- t=", "")

# ---------------------------------------------------------------------
# teardown of abruptly dropped query subscribers
# ---------------------------------------------------------------------


class TestTeardownLeaks:
    def test_abrupt_subscriber_drop_detaches_and_folds(self, server):
        """A query subscriber whose socket vanishes without an
        UNSUBSCRIBE must have its pump task joined, its follower
        detached from the query's result queue and its delivery
        counters folded into the server totals."""
        queue = server.engine.results("q")
        client = DataCellClient(port=server.port)
        client.subscribe("q")
        assert len(queue._followers) == 1
        with DataCellClient(port=server.port) as producer:
            producer.ingest("s", [list(r) for r in ROWS])
        batches = client.results(max_batches=1, timeout=5.0)
        assert batches
        # abrupt drop: close the raw socket, no goodbye frame
        client._stream.sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline \
                and server._snapshot_conns():
            time.sleep(0.02)
        assert server._snapshot_conns() == []
        assert queue._followers == ()
        totals = server.net_stats()["totals"]
        assert totals["delivered_batches"] >= len(batches)
        assert totals["delivered_rows"] >= \
            sum(b.row_count for b in batches)


# ---------------------------------------------------------------------
# a failed log write: recorded on the log, the serving loop stays up
# ---------------------------------------------------------------------


class TestFailedLogWrite:
    def test_queued_batches_are_shed_once_the_log_failed(
            self, basket, tmp_path):
        log = StreamLog(str(tmp_path / "s"), "s", basket.schema,
                        fault=FaultInjector(8))
        basket.attach_log(log)
        receptor = SocketReceptor("r", basket)
        assert receptor.offer([[1], [2]]) == 2  # queued, not pumped
        basket.append_rows([[0]], now=0)
        log.commit()  # the write fails: recorded, not raised
        assert log.failed is not None
        assert receptor.pump(0) == 0
        assert receptor.total_shed == 2 and receptor.pending_batches() == 0
        with pytest.raises(StoreError, match="stream log 's' failed"):
            receptor.offer([[3]])
        log.close()

    def test_served_engine_keeps_serving_after_a_failed_write(
            self, tmp_path, monkeypatch):
        from tests.test_pg import MiniPG, errors_of

        monkeypatch.setenv(CRASH_ENV, "4000")
        engine = DataCellEngine(clock=WallClock(), data_dir=str(tmp_path))
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        server = DataCellServer(engine, pg_port=0)
        server.start()
        try:
            with DataCellClient(port=server.port) as client:
                rows = [[i, float(i)] for i in range(64)]
                refused = None
                for _ in range(200):
                    try:
                        client.ingest("s", rows)
                    except NetError as exc:
                        refused = exc
                        break
                    time.sleep(0.005)
                assert refused is not None
                assert refused.code == "io"
                assert "stream log 's' failed" in str(refused)
                # the loop is alive: STATS answers and shows the failure
                stats = client.stats()
                assert "injected crash" in \
                    stats["log"]["streams"]["s"]["failed"]
                with pytest.raises(NetError, match="stream log 's'"):
                    client.ingest("s", rows)
            pg = MiniPG(server.pg_host, server.pg_port)
            try:
                errors = errors_of(
                    pg.query("INSERT INTO s VALUES (1, 1.0)"))
                assert errors and errors[0][0] == "55000"
                assert "stream log 's' failed" in errors[0][1]
                assert errors_of(pg.query("SHOW STREAMS")) == []
            finally:
                pg.close()
        finally:
            server.stop()
            engine.close()


    def test_delivery_failure_does_not_kill_the_serving_loop(
            self, tmp_path):
        engine = DataCellEngine(clock=WallClock(), data_dir=str(tmp_path))
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous("SELECT k, v FROM s WHERE v > 0",
                                   name="up", output_stream="hot")
        engine.basket("hot").log.failed = OSError("injected")
        server = DataCellServer(engine).start()
        try:
            with DataCellClient(port=server.port) as client:
                client.ingest("s", [[1, 1.0]])
                factory = engine.continuous_query("up").factory
                deadline = time.monotonic() + 5.0
                while factory.state != "failed" \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                stats = client.stats()  # the loop still answers
                assert stats["factories"]["up"]["state"] == "failed"
                assert any("stream log 'hot' failed" in e
                           for e in stats["failed"])
        finally:
            server.stop()
            engine.close()


# ---------------------------------------------------------------------
# slow consumers over real sockets
# ---------------------------------------------------------------------

PAD = "x" * 1000
SLOW_BATCHES = 150
SLOW_BATCH_ROWS = 32


def _wide_engine():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, pad STRING)")
    engine.register_continuous("SELECT k, pad FROM s", name="wide")
    return engine


def _stalled_socket(port):
    """A connected socket whose receive buffer is tiny, so a peer that
    stops reading it backs the server up within a few frames."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10.0)
    sock.connect(("127.0.0.1", port))
    return sock


def _ingest_one_fire_each(server, producer, query):
    """SLOW_BATCHES wide batches, each its own firing (one result batch
    per ingest); returns the rows sent."""
    factory = server.engine.continuous_query(query).factory
    sent = []
    for b in range(SLOW_BATCHES):
        rows = [[b * SLOW_BATCH_ROWS + i, PAD]
                for i in range(SLOW_BATCH_ROWS)]
        fires = factory.fires
        producer.ingest("s", rows)
        deadline = time.monotonic() + 5.0
        while factory.fires == fires and time.monotonic() < deadline:
            time.sleep(0.001)
        sent.extend(tuple(r) for r in rows)
    return sent


class TestSlowConsumer:
    def test_subscriber_that_stops_reading_is_evicted_after_its_backlog(
            self):
        engine = _wide_engine()
        server = DataCellServer(engine, max_client_queue=4).start()
        stalled = protocol.FrameStream(_stalled_socket(server.port))
        reader = DataCellClient(port=server.port)
        try:
            stalled.send(protocol.hello(client="stalled"))
            assert stalled.recv()["type"] == protocol.OK
            stalled.send(protocol.subscribe("wide"))
            assert stalled.recv()["type"] == protocol.OK
            reader.subscribe("wide")
            got = []
            reading = threading.Thread(target=lambda: got.extend(
                r for b in reader.results(
                    max_rows=SLOW_BATCHES * SLOW_BATCH_ROWS,
                    timeout=60.0) for r in b.rows))
            reading.start()
            with DataCellClient(port=server.port) as producer:
                sent = _ingest_one_fire_each(server, producer, "wide")
                reading.join(60.0)
                assert got == sent  # the reading subscriber lost nothing
                assert producer.stats()["net"]["totals"]["evicted"] == 1
            # the stalled one gets its backlog first, then the verdict
            frames = []
            while True:
                message = stalled.recv()
                assert message is not None, "closed without an ERROR"
                frames.append(message)
                if message["type"] == protocol.ERROR:
                    break
            *results, error = frames
            assert error["code"] == "evicted"
            assert error["query"] == "wide"
            assert results and all(m["type"] == protocol.RESULT
                                   and m["query"] == "wide"
                                   for m in results)
            rows = [tuple(r) for m in results for r in m["rows"]]
            assert rows == sent[:len(rows)] and len(rows) < len(sent)
        finally:
            stalled.close()
            reader.close()
            server.stop()
            engine.close()

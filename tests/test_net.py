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
from repro.errors import NetError, StreamError
from repro.mal.relation import Relation
from repro.net import protocol
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.storage import Schema
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

    def test_msgpack_roundtrip_when_available(self):
        if "msgpack" not in protocol.available_codecs():
            pytest.skip("msgpack not installed")
        message = protocol.result("q", 0, 5, ["k"], [[1], [2]])
        frame = protocol.encode_frame(message, protocol.MsgpackCodec)
        assert protocol.decode_frame(
            frame[:protocol.HEADER.size],
            frame[protocol.HEADER.size:]) == message

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
    def test_in_order_delivery(self):
        sink = QueueSink("c1", max_batches=8)
        sink.deliver(_rel([1]), now=5)
        sink.deliver(_rel([2, 3]), now=9)
        seq0, t0, rel0 = sink.get(timeout=0.1)
        seq1, t1, rel1 = sink.get(timeout=0.1)
        assert (seq0, t0, rel0.to_rows()) == (0, 5, [(1,)])
        assert (seq1, t1, rel1.to_rows()) == (1, 9, [(2,), (3,)])
        assert sink.get(timeout=0.01) is None
        assert sink.delivered_rows == 3

    def test_slow_consumer_evicted(self):
        sink = QueueSink("c1", max_batches=2)
        sink.deliver(_rel([1]), 0)
        sink.deliver(_rel([2]), 0)
        assert not sink.evicted
        sink.deliver(_rel([3]), 0)  # overflow -> evicted, batch dropped
        assert sink.evicted
        assert sink.dropped_batches == 1
        sink.deliver(_rel([4]), 0)  # further deliveries just count
        assert sink.dropped_batches == 2
        assert sink.stats()["evicted"] is True
        # queued batches remain readable so the writer can flush + close
        assert sink.get(timeout=0.1)[2].to_rows() == [(1,)]


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

    def test_duplicate_subscribe_rejected(self, server):
        with DataCellClient(port=server.port) as client:
            client.subscribe("q")
            with pytest.raises(NetError) as exc:
                client.subscribe("q")
            assert exc.value.code == "duplicate"

    def test_loopback_equivalence_three_clients(self, server):
        """Acceptance: the same source through a SocketReceptor, with 3
        subscribed clients, is row-identical per client to the
        in-process CollectingSink run."""
        expected_q, expected_w = _expected_inprocess()
        total = len(expected_q) + len(expected_w)
        subscribers = [DataCellClient(port=server.port)
                       for _ in range(3)]
        try:
            for sub in subscribers:
                assert sub.subscribe("q") == ["k", "v"]
                sub.subscribe("w")
            with DataCellClient(port=server.port) as producer:
                for i in range(0, len(ROWS), 7):  # uneven batches
                    producer.ingest("s", ROWS[i:i + 7], seq=i)
            for sub in subscribers:
                got = _rows_by_query(
                    sub.results(max_rows=total, timeout=15.0))
                assert got.get("q", []) == expected_q
                assert got.get("w", []) == expected_w
        finally:
            for sub in subscribers:
                sub.close()

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
        engine = _server_engine()
        server = DataCellServer(engine, collect_max_batches=5)
        server.start()
        try:
            assert all(q.sink.max_batches == 5
                       for q in engine.queries())
        finally:
            server.stop()
            engine.close()

    def test_departed_producer_receptor_reaped(self, server):
        with DataCellClient(port=server.port) as producer:
            producer.ingest("s", [[1, 1.0]])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            server._reap_receptors()  # folds once closed *and* drained
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
        UNSUBSCRIBE must have its writer task joined, its QueueSink
        detached from the emitter and its delivery counters folded
        into the server totals."""
        emitter = server.engine.continuous_query("q").emitter
        client = DataCellClient(port=server.port)
        client.subscribe("q")
        assert any(isinstance(s, QueueSink) for s in emitter.sinks)
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
        assert not any(isinstance(s, QueueSink)
                       for s in emitter.sinks)
        totals = server.net_stats()["totals"]
        assert totals["delivered_batches"] >= len(batches)
        assert totals["delivered_rows"] >= \
            sum(b.row_count for b in batches)

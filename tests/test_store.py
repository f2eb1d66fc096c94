"""The durable stream log (:mod:`repro.store`): segment codecs,
torn-tail truncation, group commit and fault injection at the log
layer; retention (truncate-by-age/bytes, clamped reads, the durable
floor) and the paged-window binder serving log-resident history as
zero-copy views; checkpoint/recovery equivalence at the engine layer
(unit cases per execution mode plus a hypothesis
crash-at-arbitrary-point sweep); and the network replay path —
subscribe-from-offset splicing history into live delivery with no gap
and no duplicate, acked-offset resume, lag-to-floor after retention,
and the ``repro tail`` reconnect loop."""

import io
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.basket import Basket
from repro.core.clock import SimulatedClock, WallClock
from repro.core.engine import DataCellEngine
from repro.core.receptor import SocketReceptor
from repro.core.scheduler import PetriNetScheduler
from repro.errors import (InjectedCrash, ReplayGap, StoreError,
                          StreamError)
from repro.storage import Schema
from repro.storage import types as dt
from repro.store import (ARRIVAL_COLUMN, CRASH_ENV, FaultInjector,
                         PagedWindowBinder, StreamLog)
from repro.store import segment as seg
from repro.streams.source import ListSource

SCHEMA = Schema.parse([("k", "INT"), ("v", "FLOAT"), ("tag", "STRING")])
NUM_SCHEMA = Schema.parse([("k", "INT"), ("v", "FLOAT")])


def batch(lo, n):
    ks = np.arange(lo, lo + n, dtype=np.int64)
    vs = ks.astype(np.float64) * 0.5
    tags = np.array([f"t{i}" if i % 3 else None
                     for i in range(lo, lo + n)], dtype=object)
    ts = np.full(n, 10 * lo, dtype=np.int64)
    return [ks, vs, tags], ts


# ---------------------------------------------------------------------------
# segment codecs
# ---------------------------------------------------------------------------


class TestSegmentCodec:
    def test_numeric_roundtrip(self, tmp_path):
        values = np.array([1, -2, 3], dtype=np.int64)
        path = tmp_path / "c.int"
        path.write_bytes(seg.encode_values(dt.INT, values))
        rows, _ = seg.complete_rows(dt.INT, str(path))
        assert rows == 3
        out = seg.read_rows(dt.INT, str(path), 1, 2)
        assert out.tolist() == [-2, 3]
        assert out.flags.owndata and out.flags.writeable

    def test_string_roundtrip_with_nil(self, tmp_path):
        values = np.array(["a", None, "", "héllo"], dtype=object)
        path = tmp_path / "c.str"
        path.write_bytes(seg.encode_values(dt.STRING, values))
        rows, clean = seg.complete_rows(dt.STRING, str(path))
        assert rows == 4 and clean == path.stat().st_size
        out = seg.read_rows(dt.STRING, str(path), 0, 4)
        assert out.tolist() == ["a", None, "", "héllo"]

    def test_string_scan_stops_at_partial_frame(self):
        buf = seg.encode_values(
            dt.STRING, np.array(["ab", "cdef"], dtype=object))
        rows, clean = seg.scan_strings(buf[:-2], len(buf))
        assert rows == 1
        assert clean == 4 + 2  # length prefix + "ab"

    def test_complete_rows_ignores_trailing_garbage(self, tmp_path):
        values = np.arange(4, dtype=np.int64)
        path = tmp_path / "c.int"
        path.write_bytes(seg.encode_values(dt.INT, values) + b"\x01\x02")
        rows, clean = seg.complete_rows(dt.INT, str(path))
        assert rows == 4 and clean == 32

    def test_missing_file_is_empty(self, tmp_path):
        assert seg.complete_rows(dt.INT, str(tmp_path / "nope")) == (0, 0)

    def test_fault_injector_trips_once(self, tmp_path):
        fault = FaultInjector(10)
        assert fault.take(6) == 6 and not fault.tripped
        path = tmp_path / "partial"
        with open(path, "wb") as f:
            with pytest.raises(InjectedCrash):
                seg.faulty_write(f, b"x" * 8, fault)
        assert fault.tripped
        assert path.stat().st_size == 4  # partial write: budget remainder

    def test_fault_injector_from_env(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv(CRASH_ENV, "123")
        fault = FaultInjector.from_env()
        assert fault is not None and fault.budget_bytes == 123


# ---------------------------------------------------------------------------
# the stream log: append/read, rolling, truncation, recovery
# ---------------------------------------------------------------------------


class TestStreamLog:
    def make(self, tmp_path, **kw):
        kw.setdefault("segment_rows", 8)
        kw.setdefault("durability", "fsync")
        return StreamLog(str(tmp_path / "s"), "s", SCHEMA, **kw)

    def test_roundtrip_and_offsets(self, tmp_path):
        log = self.make(tmp_path)
        cols, ts = batch(0, 5)
        assert log.append(cols, ts) == (0, 5)
        cols2, ts2 = batch(5, 4)
        assert log.append(cols2, ts2) == (5, 9)
        # appends only stage: nothing is durable before a commit
        assert log.next_offset == 9 and log.durable_offset == 0
        assert log.backlog_rows() == 9
        assert log.flush() == 9 and log.backlog_rows() == 0
        out, arrival = log.read(3, 7)
        assert out["k"].tolist() == [3, 4, 5, 6]
        assert out["tag"].tolist() == [None, "t4", "t5", None]
        assert arrival.tolist() == [0, 0, 50, 50]
        log.close()

    def test_segments_roll_and_seal(self, tmp_path):
        log = self.make(tmp_path)
        for i in range(3):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
            log.commit()
        stats = log.stats()
        assert stats["segments"] == 4  # 3 sealed + fresh tail
        log.close()
        # clean reopen: everything durable, nothing torn
        log2 = self.make(tmp_path)
        assert log2.recovered and log2.torn_rows == 0
        assert log2.next_offset == 24
        out, _ = log2.read(0, 24)
        assert out["k"].tolist() == list(range(24))
        log2.close()

    def test_roll_leaves_manifest_and_reopen_finds_rolled(self, tmp_path):
        log = self.make(tmp_path)
        manifest = tmp_path / "s" / "manifest.json"
        before = manifest.read_text()
        for i in range(3):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
            log.commit()
        cols, ts = batch(24, 5)
        log.append(cols, ts)
        log.commit()
        # three rolls inside commits, and not one manifest rewrite
        assert log.stats()["segments"] == 4
        assert manifest.read_text() == before
        # crash: reopen without close; the rolled segments are found
        # by their base offsets
        log2 = self.make(tmp_path)
        assert log2.recovered and log2.torn_rows == 0
        assert log2.next_offset == 29
        assert [(s.base, s.rows, s.sealed) for s in log2.segment_table()] \
            == [(0, 8, True), (8, 8, True), (16, 8, True), (24, 5, False)]
        out, _ = log2.read(0, 29)
        assert out["k"].tolist() == list(range(29))
        assert manifest.read_text() != before  # recovery persists them
        log2.close()

    def test_torn_rolled_segment_recovers_prefix(self, tmp_path):
        log = self.make(tmp_path)
        for i in range(2):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
            log.commit()
        cols, ts = batch(16, 5)
        log.append(cols, ts)
        log.commit()
        # chop the float column of the unlisted tail mid-row
        vpath = os.path.join(str(tmp_path / "s"), f"{16:012d}.v")
        os.truncate(vpath, 2 * 8 + 4)
        log2 = self.make(tmp_path)
        assert log2.next_offset == 18 and log2.torn_rows == 3
        out, _ = log2.read(0, 18)
        assert out["k"].tolist() == list(range(18))
        log2.close()

    def test_new_segment_starts_empty_over_stale_files(self, tmp_path):
        log = self.make(tmp_path)
        stale = os.path.join(str(tmp_path / "s"), f"{8:012d}.k")
        with open(stale, "wb") as f:
            f.write(np.arange(100, 104, dtype=np.int64).tobytes())
        for i in range(2):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
            log.commit()
        out, _ = log.read(0, 16)
        assert out["k"].tolist() == list(range(16))
        log.close()

    def test_group_commit_flush_barrier(self, tmp_path):
        log = self.make(tmp_path)
        for i in range(4):
            cols, ts = batch(i * 3, 3)
            log.append(cols, ts)
        assert log.flush() == 12
        assert log.durable_offset == 12
        # everything staged since the last commit is one group
        assert log.stats()["groups"] == 1
        assert log.stats()["max_group_rows"] == 12
        log.close()

    def test_torn_tail_truncates_to_min_complete_rows(self, tmp_path):
        log = self.make(tmp_path)
        cols, ts = batch(0, 5)
        log.append(cols, ts)
        log.close()
        # chop the float column mid-row: 5 rows -> 3 complete + 4 bytes
        vpath = os.path.join(str(tmp_path / "s"), f"{0:012d}.v")
        os.truncate(vpath, 3 * 8 + 4)
        log2 = self.make(tmp_path)
        assert log2.recovered
        assert log2.next_offset == 3
        assert log2.torn_rows == 2
        out, _ = log2.read(0, 3)
        assert out["k"].tolist() == [0, 1, 2]
        # appending after recovery continues from the truncation point
        cols2, ts2 = batch(3, 2)
        assert log2.append(cols2, ts2) == (3, 5)
        log2.close()

    def test_torn_string_column_governs(self, tmp_path):
        log = self.make(tmp_path)
        cols, ts = batch(0, 4)
        log.append(cols, ts)
        log.close()
        tpath = os.path.join(str(tmp_path / "s"), f"{0:012d}.tag")
        os.truncate(tpath, os.path.getsize(tpath) - 1)
        log2 = self.make(tmp_path)
        assert log2.next_offset == 3 and log2.torn_rows == 1
        log2.close()

    def test_injected_crash_then_recovery(self, tmp_path):
        fault = FaultInjector(300)
        log = self.make(tmp_path, fault=fault)
        with pytest.raises(StoreError, match="injected crash"):
            for i in range(100):
                cols, ts = batch(i * 4, 4)
                log.append(cols, ts)
                log.flush()
        assert isinstance(log.failed, InjectedCrash)
        # recovery sees a prefix of whole rows, nothing invented
        log2 = self.make(tmp_path)
        n = log2.next_offset
        assert 0 <= n < 400
        out, _ = log2.read(0, n)
        assert out["k"].tolist() == list(range(n))
        log2.close()

    def test_async_writer_failure_surfaces_on_append(self, tmp_path):
        fault = FaultInjector(64)
        log = self.make(tmp_path, fault=fault)
        cols, ts = batch(0, 8)
        log.append(cols, ts)
        log.commit()  # the failure is recorded, not raised
        assert isinstance(log.failed, InjectedCrash)
        with pytest.raises(StoreError, match="stream log 's' failed"):
            log.flush()
        with pytest.raises(StoreError):
            log.append(cols, ts)
        log.close()

    def test_truncate_to(self, tmp_path):
        log = self.make(tmp_path)
        for i in range(3):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
        log.flush()
        assert log.truncate_to(10) == 14
        assert log.next_offset == 10 == log.durable_offset
        out, _ = log.read(0, 10)
        assert out["k"].tolist() == list(range(10))
        cols, ts = batch(10, 2)
        assert log.append(cols, ts) == (10, 12)
        log.close()

    def test_schema_drift_rejected(self, tmp_path):
        log = self.make(tmp_path)
        log.close()
        other = Schema.parse([("k", "INT"), ("v", "INT"),
                              ("tag", "STRING")])
        with pytest.raises(StoreError, match="columns"):
            StreamLog(str(tmp_path / "s"), "s", other)

    def test_reserved_arrival_column_rejected(self, tmp_path):
        bad = Schema.parse([(ARRIVAL_COLUMN, "INT")])
        with pytest.raises(StoreError, match="reserved"):
            StreamLog(str(tmp_path / "x"), "x", bad)


# ---------------------------------------------------------------------------
# basket <-> log integration
# ---------------------------------------------------------------------------


class TestBasketLog:
    def test_appends_mirror_to_log(self, tmp_path):
        basket = Basket("s", NUM_SCHEMA)
        log = StreamLog(str(tmp_path / "s"), "s", NUM_SCHEMA)
        basket.attach_log(log)
        basket.append_rows([(1, 1.0), (2, 2.0)], now=5)
        assert log.next_offset == basket.next_oid == 2
        log.flush()
        out, arrival = log.read(0, 2)
        assert out["k"].tolist() == [1, 2]
        assert arrival.tolist() == [5, 5]
        log.close()

    def test_attach_requires_aligned_offsets(self, tmp_path):
        basket = Basket("s", NUM_SCHEMA)
        basket.append_rows([(1, 1.0)], now=0)
        log = StreamLog(str(tmp_path / "s"), "s", NUM_SCHEMA)
        with pytest.raises(StreamError, match="offset"):
            basket.attach_log(log)
        log.close()

    def test_vacuum_floor_clamps_to_durable(self, tmp_path):
        basket = Basket("s", NUM_SCHEMA)

        class StuckLog:
            next_offset = 0
            durable_offset = 0

            def append(self, columns, arrival):
                lo = self.next_offset
                self.next_offset += len(arrival)
                return lo, self.next_offset  # never durable

        basket.attach_log(StuckLog())
        basket.append_rows([(i, float(i)) for i in range(10)], now=0)
        sub = basket.subscribe("q")
        sub.read_upto = sub.released_upto = 10
        assert basket.vacuum() == 0  # nothing durable -> nothing drops
        assert basket.first_oid == 0

    def test_failed_log_refuses_append_basket_unchanged(self, tmp_path):
        basket = Basket("s", NUM_SCHEMA)
        log = StreamLog(str(tmp_path / "s"), "s", NUM_SCHEMA,
                        fault=FaultInjector(8))
        basket.attach_log(log)
        basket.append_rows([(1, 1.0)], now=0)
        log.commit()
        assert log.failed is not None
        with pytest.raises(StoreError, match="stream log 's' failed"):
            basket.append_rows([(2, 2.0)], now=0)
        # the log refused before the basket took the batch
        assert basket.next_oid == log.next_offset == 1
        log.close()

    @pytest.mark.parametrize("policy", ["shed", "block"])
    def test_slow_log_write_backs_producers_up(self, tmp_path, policy):
        """A slow disk slows the step that commits the log; the one
        admission queue then fills, and sheds or blocks producers."""
        gate = threading.Event()

        class SlowLog(StreamLog):
            def _write_group(self, group):
                gate.wait(10)
                super()._write_group(group)

        basket = Basket("s", NUM_SCHEMA)
        log = SlowLog(str(tmp_path / "s"), "s", NUM_SCHEMA)
        basket.attach_log(log)
        receptor = SocketReceptor("r", basket, max_pending=1,
                                  policy=policy, block_timeout_s=10)
        scheduler = PetriNetScheduler(SimulatedClock())
        scheduler.add_basket(basket)
        scheduler.add_receptor(receptor)
        assert receptor.offer([(1, 1.0)]) == 1
        step = threading.Thread(target=scheduler.step)
        step.start()
        deadline = time.monotonic() + 5
        while receptor.pending_batches() and time.monotonic() < deadline:
            time.sleep(0.001)
        # the step pumped (1) and now sits in the slow commit
        assert receptor.offer([(2, 2.0)]) == 1  # fills the queue
        offered = []
        producer = threading.Thread(
            target=lambda: offered.append(receptor.offer([(3, 3.0)])))
        producer.start()
        producer.join(0.2)
        if policy == "shed":
            assert offered == [0] and receptor.total_shed == 1
        else:
            assert producer.is_alive() and receptor.total_blocked == 1
        gate.set()
        step.join(5)
        assert not step.is_alive()
        scheduler.step()  # pumps (2), which frees the slot for (3)
        producer.join(5)
        assert not producer.is_alive()
        scheduler.step()
        assert log.durable_offset == log.next_offset
        want = [1, 2] if policy == "shed" else [1, 2, 3]
        assert log.read(0, log.next_offset)[0]["k"].tolist() == want
        log.close()

    def test_concurrent_appends_and_commits_lose_nothing(self, tmp_path):
        """Feeding threads stage while another thread commits: the log
        holds every row, in the basket's oid order."""
        basket = Basket("s", NUM_SCHEMA)
        log = StreamLog(str(tmp_path / "s"), "s", NUM_SCHEMA,
                        segment_rows=64)
        basket.attach_log(log)
        stop = threading.Event()
        landed = threading.Event()

        def feed(t):
            for i in range(200):
                if i == 100:
                    # the second half waits for a group to land, so it
                    # is committed in a later group however the
                    # threads are scheduled
                    assert landed.wait(20)
                basket.append_rows([(t * 1000 + i, float(i))], now=t)

        def commit():
            while not stop.is_set():
                log.commit()
                if log.groups:
                    landed.set()

        feeders = [threading.Thread(target=feed, args=(t,))
                   for t in range(4)]
        committer = threading.Thread(target=commit)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            committer.start()
            for thread in feeders:
                thread.start()
            for thread in feeders:
                thread.join(20)
                assert not thread.is_alive()
            stop.set()
            committer.join(20)
            assert not committer.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert log.flush() == log.next_offset == basket.next_oid == 800
        cols, _arrival = log.read(0, 800)
        assert cols["k"].tolist() == \
            basket.relation(0, 800).column("k").values.tolist()
        assert sorted(cols["k"].tolist()) == \
            [t * 1000 + i for t in range(4) for i in range(200)]
        assert log.stats()["groups"] > 1
        log.close()

    def test_rehydrate_restores_vacuumed_prefix(self, tmp_path):
        basket = Basket("s", NUM_SCHEMA)
        log = StreamLog(str(tmp_path / "s"), "s", NUM_SCHEMA)
        basket.attach_log(log)
        basket.append_rows([(i, float(i)) for i in range(10)], now=0)
        log.flush()  # vacuum drops only what is durable
        sub = basket.subscribe("q")
        sub.read_upto = sub.released_upto = 6
        assert basket.vacuum() == 6
        assert basket.first_oid == 6
        cols, arrival = log.read(0, 6)
        assert basket.rehydrate(0, cols, arrival) == 6
        assert basket.first_oid == 0
        assert basket.relation(0, 10).column("k").values.tolist() \
            == list(range(10))
        log.close()


# ---------------------------------------------------------------------------
# engine: checkpoint, recovery, replay registration
# ---------------------------------------------------------------------------


ROWS = [[[i, float(i)], [i + 100, float(i) * 2]] for i in range(12)]
QUERY = ("SELECT sid, sum(temp) FROM s [RANGE 4 SLIDE 2] "
         "GROUP BY sid")


def durable_engine(data_dir, **kw):
    kw.setdefault("durability", "fsync")
    return DataCellEngine(clock=SimulatedClock(), data_dir=str(data_dir),
                          **kw)


def drive(engine, batches):
    for rows in batches:
        engine.feed("s", rows)
        engine.step(advance_ms=10)


def drain(engine, steps=12):
    for _ in range(steps):
        engine.step(advance_ms=10)


def emissions(engine, name="q"):
    return [tuple(map(tuple, sorted(rel.to_rows())))
            for _t, rel in engine.results(name).batches]


def serial_run(mode, query=QUERY, rows=ROWS):
    engine = DataCellEngine(clock=SimulatedClock())
    engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
    engine.register_continuous(query, name="q", mode=mode)
    drive(engine, rows)
    drain(engine)
    out = emissions(engine)
    engine.close()
    return out


class TestStepIsTheGroupCommit:
    """One write path: the scheduler step commits every log itself."""

    @pytest.mark.parametrize("paused", [False, True])
    def test_every_step_leaves_every_log_durable(self, tmp_path, paused):
        engine = DataCellEngine(clock=SimulatedClock(),
                                data_dir=str(tmp_path))
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode="reeval",
                                   output_stream="out")
        engine.attach_source("s", ListSource(
            [(10 * i, [i % 3, float(i)]) for i in range(40)]))
        engine.scheduler.paused = paused
        logs = [engine.stream_log("s"), engine.stream_log("out")]
        for i in range(12):
            engine.feed("s", [[9, float(i)]])
            engine.step(advance_ms=10)
            for log in logs:
                assert log.durable_offset == log.next_offset
                assert log.backlog_rows() == 0
        assert logs[0].next_offset > 12  # pumped arrivals, not just feeds
        assert (logs[1].next_offset > 0) is not paused
        engine.close()

    def test_durable_streams_run_no_extra_threads(self, tmp_path):
        from repro.net.client import DataCellClient
        from repro.net.server import DataCellServer

        def served_threads(**kw):
            engine = DataCellEngine(clock=WallClock(), **kw)
            for name in ("a", "b", "c"):
                engine.execute(f"CREATE STREAM {name} (k INT, v FLOAT)")
            server = DataCellServer(engine)
            server.start()
            try:
                with DataCellClient(port=server.port) as client:
                    for name in ("a", "b", "c"):
                        client.ingest(name, [[1, 1.0]])
                    return threading.active_count()
            finally:
                server.stop()
                engine.close()

        assert served_threads(data_dir=str(tmp_path)) <= served_threads()


class TestEngineRecovery:
    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    def test_crash_equivalence_at_checkpoint(self, tmp_path, mode):
        serial = serial_run(mode)
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode=mode)
        drive(engine, ROWS[:7])
        engine.checkpoint()
        pre = emissions(engine)
        saved_now = engine.now()
        del engine  # crash: no close()

        recovered = durable_engine(tmp_path)
        assert recovered.recovered
        assert recovered.now() == saved_now
        assert [q.name for q in recovered.queries()] == ["q"]
        assert recovered.continuous_query("q").mode == mode
        drive(recovered, ROWS[7:])
        drain(recovered)
        post = emissions(recovered)
        recovered.close()
        assert pre == serial[:len(pre)]
        assert post == serial[len(serial) - len(post):]
        assert len(pre) + len(post) >= len(serial)

    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    def test_uncheckpointed_tail_refires(self, tmp_path, mode):
        """A crash after un-checkpointed activity: the log has the
        admitted tuples, the cursors are older — recovery re-fires the
        tail and the refired emissions are byte-identical (overlap with
        pre-crash deliveries allowed, divergence not)."""
        serial = serial_run(mode)
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode=mode)
        drive(engine, ROWS[:4])
        engine.checkpoint()
        drive(engine, ROWS[4:8])  # admitted + logged, not checkpointed
        pre = emissions(engine)
        del engine

        recovered = durable_engine(tmp_path)
        fed = sum(len(b) for b in ROWS[:8])
        assert recovered.basket("s").next_oid == fed  # log kept it all
        drive(recovered, ROWS[8:])
        drain(recovered, steps=16)
        post = emissions(recovered)
        recovered.close()
        assert pre == serial[:len(pre)]
        assert post == serial[len(serial) - len(post):]
        assert len(pre) + len(post) >= len(serial)

    def test_recovery_without_any_checkpoint_state(self, tmp_path):
        """DDL auto-checkpoints, so even a crash right after stream
        creation leaves a recoverable definition."""
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.feed("s", [[1, 1.0]])
        del engine
        recovered = durable_engine(tmp_path)
        assert recovered.recovered
        assert recovered.catalog.is_stream("s")
        recovered.close()

    def test_chained_output_stream_truncates_to_checkpoint(
            self, tmp_path):
        rows = [[[i % 3, float(i)]] for i in range(30)]

        def build(engine):
            engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
            engine.register_continuous(
                "SELECT sid, sum(temp) AS sv FROM s [RANGE 6 SLIDE 3] "
                "GROUP BY sid", name="stage1", mode="reeval",
                output_stream="mid")
            engine.register_continuous(
                "SELECT max(sv) AS m FROM mid [RANGE 3 SLIDE 3]",
                name="stage2", mode="reeval")

        engine = DataCellEngine(clock=SimulatedClock())
        build(engine)
        drive(engine, rows)
        drain(engine)
        serial1 = emissions(engine, "stage1")
        serial2 = emissions(engine, "stage2")
        engine.close()

        engine = durable_engine(tmp_path)
        build(engine)
        drive(engine, rows[:17])
        engine.checkpoint()
        drive(engine, rows[17:22])  # un-checkpointed output appends
        pre1, pre2 = emissions(engine, "stage1"), \
            emissions(engine, "stage2")
        del engine

        recovered = durable_engine(tmp_path)
        drive(recovered, rows[22:])
        drain(recovered)
        post1 = emissions(recovered, "stage1")
        post2 = emissions(recovered, "stage2")
        recovered.close()
        for serial, pre, post in ((serial1, pre1, post1),
                                  (serial2, pre2, post2)):
            assert pre == serial[:len(pre)]
            assert post == serial[len(serial) - len(post):]
            assert len(pre) + len(post) >= len(serial)

    def test_register_from_start_replays_vacuumed_history(
            self, tmp_path):
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode="reeval")
        drive(engine, ROWS)
        drain(engine)
        expected = emissions(engine)
        assert engine.basket("s").first_oid > 0  # vacuum happened
        late = engine.register_continuous(
            QUERY, name="late", mode="reeval", from_start=True)
        drain(engine, steps=20)
        assert emissions(engine, "late") == expected
        assert late.streams == ["s"]
        engine.close()

    def test_read_stream_range_splices_log_and_memory(self, tmp_path):
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode="reeval")
        drive(engine, ROWS)
        drain(engine)
        basket = engine.basket("s")
        assert basket.first_oid > 0
        parts = engine.read_stream_range("s", 0, basket.next_oid)
        prev = 0
        rows = []
        for lo, hi, rel in parts:
            assert lo == prev
            prev = hi
            rows.extend(rel.to_rows())
        assert prev == basket.next_oid
        flat = [r for b in ROWS for r in b]
        assert [list(r) for r in rows] == flat
        engine.close()

    def test_catalog_tables_survive_restart(self, tmp_path):
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.execute("CREATE TABLE rooms (sid INT, room STRING)")
        engine.execute("INSERT INTO rooms VALUES (1, 'lab')")
        engine.checkpoint()
        del engine
        recovered = durable_engine(tmp_path)
        assert recovered.query("SELECT room FROM rooms").to_rows() \
            == [("lab",)]
        recovered.close()

    def test_registration_knobs_and_unread_tuples_survive_restart(
            self, tmp_path):
        """What the deleted ``engine.save/restore`` promised and the
        crash-equivalence cases do not spell out: registration knobs
        round-trip, and tuples nobody consumed stay queryable at
        their old oids."""
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.execute("CREATE STREAM idle (k INT, tag STRING)")
        engine.register_continuous(
            "SELECT sid, temp FROM s WHERE temp > 5", name="alerts",
            min_batch=2, max_delay_ms=100)
        drive(engine, ROWS[:4])
        engine.feed("idle", [[9, "kept"], [10, None]])
        engine.checkpoint()
        first, total = (engine.basket("s").first_oid,
                        engine.basket("s").total_in)
        del engine

        recovered = durable_engine(tmp_path)
        alerts = recovered.continuous_query("alerts")
        assert alerts.factory.min_batch == 2
        assert alerts.factory.max_delay_ms == 100
        basket = recovered.basket("s")
        assert (basket.first_oid, basket.total_in) == (first, total)
        assert recovered.query("SELECT k, tag FROM idle").to_rows() \
            == [(9, "kept"), (10, None)]
        recovered.close()

    def test_checkpoint_with_collect_bound_still_recovers(
            self, tmp_path):
        """Definitions written when registration still took a result
        ring bound carry ``collect_max_batches``; recovery ignores it."""
        import json

        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous("SELECT sid FROM s", name="q")
        engine.close()
        path = tmp_path / "queries.json"
        defs = json.loads(path.read_text())
        defs["queries"][0]["collect_max_batches"] = 7
        path.write_text(json.dumps(defs))
        recovered = durable_engine(tmp_path)
        assert recovered.results("q").max_batches is None
        drive(recovered, ROWS[:2])
        assert recovered.results("q").rows() == [(r[0],) for b in ROWS[:2]
                                                  for r in b]
        recovered.close()

    def test_parent_format_checkpoint_with_stamps_recovers(
            self, tmp_path):
        """``state.json`` files written before emit stamps were
        deleted carry a ``"stamps"`` list per basket: they must stay
        readable, and emissions resume byte-identically."""
        import json

        rows = [[[i % 3, float(i)]] for i in range(30)]

        def build(engine):
            engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
            engine.register_continuous(
                "SELECT sid, sum(temp) AS sv FROM s [RANGE 6 SLIDE 3] "
                "GROUP BY sid", name="stage1", mode="reeval",
                output_stream="mid")
            engine.register_continuous(
                "SELECT max(sv) AS m FROM mid [RANGE 3 SLIDE 3]",
                name="stage2", mode="reeval")

        engine = DataCellEngine(clock=SimulatedClock())
        build(engine)
        drive(engine, rows)
        drain(engine)
        serial = {n: emissions(engine, n) for n in ("stage1", "stage2")}
        engine.close()

        engine = durable_engine(tmp_path)
        build(engine)
        drive(engine, rows[:17])
        engine.checkpoint()
        pre = {n: emissions(engine, n) for n in ("stage1", "stage2")}
        del engine
        state_path = os.path.join(str(tmp_path), "state.json")
        with open(state_path) as f:
            state = json.load(f)
        for name, meta in state["baskets"].items():
            assert "stamps" not in meta   # no longer written
            lo, hi = meta["first_oid"], meta["next_oid"]
            meta["stamps"] = [[o, o + 1, "feedfacefeedface"]
                              for o in range(lo, hi)]
        with open(state_path, "w") as f:
            json.dump(state, f)

        recovered = durable_engine(tmp_path)
        assert recovered.recovered
        drive(recovered, rows[17:])
        drain(recovered)
        for name in ("stage1", "stage2"):
            post = emissions(recovered, name)
            assert pre[name] == serial[name][:len(pre[name])]
            assert post == serial[name][len(serial[name]) - len(post):]
            assert len(pre[name]) + len(post) >= len(serial[name])
        recovered.close()

    def test_retired_mode_in_data_dir_recovers_as_reeval(self, tmp_path):
        """``queries.json`` / ``state.json`` written by a build that
        still had a third mode may say ``"mode": "delta"``: the query
        comes back as ``reeval`` (same ``"kind": "window"`` cursors,
        same whole-window emissions) instead of failing recovery."""
        import json

        serial = serial_run("reeval")
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode="reeval")
        drive(engine, ROWS[:7])
        engine.checkpoint()
        pre = emissions(engine)
        engine.close()
        for fname, entry_of in (
                ("queries.json", lambda doc: doc["queries"][0]),
                ("state.json", lambda doc: doc["queries"]["q"])):
            path = os.path.join(str(tmp_path), fname)
            with open(path) as f:
                doc = json.load(f)
            assert entry_of(doc)["mode"] == "reeval"
            entry_of(doc)["mode"] = "delta"
            with open(path, "w") as f:
                json.dump(doc, f)

        recovered = durable_engine(tmp_path)
        assert recovered.recovered
        assert recovered.continuous_query("q").mode == "reeval"
        drive(recovered, ROWS[7:])
        drain(recovered)
        post = emissions(recovered)
        recovered.close()
        assert pre + post == serial

    def test_log_stats_and_monitor_pane(self, tmp_path):
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.feed("s", [[1, 1.0]])
        engine.checkpoint()
        stats = engine.log_stats()
        assert stats["durability"] == "fsync"
        assert stats["streams"]["s"]["next_offset"] == 1
        assert stats["checkpoints"] >= 1
        assert "network" not in engine.monitor.log()
        assert "s: next=1" in engine.monitor.log()
        assert "log" in engine.network_stats()
        engine.close()
        plain = DataCellEngine(clock=SimulatedClock())
        assert "off" in plain.monitor.log()
        plain.close()

    def test_durability_off_writes_nothing(self, tmp_path):
        # "off" is not a write discipline: an unlogged engine is one
        # without a data_dir, so the word is refused before any write
        with pytest.raises(StreamError):
            DataCellEngine(clock=SimulatedClock(),
                           data_dir=str(tmp_path), durability="off")
        assert os.listdir(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# hypothesis: crash at an arbitrary point is invisible in the output
# ---------------------------------------------------------------------------


@st.composite
def crash_case(draw):
    n = draw(st.integers(8, 24))
    rows = [[[draw(st.integers(0, 2)), float(draw(st.integers(-5, 5)))]]
            for _ in range(n)]
    size = draw(st.integers(2, 8))
    # incremental mode needs equal basic windows: slide | size
    slide = draw(st.sampled_from(
        [d for d in range(1, size + 1) if size % d == 0]))
    crash_at = draw(st.integers(1, n - 1))
    ckpt_at = draw(st.integers(0, crash_at))
    mode = draw(st.sampled_from(["reeval", "incremental"]))
    return rows, size, slide, crash_at, ckpt_at, mode


class TestPropertyCrashEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(crash_case())
    def test_recovered_emissions_match_serial(self, tmp_path_factory,
                                              case):
        rows, size, slide, crash_at, ckpt_at, mode = case
        query = (f"SELECT sid, count(*), sum(temp) FROM s "
                 f"[RANGE {size} SLIDE {slide}] GROUP BY sid")
        serial = serial_run(mode, query=query, rows=rows)

        data_dir = tmp_path_factory.mktemp("store")
        engine = durable_engine(data_dir)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(query, name="q", mode=mode)
        drive(engine, rows[:ckpt_at])
        engine.checkpoint()
        drive(engine, rows[ckpt_at:crash_at])
        pre = emissions(engine)
        del engine  # crash

        recovered = durable_engine(data_dir)
        assert recovered.basket("s").next_oid == \
            sum(len(b) for b in rows[:crash_at])
        drive(recovered, rows[crash_at:])
        drain(recovered, steps=16)
        post = emissions(recovered)
        recovered.close()
        assert pre == serial[:len(pre)]
        assert post == serial[len(serial) - len(post):]
        assert len(pre) + len(post) >= len(serial)


# ---------------------------------------------------------------------------
# network: replay-on-subscribe, ack resume, tail reconnect
# ---------------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    from repro.net.server import DataCellServer

    engine = DataCellEngine(clock=WallClock(), data_dir=str(tmp_path),
                            durability="async",
                            checkpoint_interval_s=0.25)
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    server = DataCellServer(engine)
    server.start()
    yield engine, server
    server.stop()
    engine.close()


def ingest_range(client, lo, hi, chunk=10):
    for i in range(lo, hi, chunk):
        client.ingest("s", [[j, float(j)]
                            for j in range(i, min(i + chunk, hi))])


def collect_rows(client, want_rows, timeout=8.0):
    got = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline \
            and sum(b.row_count for b in got) < want_rows:
        got.extend(client.results(max_batches=10, timeout=0.5))
    return got


class TestNetReplay:
    def test_replay_then_live_no_gap_no_duplicate(self, served):
        from repro.net.client import DataCellClient

        _engine, server = served
        with DataCellClient(port=server.port) as producer:
            ingest_range(producer, 0, 50)
            time.sleep(0.3)  # history drains into basket + log
            with DataCellClient(port=server.port) as consumer:
                consumer.subscribe_stream("s", from_offset=0)
                ingest_range(producer, 50, 80)  # live, mid-replay
                got = collect_rows(consumer, 80)
                ks = [r[0] for b in got for r in b.rows]
                assert ks == list(range(80))  # no gap, no duplicate
                prev = 0
                for b in got:
                    assert b.offset == prev
                    prev = b.end
                assert any(b.replay for b in got)
                assert not got[-1].replay  # spliced into live

    def test_acked_offset_tracked_serverside(self, served):
        from repro.net.client import DataCellClient

        _engine, server = served
        with DataCellClient(port=server.port) as producer:
            ingest_range(producer, 0, 30)
            time.sleep(0.3)
            with DataCellClient(port=server.port) as consumer:
                consumer.subscribe_stream("s", from_offset=0)
                collect_rows(consumer, 30)
                assert consumer.stream_offsets["s"] == 30
                time.sleep(0.2)  # let the server see the acks
                stats = consumer.stats()["net"]["connections"]
                subs = [s for c in stats
                        for s in c.get("stream_subscriptions", [])]
                assert subs and subs[0]["acked"] == 30
                assert subs[0]["replay_rows"] == 30

    def test_reconnect_resumes_from_last_offset(self, served):
        from repro.net.client import DataCellClient

        _engine, server = served
        with DataCellClient(port=server.port) as producer:
            ingest_range(producer, 0, 40)
            time.sleep(0.3)
            consumer = DataCellClient(port=server.port)
            consumer.subscribe_stream("s", from_offset=0)
            collect_rows(consumer, 40)
            resume_at = consumer.stream_offsets["s"]
            consumer.close()  # drop mid-stream
            ingest_range(producer, 40, 60)
            with DataCellClient(port=server.port) as consumer2:
                consumer2.subscribe_stream("s", from_offset=resume_at)
                got = collect_rows(consumer2, 60 - resume_at)
                ks = [r[0] for b in got for r in b.rows]
                assert ks == list(range(resume_at, 60))

    def test_live_only_subscription_skips_history(self, served):
        from repro.net.client import DataCellClient

        _engine, server = served
        with DataCellClient(port=server.port) as producer:
            ingest_range(producer, 0, 20)
            time.sleep(0.3)
            with DataCellClient(port=server.port) as consumer:
                consumer.subscribe_stream("s")  # from the head
                ingest_range(producer, 20, 30)
                got = collect_rows(consumer, 10, timeout=5.0)
                ks = [r[0] for b in got for r in b.rows]
                assert ks == list(range(20, 30))
                assert not any(b.replay for b in got)


class TestTailReconnect:
    def test_backoff_schedule(self):
        from repro.net.cli import _backoff_s

        assert _backoff_s(0) == pytest.approx(0.2)
        assert _backoff_s(1) == pytest.approx(0.4)
        assert _backoff_s(10) == 5.0  # capped

    def test_tail_reconnects_and_resumes(self, served, monkeypatch):
        """Drive the tail loop with an injected connect factory: first
        connection dies after the replay batch, the second resumes from
        the delivered offset."""
        from repro.net import cli as net_cli
        from repro.net.client import DataCellClient

        _engine, server = served
        with DataCellClient(port=server.port) as producer:
            ingest_range(producer, 0, 25)
            time.sleep(0.3)

            attempts = []

            def factory():
                attempts.append(1)
                if len(attempts) == 2:
                    from repro.errors import NetError
                    raise NetError("injected outage", code="connect")
                client = DataCellClient(port=server.port,
                                        timeout_s=5.0)
                if len(attempts) == 1:
                    # die after one batch: like a real drop, later
                    # results() calls see closed=True and yield nothing
                    orig = client.results

                    def dying(*a, **kw):
                        if client.closed:
                            return []
                        out = orig(*a, **kw)
                        if out:
                            client.close()
                        return out
                    client.results = dying
                return client

            monkeypatch.setattr(net_cli.time, "sleep", lambda s: None)
            out = io.StringIO()
            args = net_cli._build_parser().parse_args(
                ["tail", "s", "--port", str(server.port),
                 "--from", "start", "--reconnect", "--count", "3",
                 "--timeout", "3"])
            rc = net_cli._cmd_tail(args, out, connect_factory=factory)
            assert rc == 0
            text = out.getvalue()
            assert len(attempts) >= 3  # initial + failed + resumed
            assert "retry 1/" in text or "connection lost" in text \
                or text.count("subscribed to stream") >= 2
            # the resumed subscription starts past offset 0
            assert "from offset 25" in text or "[0,25)" in text


class TestServeCli:
    def test_serve_with_data_dir_recovers(self, tmp_path):
        from repro.net import cli as net_cli

        script = tmp_path / "init.sql"
        script.write_text("CREATE STREAM s (k INT, v FLOAT);\n")
        data_dir = tmp_path / "data"
        out = io.StringIO()
        rc = net_cli.main(
            ["serve", "--port", "0", "--script", str(script),
             "--data-dir", str(data_dir), "--duration", "0.2"],
            out=out)
        assert rc == 0
        assert (data_dir / "state.json").exists()
        out2 = io.StringIO()
        rc = net_cli.main(
            ["serve", "--port", "0", "--data-dir", str(data_dir),
             "--duration", "0.2"], out=out2)
        assert rc == 0
        assert "recovered" in out2.getvalue()

    def test_serve_refuses_durability_off(self, capsys):
        from repro.net import cli as net_cli

        with pytest.raises(SystemExit) as exc:
            net_cli._build_parser().parse_args(
                ["serve", "--durability", "off"])
        assert exc.value.code == 2
        assert "invalid choice: 'off'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# retention: durable floor, clamped reads, truncate-by-age / bytes
# ---------------------------------------------------------------------------


class TestRetention:
    def make(self, tmp_path, **kw):
        kw.setdefault("segment_rows", 8)
        kw.setdefault("durability", "fsync")
        return StreamLog(str(tmp_path / "s"), "s", SCHEMA, **kw)

    def fill(self, log, segments=3):
        # segment arrivals: 0, 80, 160, ... (batch stamps ts = 10 * lo)
        for i in range(segments):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
            log.commit()

    def test_noop_without_knobs(self, tmp_path):
        log = self.make(tmp_path)
        self.fill(log)
        assert log.apply_retention(now_ms=10 ** 9) == 0
        assert log.durable_floor == 0
        log.close()

    def test_retain_bytes_drops_oldest_sealed(self, tmp_path):
        log = self.make(tmp_path, retain_bytes=0)
        self.fill(log)
        assert log.durable_floor == 0
        assert log.apply_retention(now_ms=0) == 24
        assert log.durable_floor == 24
        stats = log.stats()
        assert stats["retention_truncations"] == 1
        assert stats["retention_rows"] == 24
        # dropped segment files are gone from disk
        assert not os.path.exists(
            os.path.join(str(tmp_path / "s"), f"{0:012d}.k"))
        # appends continue past the floor
        cols, ts = batch(24, 2)
        assert log.append(cols, ts) == (24, 26)
        log.close()

    def test_retain_ms_drops_aged_segments(self, tmp_path):
        log = self.make(tmp_path, retain_ms=100)
        self.fill(log)  # last arrivals per segment: 0, 80, 160
        assert log.apply_retention(now_ms=200) == 16
        assert log.durable_floor == 16
        # the young segment and the tail survive and read strictly
        out, _ = log.read(16, 24)
        assert out["k"].tolist() == list(range(16, 24))
        log.close()

    def test_read_clamped_lags_strict_read_raises(self, tmp_path):
        log = self.make(tmp_path, retain_ms=100)
        self.fill(log)
        log.apply_retention(now_ms=200)
        cols, arrival, actual_lo = log.read_clamped(0, 24)
        assert actual_lo == 16
        assert cols["k"].tolist() == list(range(16, 24))
        assert arrival.tolist() == [160] * 8
        with pytest.raises(StoreError, match="retention floor"):
            log.read(0, 24)
        # a fully-discarded range comes back empty, never an error
        _cols, arr, lo = log.read_clamped(0, 10)
        assert len(arr) == 0 and lo == 10
        log.close()

    def test_protect_offset_and_tail_pin_segments(self, tmp_path):
        log = self.make(tmp_path, retain_bytes=0)
        self.fill(log)
        # protect offset 12 pins the segment [8,16) and everything above
        assert log.apply_retention(now_ms=0, protect_offset=12) == 8
        assert log.durable_floor == 8
        # unprotected, the sealed rest drops — but never the open tail
        assert log.apply_retention(now_ms=0) == 16
        assert log.durable_floor == 24
        assert log.apply_retention(now_ms=0) == 0
        log.close()

    def test_reopen_after_retention_keeps_floor(self, tmp_path):
        log = self.make(tmp_path, retain_ms=100)
        self.fill(log)
        log.apply_retention(now_ms=200)
        log.close()
        log2 = self.make(tmp_path)
        assert log2.durable_floor == 16
        assert log2.next_offset == 24
        out, _ = log2.read(16, 24)
        assert out["k"].tolist() == list(range(16, 24))
        with pytest.raises(StoreError):
            log2.read(0, 24)
        log2.close()

    def test_knob_validation(self, tmp_path):
        with pytest.raises(StoreError, match="retain_ms"):
            self.make(tmp_path, retain_ms=-1)
        with pytest.raises(StoreError, match="retain_bytes"):
            self.make(tmp_path, retain_bytes=-1)


# ---------------------------------------------------------------------------
# close(): a failed write must not leave a clean manifest behind
# ---------------------------------------------------------------------------


class TestDeliveryFailure:
    def test_failed_output_log_quarantines_the_producer(self, tmp_path):
        """An error while delivering a result (here: appending to an
        output stream whose log has failed) quarantines the producing
        factory like an evaluation error; the step returns."""
        engine = durable_engine(tmp_path)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous("SELECT k, v FROM s WHERE v > 0",
                                   name="up", output_stream="hot")
        engine.register_continuous("SELECT k FROM s", name="other")
        engine.basket("hot").log.failed = OSError("injected")
        engine.feed("s", [[1, 1.0], [2, -1.0]])
        engine.step(advance_ms=10)  # must not raise
        up = engine.continuous_query("up").factory
        assert up.state == "failed"
        (error,), = [list(engine.scheduler.failed)]
        assert "'up'" in str(error)
        assert "stream log 'hot' failed: injected" in str(error)
        # the rest of the net keeps firing
        engine.feed("s", [[3, 2.0]])
        engine.step(advance_ms=10)
        assert engine.results("other").rows() == [(1,), (2,), (3,)]
        engine.close()

    def test_raising_subscriber_callback_quarantines_the_producer(self):
        engine = DataCellEngine(clock=SimulatedClock())
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous("SELECT k FROM s", name="q")

        def callback(rel, now):
            raise RuntimeError("client exploded")

        engine.subscribe("q", callback)
        engine.feed("s", [[1, 1.0]])
        engine.step(advance_ms=10)
        assert engine.continuous_query("q").factory.state == "failed"
        assert "client exploded" in str(engine.scheduler.failed[-1])


class TestCloseAfterFailedWrite:
    def test_close_skips_manifest_and_reopen_scans_torn_tail(
            self, tmp_path):
        dry = StreamLog(str(tmp_path / "dry"), "dry", SCHEMA)
        dry.append(*batch(0, 4))
        dry.close()
        # room for the first group and 20 bytes of the second: a torn
        # tail on disk
        fault = FaultInjector(dry.bytes_written + 20)
        log = StreamLog(str(tmp_path / "s"), "s", SCHEMA,
                        segment_rows=64, durability="fsync", fault=fault)
        cols, ts = batch(0, 4)
        log.append(cols, ts)
        log.flush()
        manifest = tmp_path / "s" / "manifest.json"
        before = manifest.read_text()
        cols, ts = batch(4, 4)
        log.append(cols, ts)
        log.commit()
        assert isinstance(log.failed, InjectedCrash)
        log.close()
        # no clean manifest over rows that never fully landed
        assert manifest.read_text() == before
        log2 = StreamLog(str(tmp_path / "s"), "s", SCHEMA,
                         segment_rows=64, durability="fsync")
        assert log2.recovered and log2.torn_rows > 0
        assert log2.next_offset == 4
        assert log2.read(0, 4)[0]["k"].tolist() == [0, 1, 2, 3]
        log2.close()


# ---------------------------------------------------------------------------
# paged window binder: zero-copy views over sealed segments
# ---------------------------------------------------------------------------


def memmap_backed(values):
    base = np.asarray(values)
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


class TestPagedWindowBinder:
    def make(self, tmp_path, segments=4, **kw):
        log = StreamLog(str(tmp_path / "s"), "s", SCHEMA,
                        segment_rows=8, durability="fsync", **kw)
        for i in range(segments):
            cols, ts = batch(i * 8, 8)
            log.append(cols, ts)
            log.commit()
        return log, PagedWindowBinder(log, SCHEMA)

    def test_single_segment_window_is_zero_copy(self, tmp_path):
        log, pager = self.make(tmp_path)
        rel = pager.relation(8, 16)
        assert rel.row_count == 8
        k = rel.column("k")
        assert k.hseqbase == 8
        assert k.values.tolist() == list(range(8, 16))
        # fixed-width columns inside one sealed segment stay views
        # over the segment file, no copy
        assert memmap_backed(k.values)
        assert memmap_backed(rel.column("v").values)
        # strings have no fixed stride: copying fallback
        assert not memmap_backed(rel.column("tag").values)
        pager.relation(8, 16)
        assert pager.stats()["map_hits"] > 0
        log.close()

    def test_multi_segment_window_stitches(self, tmp_path):
        log, pager = self.make(tmp_path)
        rel = pager.relation(5, 21)
        assert rel.column("k").values.tolist() == list(range(5, 21))
        tags = rel.column("tag").values
        assert list(tags[:2]) == ["t5", None]  # nils round-trip
        assert rel.column("k").hseqbase == 5
        log.close()

    def test_clamps_to_floor_and_durable(self, tmp_path):
        log, pager = self.make(tmp_path, retain_ms=100)
        log.apply_retention(now_ms=200)  # drops [0,16)
        assert pager.floor == 16
        rel = pager.relation(0, 10 ** 6)
        assert rel.column("k").values.tolist() == list(range(16, 32))
        assert rel.column("k").hseqbase == 16
        log.close()

    def test_arrival_and_oid_at_or_after(self, tmp_path):
        log, pager = self.make(tmp_path)
        arr = np.asarray(pager.arrival(4, 20))
        assert arr.tolist() == [0] * 4 + [80] * 8 + [160] * 4
        # per-segment arrivals: [0,8)=0 [8,16)=80 [16,24)=160 [24,32)=240
        assert pager.oid_at_or_after(0, 32) == 0
        assert pager.oid_at_or_after(1, 32) == 8
        assert pager.oid_at_or_after(80, 32) == 8
        assert pager.oid_at_or_after(161, 32) == 24
        assert pager.oid_at_or_after(241, 32) == 32  # nothing newer
        log.close()

    def test_map_cache_is_bounded(self, tmp_path):
        log, pager = self.make(tmp_path, segments=6)
        pager.max_mapped_segments = 2
        for base in range(0, 48, 8):
            pager.relation(base, base + 8)
        stats = pager.stats()
        # 2 segments * (3 columns + __ts) entries at most
        assert stats["mapped_files"] <= 2 * 4
        assert stats["paged_reads"] == 6
        assert stats["paged_rows"] == 48
        log.close()


# ---------------------------------------------------------------------------
# basket paging: windows below first_oid read through the binder
# ---------------------------------------------------------------------------


def paged_basket(tmp_path, vacuum_upto=24):
    basket = Basket("s", SCHEMA)
    log = StreamLog(str(tmp_path / "s"), "s", SCHEMA,
                    segment_rows=8, durability="fsync")
    basket.attach_log(log)
    basket.attach_pager(PagedWindowBinder(log, SCHEMA))
    rows = [(i, i * 0.5, f"t{i}" if i % 3 else None)
            for i in range(32)]
    for i in range(4):
        basket.append_rows(rows[i * 8:(i + 1) * 8], now=80 * i)
        log.commit()
    if vacuum_upto:
        sub = basket.subscribe("gc")
        sub.read_upto = sub.released_upto = vacuum_upto
        assert basket.vacuum() == vacuum_upto
        basket.unsubscribe("gc")
    return basket, log


class TestBasketPaging:
    def test_relation_below_first_oid_pages_and_merges(self, tmp_path):
        basket, log = paged_basket(tmp_path)
        assert basket.first_oid == 24
        rel = basket.relation(4, 28)
        assert rel.column("k").values.tolist() == list(range(4, 28))
        assert rel.column("tag").values[2] is None  # oid 6: nil
        assert basket.pager.stats()["paged_reads"] >= 1
        assert basket.first_oid == 24  # paged, never rehydrated
        log.close()

    def test_history_floor_and_clamp(self, tmp_path):
        basket, log = paged_basket(tmp_path)
        assert basket.history_floor() == 0
        assert basket.clamp_range(0, None) == (0, 32)
        log.close()

    def test_arrival_slice_spans_history(self, tmp_path):
        basket, log = paged_basket(tmp_path)
        arr, (lo, hi) = basket.arrival_slice(0, 32)
        assert (lo, hi) == (0, 32)
        assert np.asarray(arr).tolist() == \
            sum(([80 * i] * 8 for i in range(4)), [])
        log.close()

    def test_oid_at_or_after_pages(self, tmp_path):
        basket, log = paged_basket(tmp_path)
        # memory holds [24,32) only; earlier arrivals resolve via the
        # log's __ts segments instead of snapping to first_oid
        assert basket.oid_at_or_after(0) == 0
        assert basket.oid_at_or_after(81) == 16
        assert basket.oid_at_or_after(240) == 24
        log.close()

    def test_subscribe_from_start_reaches_floor(self, tmp_path):
        basket, log = paged_basket(tmp_path)
        sub = basket.subscribe("replay", from_start=True)
        assert sub.read_upto == 0  # not clamped to first_oid
        log.close()


# ---------------------------------------------------------------------------
# engine: retention + replay-gap contract, paged from_start
# ---------------------------------------------------------------------------


def retained_engine(tmp_path):
    """Durable engine with aggressive retention: feed ROWS through a
    standing query so vacuum + retention truncate a real prefix."""
    engine = durable_engine(tmp_path, segment_rows=4, retain_bytes=0,
                            checkpoint_interval_s=10 ** 6)
    engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
    engine.register_continuous(QUERY, name="q", mode="reeval")
    drive(engine, ROWS)
    drain(engine)
    dropped = engine.apply_retention()
    assert dropped.get("s", 0) > 0
    floor = engine.basket("s").history_floor()
    assert floor > 0
    return engine, floor


class TestEngineRetention:
    def test_from_offset_below_floor_raises_replay_gap(self, tmp_path):
        engine, floor = retained_engine(tmp_path)
        with pytest.raises(ReplayGap) as exc:
            engine.register_continuous(QUERY, name="late",
                                       mode="reeval", from_offset=0)
        assert exc.value.requested == 0
        assert exc.value.floor == floor
        # the gap did not half-register anything
        assert [q.name for q in engine.queries()] == ["q"]
        # at or above the floor the same registration is fine
        engine.register_continuous(QUERY, name="late", mode="reeval",
                                   from_offset=floor)
        engine.close()

    def test_from_start_lags_to_floor(self, tmp_path):
        engine, floor = retained_engine(tmp_path)
        first_before = engine.basket("s").first_oid
        expected = emissions(engine, "q")
        engine.register_continuous(QUERY, name="late", mode="reeval",
                                   from_start=True)
        drain(engine, steps=20)
        got = emissions(engine, "late")
        # fires from the oldest retained offset, converging on the
        # same windows the live query saw
        assert got and got[-1] == expected[-1]
        assert engine.basket("s").first_oid >= first_before
        engine.close()

    def test_rehydrate_gap_detected(self, tmp_path):
        engine, floor = retained_engine(tmp_path)
        basket = engine.basket("s")
        with pytest.raises(ReplayGap) as exc:
            engine._rehydrate_stream("s", 0)
        assert exc.value.floor == floor
        assert basket.first_oid > floor  # nothing silently rehydrated
        # acknowledging the gap pulls back the surviving suffix with
        # an honest base: first_oid lands on the floor, not below
        first = basket.first_oid
        n = engine._rehydrate_stream("s", 0, allow_gap=True)
        assert n == first - floor
        assert basket.first_oid == floor
        rel = basket.relation(floor, first)
        assert rel.row_count == n
        engine.close()

    def test_read_stream_range_lags_to_floor(self, tmp_path):
        engine, floor = retained_engine(tmp_path)
        hi = engine.basket("s").next_oid
        parts = engine.read_stream_range("s", 0, hi)
        assert parts[0][0] == floor  # skipped, not raised
        prev = floor
        rows = 0
        for lo, phi, rel in parts:
            assert lo == prev
            rows += rel.row_count
            prev = phi
        assert prev == hi and rows == hi - floor
        engine.close()

    def test_from_start_pages_without_rehydration(self, tmp_path):
        """The tentpole contract: a from_start replay over a vacuumed
        basket reads history straight out of the log — byte-identical
        emissions, no rehydration into basket memory."""
        engine = durable_engine(tmp_path, segment_rows=4)
        engine.execute("CREATE STREAM s (sid INT, temp FLOAT)")
        engine.register_continuous(QUERY, name="q", mode="reeval")
        drive(engine, ROWS)
        drain(engine)
        expected = emissions(engine)
        basket = engine.basket("s")
        assert basket.first_oid > 0  # vacuum happened
        first_before = basket.first_oid
        engine.register_continuous(QUERY, name="late", mode="reeval",
                                   from_start=True)
        drain(engine, steps=24)
        assert emissions(engine, "late") == expected
        assert basket.first_oid >= first_before  # never rehydrated
        assert basket.pager.stats()["paged_reads"] > 0
        engine.close()

    def test_retention_stats_and_log_pane(self, tmp_path):
        engine, _floor = retained_engine(tmp_path)
        stats = engine.log_stats()
        assert stats["retain_bytes"] == 0
        assert stats["retention_rows_dropped"] > 0
        s = stats["streams"]["s"]
        assert s["durable_floor"] > 0
        assert s["retention_truncations"] >= 1
        assert "pager" in s
        pane = engine.monitor.log()
        assert "retention [" in pane
        assert "floor=" in pane and "truncations=" in pane
        engine.close()


# ---------------------------------------------------------------------------
# network: a subscriber below the retention floor lags, not dies
# ---------------------------------------------------------------------------


class TestNetRetention:
    def test_subscribe_from_zero_lags_to_floor(self, tmp_path):
        from repro.net.client import DataCellClient
        from repro.net.server import DataCellServer

        # every step commits what it pumped, so each 10-row ingest
        # batch (or the few one step pumps) seals its own segment
        engine = DataCellEngine(clock=WallClock(),
                                data_dir=str(tmp_path),
                                durability="async",
                                segment_rows=8, retain_bytes=0,
                                checkpoint_interval_s=10 ** 6)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        # a sliding window holds the last stretch in the basket, so
        # retention truncates a strict prefix of the log
        engine.register_continuous(
            "SELECT k, v FROM s [RANGE 16 SLIDE 8]", name="w",
            mode="reeval")
        server = DataCellServer(engine)
        server.start()
        try:
            with DataCellClient(port=server.port) as producer:
                ingest_range(producer, 0, 64)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline \
                        and engine.basket("s").first_oid < 48:
                    time.sleep(0.05)
                # a barrier: everything ingested is durable
                server.submit(engine.checkpoint).result(5)
                dropped = server.submit(engine.apply_retention).result(5)
                assert dropped.get("s", 0) > 0
                floor = engine.basket("s").history_floor()
                assert floor > 0
                with DataCellClient(port=server.port) as consumer:
                    consumer.subscribe_stream("s", from_offset=0)
                    ingest_range(producer, 64, 80)
                    got = []
                    deadline = time.monotonic() + 8.0
                    while time.monotonic() < deadline:
                        got.extend(consumer.results(max_batches=10,
                                                    timeout=0.5))
                        if got and got[-1].end == 80:
                            break
                    ks = [r[0] for b in got for r in b.rows]
                    # connection survived; delivery starts at the
                    # floor and is gapless from there on
                    assert got[0].offset == floor
                    assert ks == list(range(floor, 80))
                    time.sleep(0.2)  # let the server see the acks
                    stats = consumer.stats()["net"]["connections"]
                    subs = [sub for c in stats for sub in
                            c.get("stream_subscriptions", [])]
                    assert subs and subs[0]["skipped_rows"] == floor
        finally:
            server.stop()
            engine.close()

    def test_fully_truncated_history_counts_skipped_rows(
            self, tmp_path):
        from repro.net.client import DataCellClient
        from repro.net.server import DataCellServer

        # a per-slide-releasing query lets retention drop *every*
        # sealed segment: the pump's replay chunks then come back
        # entirely empty (no partial clamp), which must still be
        # accounted as skipped rows
        engine = DataCellEngine(clock=WallClock(),
                                data_dir=str(tmp_path),
                                durability="async",
                                segment_rows=8, retain_bytes=0,
                                checkpoint_interval_s=10 ** 6)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, v FROM s [RANGE 8 SLIDE 8]", name="w",
            mode="reeval")
        # eight replay chunks, all discarded: the pump must skip them
        # all without waiting for an append in between
        server = DataCellServer(engine, replay_chunk_rows=8)
        server.start()
        try:
            with DataCellClient(port=server.port) as producer:
                # chunk == segment_rows: every segment seals exactly
                # full, so retention can drop all 64 rows
                ingest_range(producer, 0, 64, chunk=8)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline \
                        and engine.basket("s").first_oid < 64:
                    time.sleep(0.05)
                server.submit(engine.checkpoint).result(5)
                server.submit(engine.apply_retention).result(5)
                floor = engine.basket("s").history_floor()
                assert floor == 64  # nothing retained below the head
                with DataCellClient(port=server.port) as consumer:
                    consumer.subscribe_stream("s", from_offset=0)
                    ingest_range(producer, 64, 72)
                    got = []
                    deadline = time.monotonic() + 8.0
                    while time.monotonic() < deadline:
                        got.extend(consumer.results(max_batches=10,
                                                    timeout=0.5))
                        if got and got[-1].end == 72:
                            break
                    assert got and got[0].offset == 64
                    time.sleep(0.2)
                    stats = consumer.stats()["net"]["connections"]
                    subs = [sub for c in stats for sub in
                            c.get("stream_subscriptions", [])]
                    assert subs and subs[0]["skipped_rows"] == 64
        finally:
            server.stop()
            engine.close()


# ---------------------------------------------------------------------------
# network: teardown of abruptly dropped subscribers, server kill mid-tail
# ---------------------------------------------------------------------------


class TestTeardownOnDrop:
    def test_abrupt_drop_mid_replay_joins_pump_and_folds(self, served):
        """A client vanishing mid-replay (socket closed, no goodbye)
        must have its pump task joined, its basket tap removed and its
        delivered counters folded into the server totals."""
        from repro.net.client import DataCellClient

        engine, server = served
        with DataCellClient(port=server.port) as producer:
            ingest_range(producer, 0, 3000, chunk=500)
        time.sleep(0.3)
        basket = engine.basket("s")
        taps_before = len(basket._taps)
        consumer = DataCellClient(port=server.port)
        consumer.subscribe_stream("s", from_offset=0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline \
                and len(basket._taps) != taps_before + 1:
            time.sleep(0.02)
        assert len(basket._taps) == taps_before + 1
        got = collect_rows(consumer, 1)  # at least one replay batch
        assert got
        # vanish abruptly: raw socket close, no UNSUBSCRIBE, no close()
        consumer._stream.sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline \
                and server._snapshot_conns():
            time.sleep(0.02)
        assert server._snapshot_conns() == []   # conn torn down
        assert len(basket._taps) == taps_before  # pump tap released
        totals = server.net_stats()["totals"]
        assert totals["delivered_batches"] >= len(got)
        assert totals["delivered_rows"] >= \
            sum(b.row_count for b in got)


class TestServerKillMidTail:
    def test_kill_and_restart_resumes_no_duplicates(self, tmp_path):
        """Kill the live server socket under a `repro tail
        --reconnect` loop, restart on the same port with the same
        engine: the tail resumes from the last delivered offset and
        every row arrives exactly once."""
        import threading

        from repro.net import cli as net_cli
        from repro.net.client import DataCellClient
        from repro.net.server import DataCellServer

        engine = DataCellEngine(clock=WallClock(),
                                data_dir=str(tmp_path),
                                durability="async",
                                checkpoint_interval_s=0.25)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        server1 = DataCellServer(engine)
        server1.start()
        port = server1.port
        with DataCellClient(port=port) as producer:
            ingest_range(producer, 0, 40)
        time.sleep(0.3)

        out = io.StringIO()
        rc = []

        def run_tail():
            rc.append(net_cli.main(
                ["tail", "s", "--port", str(port), "--from", "start",
                 "--reconnect", "--count", "999", "--timeout", "2.0",
                 "--max-retries", "60"], out=out))

        thread = threading.Thread(target=run_tail, daemon=True)
        thread.start()
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline \
                and "39, 39.0" not in out.getvalue():
            time.sleep(0.05)
        assert "39, 39.0" in out.getvalue()  # replay fully delivered

        server1.stop()  # the socket dies mid-tail
        # rows arriving while the edge is down land in the log/basket
        engine.feed("s", [[k, float(k)] for k in range(40, 70)])
        server2 = DataCellServer(engine, host="127.0.0.1", port=port)
        server2.start()
        try:
            with DataCellClient(port=port) as producer:
                ingest_range(producer, 70, 80)
            thread.join(30.0)
            assert not thread.is_alive()
            assert rc == [0]
        finally:
            server2.stop()
            engine.close()
        text = out.getvalue()
        # the loop reconnected and resumed past offset 0
        assert text.count("subscribed to stream 's'") >= 2
        assert "from offset 0" in text
        ks = [int(line.strip().split(",")[0])
              for line in text.splitlines() if line.startswith("  ")]
        assert ks == list(range(80))  # exactly once: no dup, no gap

"""Unit tests for receptors, emitters, result queues and stream sources."""

import pytest

from repro.core.basket import Basket
from repro.core.emitter import Emitter, QueueSink
from repro.core.receptor import Receptor
from repro.errors import StreamError
from repro.mal.relation import Relation
from repro.storage import Schema
from repro.streams.source import (GeneratorSource, ListSource, RateSource,
                                  merge_sources)


@pytest.fixture
def basket():
    return Basket("s", Schema.parse([("k", "INT")]))


class TestSources:
    def test_list_source(self):
        src = ListSource([(0, (1,)), (5, (2,))])
        assert list(src) == [(0, (1,)), (5, (2,))]
        assert len(src) == 2

    def test_list_source_rejects_regression(self):
        with pytest.raises(StreamError):
            ListSource([(5, (1,)), (0, (2,))])

    def test_rate_source_timestamps(self):
        src = RateSource([(1,), (2,), (3,)], rate=10, start_ms=100)
        assert [ts for ts, _row in src] == [100, 200, 300]

    def test_rate_source_positive_rate(self):
        with pytest.raises(StreamError):
            RateSource([], rate=0)

    def test_generator_source_replayable(self):
        src = GeneratorSource(lambda: iter([(0, (1,))]))
        assert list(src) == list(src)

    def test_merge_sources_time_ordered(self):
        a = ListSource([(0, ("a",)), (10, ("a2",))])
        b = ListSource([(5, ("b",))])
        merged = list(merge_sources(a, b))
        assert [row[0] for _ts, row in merged] == ["a", "b", "a2"]


class TestReceptor:
    def test_pump_respects_timestamps(self, basket):
        receptor = Receptor("r", basket,
                            ListSource([(0, (1,)), (10, (2,)),
                                        (20, (3,))]))
        assert receptor.pump(now=10) == 2
        assert len(basket) == 2
        assert receptor.pump(now=10) == 0
        assert receptor.pump(now=20) == 1
        assert receptor.exhausted

    def test_pump_batches_same_timestamp(self, basket):
        receptor = Receptor("r", basket,
                            ListSource([(5, (1,)), (5, (2,))]))
        assert receptor.pump(now=5) == 2
        assert basket.arrival_slice(0, 2)[0].tolist() == [5, 5]

    def test_next_event_time(self, basket):
        receptor = Receptor("r", basket, ListSource([(7, (1,))]))
        assert receptor.next_event_time() == 7
        receptor.pump(7)
        assert receptor.next_event_time() is None

    def test_paused_pump_is_noop(self, basket):
        receptor = Receptor("r", basket, ListSource([(0, (1,))]))
        receptor.pause()
        assert receptor.pump(0) == 0
        receptor.resume()
        assert receptor.pump(0) == 1

    def test_feed_direct(self, basket):
        receptor = Receptor("r", basket)
        assert receptor.feed([(1,), (2,)], now=3) == 2
        assert receptor.total_ingested == 2

    def test_feed_paused_raises(self, basket):
        receptor = Receptor("r", basket)
        receptor.pause()
        with pytest.raises(StreamError):
            receptor.feed([(1,)], now=0)

    def test_sourceless_receptor_exhausted(self, basket):
        assert Receptor("r", basket).exhausted


def _rel(rows):
    return Relation.from_rows(Schema.parse([("x", "INT")]),
                              [(r,) for r in rows])


class TestEmitter:
    def test_collecting_sink(self):
        emitter = Emitter(QueueSink("q"))
        emitter.deliver(_rel([1, 2]), now=5)
        emitter.deliver(_rel([3]), now=9)
        queue = emitter.queue
        assert queue.rows() == [(1,), (2,), (3,)]
        assert queue.latest().to_rows() == [(3,)]
        assert len(queue) == 2
        assert emitter.total_batches == 2
        assert emitter.total_rows == 3
        assert emitter.last_delivery_time == 9

    def test_callback_sink(self):
        seen = []
        emitter = Emitter(QueueSink("q"))

        def drain():
            while (item := follower.next()) is not None:
                seen.append((item[1], item[2].row_count))

        follower = emitter.queue.follow(drain)
        emitter.deliver(_rel([1]), now=4)
        assert seen == [(4, 1)]

    def test_multiple_sinks_all_notified(self):
        emitter = Emitter(QueueSink("q"))
        woken = []
        a = emitter.queue.follow(lambda: woken.append("a"))
        b = emitter.queue.follow(lambda: woken.append("b"))
        emitter.deliver(_rel([1]), now=0)
        assert woken == ["a", "b"]
        assert a.next()[0] == b.next()[0] == 0

    def test_clear(self):
        queue = QueueSink("q")
        queue.deliver(_rel([1]), 0)
        queue.clear()
        assert queue.latest() is None

    def test_remove_sink(self):
        queue = QueueSink("q")
        woken = []
        follower = queue.follow(lambda: woken.append(1))
        follower.close()
        queue.deliver(_rel([1]), now=0)
        assert woken == [] and queue.depth() == 0
        follower.close()  # detaching twice is a no-op


class TestCollectingSinkRing:
    """The in-process view of a query's result queue: a ring of
    ``(now, relation)`` batches."""

    def test_unbounded_by_default(self):
        queue = QueueSink("q")
        for i in range(5):
            queue.deliver(_rel([i]), now=i)
        assert len(queue) == 5 and queue.dropped_batches == 0

    def test_ring_drops_oldest(self):
        queue = QueueSink("q", max_batches=2)
        for i in range(5):
            queue.deliver(_rel([i]), now=i)
        assert len(queue) == 2
        assert queue.dropped_batches == 3
        assert queue.rows() == [(3,), (4,)]  # oldest evicted first
        assert queue.latest().to_rows() == [(4,)]

    def test_set_max_batches_trims_retroactively(self):
        queue = QueueSink("q")
        for i in range(4):
            queue.deliver(_rel([i]), now=i)
        queue.set_max_batches(2)
        assert queue.rows() == [(2,), (3,)]
        queue.set_max_batches(None)  # unbound again
        queue.deliver(_rel([9]), now=9)
        assert len(queue) == 3

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            QueueSink("q", max_batches=0)


class TestReceptorPauseResume:
    def test_pause_mid_stream_resumes_where_left(self, basket):
        receptor = Receptor("r", basket,
                            ListSource([(0, (1,)), (5, (2,)),
                                        (10, (3,))]))
        assert receptor.pump(now=0) == 1
        receptor.pause()
        assert receptor.pump(now=20) == 0  # nothing lost, nothing read
        assert not receptor.exhausted
        receptor.resume()
        assert receptor.pump(now=20) == 2
        assert receptor.exhausted
        assert receptor.total_ingested == 3

    def test_pause_is_idempotent(self, basket):
        receptor = Receptor("r", basket, ListSource([(0, (1,))]))
        receptor.pause()
        receptor.pause()
        receptor.resume()
        receptor.resume()
        assert receptor.pump(0) == 1

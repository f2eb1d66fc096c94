"""Unit tests for baskets: ingestion, subscriptions, draining."""

import pytest

from repro.core.basket import Basket
from repro.errors import StreamError
from repro.storage import Schema


@pytest.fixture
def basket():
    return Basket("s", Schema.parse([("k", "INT"), ("v", "FLOAT")]))


class TestIngestion:
    def test_append_rows(self, basket):
        assert basket.append_rows([(1, 1.0), (2, None)], now=10) == 2
        assert len(basket) == 2
        assert basket.total_in == 2

    def test_append_empty(self, basket):
        assert basket.append_rows([], now=0) == 0

    def test_wrong_width(self, basket):
        with pytest.raises(StreamError):
            basket.append_rows([(1,)], now=0)

    def test_values_coerced(self, basket):
        basket.append_rows([(1.0, 2)], now=0)
        assert basket.relation().to_rows() == [(1, 2.0)]

    def test_paused_rejects(self, basket):
        basket.paused = True
        with pytest.raises(StreamError):
            basket.append_rows([(1, 1.0)], now=0)

    def test_high_water(self, basket):
        basket.append_rows([(i, 0.0) for i in range(5)], now=0)
        assert basket.high_water == 5

    def test_append_relation(self, basket):
        from repro.mal.relation import Relation

        rel = Relation.from_rows(basket.schema, [(7, 7.0)])
        assert basket.append_relation(rel, now=1) == (0, 1)
        assert basket.relation().to_rows() == [(7, 7.0)]
        # the appended oid range, empty appends included
        assert basket.append_relation(rel, now=2) == (1, 2)
        empty = Relation.from_rows(basket.schema, [])
        assert basket.append_relation(empty, now=3) == (2, 2)


class TestOids:
    def test_oid_range(self, basket):
        basket.append_rows([(1, 1.0), (2, 2.0)], now=0)
        assert basket.first_oid == 0 and basket.next_oid == 2

    def test_relation_slice_by_oid(self, basket):
        basket.append_rows([(i, float(i)) for i in range(5)], now=0)
        rel = basket.relation(1, 3)
        assert rel.to_rows() == [(1, 1.0), (2, 2.0)]

    def test_oids_stable_after_drain(self, basket):
        basket.append_rows([(i, float(i)) for i in range(5)], now=0)
        sub = basket.subscribe("q", from_start=True)
        sub.release(3)
        assert basket.vacuum() == 3
        assert basket.first_oid == 3
        assert basket.relation(3, 5).to_rows() == [(3, 3.0), (4, 4.0)]

    def test_relation_clamps_to_live_range(self, basket):
        basket.append_rows([(1, 1.0)], now=0)
        assert basket.relation(-5, 100).row_count == 1

    def test_arrival_slice(self, basket):
        basket.append_rows([(1, 1.0)], now=5)
        basket.append_rows([(2, 2.0)], now=9)
        arr, (lo, hi) = basket.arrival_slice(0, 2)
        assert arr.tolist() == [5, 9]
        assert (lo, hi) == (0, 2)

    def test_arrival_slice_reports_clamped_range(self, basket):
        # after a partial vacuum a stale lo_oid falls below first_oid;
        # the returned bounds tell the caller which oids the array
        # actually covers (arr[i] is the arrival of lo + i)
        for i in range(5):
            basket.append_rows([(i, float(i))], now=10 + i)
        sub = basket.subscribe("q", from_start=True)
        sub.release(3)
        assert basket.vacuum() == 3
        arr, (lo, hi) = basket.arrival_slice(0, 5)
        assert (lo, hi) == (3, 5)
        assert arr.tolist() == [13, 14]
        # fully vacuumed range: empty array, collapsed bounds
        arr, (lo, hi) = basket.arrival_slice(0, 2)
        assert arr.tolist() == []
        assert lo == hi == 3

    def test_oid_at_or_after(self, basket):
        basket.append_rows([(1, 1.0)], now=5)
        basket.append_rows([(2, 2.0)], now=9)
        assert basket.oid_at_or_after(6) == 1
        assert basket.oid_at_or_after(5) == 0
        assert basket.oid_at_or_after(100) == 2


class TestSubscriptions:
    def test_new_subscriber_starts_at_head(self, basket):
        basket.append_rows([(1, 1.0)], now=0)
        sub = basket.subscribe("q")
        assert sub.read_upto == 1

    def test_from_start_replays(self, basket):
        basket.append_rows([(1, 1.0)], now=0)
        sub = basket.subscribe("q", from_start=True)
        assert sub.read_upto == 0

    def test_duplicate_name_rejected(self, basket):
        basket.subscribe("q")
        with pytest.raises(StreamError):
            basket.subscribe("q")

    def test_unsubscribe(self, basket):
        basket.subscribe("q")
        basket.unsubscribe("q")
        assert basket.subscriptions() == []

    def test_release_monotone(self, basket):
        sub = basket.subscribe("q")
        sub.release(5)
        sub.release(3)  # no-op backwards
        assert sub.released_upto == 5


class TestVacuum:
    def test_no_subscribers_keeps_everything(self, basket):
        basket.append_rows([(1, 1.0)], now=0)
        assert basket.vacuum() == 0
        assert len(basket) == 1

    def test_drains_min_released(self, basket):
        basket.append_rows([(i, 0.0) for i in range(10)], now=0)
        a = basket.subscribe("a", from_start=True)
        b = basket.subscribe("b", from_start=True)
        a.release(7)
        b.release(4)
        assert basket.vacuum() == 4
        assert basket.total_dropped == 4
        b.release(7)
        assert basket.vacuum() == 3

    def test_conservation(self, basket):
        basket.append_rows([(i, 0.0) for i in range(10)], now=0)
        sub = basket.subscribe("q", from_start=True)
        sub.release(6)
        basket.vacuum()
        assert basket.total_in == basket.total_dropped + len(basket)


class TestLocking:
    def test_lock_unlock(self, basket):
        basket.lock("q1")
        assert basket.locked_by == "q1"
        basket.unlock("q1")
        assert basket.locked_by is None

    def test_reentrant(self, basket):
        basket.lock("q1")
        basket.lock("q1")
        basket.unlock("q1")
        basket.unlock("q1")


class TestStats:
    def test_stats_keys(self, basket):
        basket.append_rows([(1, 1.0)], now=0)
        stats = basket.stats()
        assert stats == {"size": 1, "total_in": 1, "total_dropped": 0,
                         "high_water": 1, "subscribers": 0}

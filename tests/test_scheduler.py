"""Unit tests for the Petri-net scheduler."""

import pytest

from repro.core.basket import Basket
from repro.core.clock import SimulatedClock, WallClock
from repro.core.emitter import Emitter, QueueSink
from repro.core.factory import FAILED, Factory
from repro.core.receptor import Receptor
from repro.core.scheduler import PetriNetScheduler
from repro.errors import SchedulerError
from repro.storage import Schema
from repro.streams.source import ListSource


class StubFactory(Factory):
    """Fires whenever its basket has unread tuples; consumes them all."""

    def __init__(self, name, basket, fail_after=None):
        super().__init__(name, {basket.name: basket},
                         Emitter(QueueSink(name)))
        self.basket = basket
        self.sub = basket.subscribe(name)
        self.fail_after = fail_after

    def enabled(self, now):
        return self.state == "running" \
            and self.basket.next_oid > self.sub.read_upto

    def _evaluate(self, now):
        if self.fail_after is not None and self.fires >= self.fail_after:
            raise ValueError("boom")
        lo, hi = self.sub.read_upto, self.basket.next_oid
        out = self.basket.relation(lo, hi)
        self.tuples_in += out.row_count
        return out, hi

    def _commit(self, now, consumed):
        self.sub.read_upto = consumed
        self.sub.release(consumed)


@pytest.fixture
def net():
    clock = SimulatedClock()
    scheduler = PetriNetScheduler(clock)
    basket = Basket("s", Schema.parse([("k", "INT")]))
    scheduler.add_basket(basket)
    return scheduler, basket, clock


class TestRegistration:
    def test_duplicate_basket(self, net):
        scheduler, basket, _clock = net
        with pytest.raises(SchedulerError):
            scheduler.add_basket(Basket("s", basket.schema))

    def test_remove_factory(self, net):
        scheduler, basket, _clock = net
        scheduler.add_factory(StubFactory("f", basket))
        scheduler.remove_factory("f")
        assert scheduler.factories == []

    def test_mixed_case_basket_registered_and_removed(self, net):
        """A basket whose name somehow kept mixed case must still be
        registered and removed under the lowercase key."""
        scheduler, _basket, _clock = net
        rogue = Basket("t", Schema.parse([("k", "INT")]))
        rogue.name = "MixedCase"  # simulate a non-normalizing builder
        scheduler.add_basket(rogue)
        assert "mixedcase" in scheduler.baskets
        scheduler.remove_basket("MixedCase")
        assert "mixedcase" not in scheduler.baskets


class TestStep:
    def test_pump_fire_vacuum(self, net):
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor(
            "r", basket, ListSource([(0, (1,)), (0, (2,))])))
        factory = StubFactory("f", basket)
        scheduler.add_factory(factory)
        out = scheduler.step()
        assert out == {"ingested": 2, "fired": 1, "dropped": 2}
        assert factory.rows_out == 2
        assert len(basket) == 0

    def test_nothing_to_do(self, net):
        scheduler, _basket, _clock = net
        assert scheduler.step() == {"ingested": 0, "fired": 0,
                                    "dropped": 0}

    def test_paused_net_still_pumps_receptors(self, net):
        """Pause holds back firing, not arrival: stepping a paused net
        keeps draining receptors into baskets so no in-flight event is
        lost, but fires nothing and vacuums nothing."""
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor("r", basket,
                                        ListSource([(0, (1,))])))
        factory = StubFactory("f", basket)
        scheduler.add_factory(factory)
        scheduler.paused = True
        out = scheduler.step()
        assert out == {"ingested": 1, "fired": 0, "dropped": 0}
        # the tuple accumulated in the basket while paused
        assert len(basket) == 1
        assert factory.fires == 0
        scheduler.paused = False
        out = scheduler.step()
        assert out["fired"] == 1
        assert factory.rows_out == 1

    def test_multiple_factories_share_basket(self, net):
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor("r", basket,
                                        ListSource([(0, (1,))])))
        f1 = StubFactory("f1", basket)
        f2 = StubFactory("f2", basket)
        scheduler.add_factory(f1)
        scheduler.add_factory(f2)
        out = scheduler.step()
        assert out["fired"] == 2
        # tuple dropped only after BOTH consumed it
        assert out["dropped"] == 1

    def test_failed_factory_quarantined(self, net):
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor(
            "r", basket, ListSource([(0, (1,)), (10, (2,))])))
        bad = StubFactory("bad", basket, fail_after=0)
        scheduler.add_factory(bad)
        scheduler.step()
        assert bad.state == FAILED
        assert len(scheduler.failed) == 1
        # the net keeps running without it
        scheduler.clock.advance(10)
        out = scheduler.step()
        assert out["fired"] == 0
        assert bad not in scheduler.enabled_transitions()


class TestRunners:
    def test_run_for_advances_clock(self, net):
        scheduler, basket, clock = net
        scheduler.add_receptor(Receptor(
            "r", basket, ListSource([(5, (1,)), (25, (2,))])))
        scheduler.add_factory(StubFactory("f", basket))
        totals = scheduler.run_for(30, step_ms=10)
        assert totals["ingested"] == 2
        assert clock.now() == 30

    def test_run_for_needs_simulated_clock(self):
        scheduler = PetriNetScheduler(WallClock())
        with pytest.raises(SchedulerError):
            scheduler.run_for(10)

    def test_run_for_rejects_bad_step(self, net):
        scheduler, _basket, _clock = net
        with pytest.raises(SchedulerError):
            scheduler.run_for(10, step_ms=0)

    def test_run_until_drained(self, net):
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor(
            "r", basket, ListSource([(0, (1,)), (1000, (2,))])))
        factory = StubFactory("f", basket)
        scheduler.add_factory(factory)
        totals = scheduler.run_until_drained()
        assert totals["ingested"] == 2
        assert factory.fires == 2

    def test_run_until_drained_skips_to_event_times(self, net):
        scheduler, basket, clock = net
        scheduler.add_receptor(Receptor(
            "r", basket, ListSource([(1_000_000, (1,))])))
        scheduler.add_factory(StubFactory("f", basket))
        totals = scheduler.run_until_drained(max_steps=10)
        assert totals["ingested"] == 1
        assert clock.now() >= 1_000_000


class TestStats:
    def test_network_stats_shape(self, net):
        scheduler, basket, _clock = net
        scheduler.add_factory(StubFactory("f", basket))
        scheduler.step()
        stats = scheduler.network_stats()
        assert "s" in stats["baskets"]
        assert "f" in stats["factories"]
        assert stats["steps"] == 1


class Greedy(StubFactory):
    """Always enabled, never consumes — the livelock/burst pathology."""

    def enabled(self, now):
        return True

    def _evaluate(self, now):
        return None, None

    def _commit(self, now, consumed):
        return None


class TestLivelockGuard:
    def test_nonquiescing_network_raises(self, net):
        """A factory that is always enabled but never consumes must be
        detected instead of hanging the step loop."""
        scheduler, basket, _clock = net
        scheduler.add_factory(Greedy("greedy", basket))
        with pytest.raises(SchedulerError, match="quiesce"):
            scheduler.step()

    def test_burst_guard_message_names_factory(self, net):
        scheduler, basket, _clock = net
        scheduler.add_factory(Greedy("greedy", basket))
        with pytest.raises(SchedulerError, match="greedy"):
            scheduler.step()


class TestFailureBookkeeping:
    def test_failed_factories_skipped_in_enabled_transitions(self, net):
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor("r", basket,
                                        ListSource([(0, (1,))])))
        bad = StubFactory("bad", basket, fail_after=0)
        good = StubFactory("good", basket)
        scheduler.add_factory(bad)
        scheduler.add_factory(good)
        scheduler.step()
        assert bad.state == FAILED
        basket.append_rows([(2,)], now=0)
        enabled = scheduler.enabled_transitions()
        assert bad not in enabled and good in enabled

    def test_failed_list_is_bounded(self):
        """A persistently failing factory must not grow the error list
        without limit; the total keeps counting."""
        clock = SimulatedClock()
        scheduler = PetriNetScheduler(clock, max_failed_kept=5)
        basket = Basket("s", Schema.parse([("k", "INT")]))
        scheduler.add_basket(basket)

        class Phoenix(StubFactory):
            def _evaluate(self, now):
                raise ValueError("boom")

        for i in range(12):
            phoenix = Phoenix(f"p{i}", basket)
            scheduler.add_factory(phoenix)
            basket.append_rows([(i,)], now=0)
            scheduler.step()
            scheduler.remove_factory(phoenix.name)
            basket.unsubscribe(phoenix.name)
        assert scheduler.failed_total == 12
        assert len(scheduler.failed) == 5
        stats = scheduler.network_stats()
        assert stats["failed_total"] == 12
        assert len(stats["failed"]) == 5


class TestFailureIsolation:
    def test_failure_quarantines_only_that_factory(self, net):
        scheduler, basket, _clock = net
        scheduler.add_receptor(Receptor(
            "r", basket, ListSource([(0, (1,))])))
        bad = StubFactory("bad", basket, fail_after=0)
        good = StubFactory("good", basket)
        scheduler.add_factory(bad)
        scheduler.add_factory(good)
        out = scheduler.step()
        assert bad.state == FAILED
        assert good.state == "running"
        assert out["fired"] == 1
        assert scheduler.failed_total == 1

    def test_fatal_error_raises_after_earlier_quarantines(self, net):
        """Anything but a FactoryError aborts the step where it
        happens; quarantines recorded before it stay recorded."""

        class FatalFactory(StubFactory):
            def __init__(self, name, basket):
                super().__init__(name, basket)
                self._enabled_calls = 0

            def enabled(self, now):
                # fire once, then wedge inside the burst loop
                self._enabled_calls += 1
                if self._enabled_calls > 1:
                    raise RuntimeError("wedged")
                return super().enabled(now)

        scheduler, basket, _clock = net
        bad = StubFactory("bad", basket, fail_after=0)
        fatal = FatalFactory("fatal", basket)
        good = StubFactory("good", basket)
        for factory in (bad, fatal, good):
            scheduler.add_factory(factory)
        basket.append_rows([(1,)], now=0)
        with pytest.raises(RuntimeError, match="wedged"):
            scheduler.step()
        assert bad.state == FAILED
        assert scheduler.failed_total == 1
        assert fatal.fires == 1
        assert good.fires == 0

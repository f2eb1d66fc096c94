"""The DataCell scheduler: a Petri-net over baskets and factories.

*"The execution of the factories is orchestrated by the DataCell
scheduler, which implements a Petri-net model. The firing condition is
aligned to arrival of events; once there are tuples that may be relevant
to a waiting query, we trigger its evaluation."*

Places are baskets (tokens = pending tuples), transitions are factories;
receptors inject tokens, emitters remove them. :meth:`PetriNetScheduler.step`
is one net evaluation: pump receptors, let factories absorb basic
windows, fire every enabled transition (repeatedly, so factory chains
cascade within a step), commit each durable basket's log, then vacuum
consumed prefixes. The step is the log's group: whatever it appended —
arrivals and output-stream results alike — is written as one group
before vacuum may drop it from memory.

The scheduler runs against a :class:`~repro.core.clock.Clock`; with a
:class:`~repro.core.clock.SimulatedClock` whole benchmark runs are
deterministic. On a wall clock nothing polls: the serving loop
(:class:`repro.core.live.ServingLoop`) sleeps until an arrival sets the
engine's wake or :meth:`PetriNetScheduler.next_deadline` falls due.

Firing is serial: one scheduler thread fires each enabled factory to
quiescence, in registration order, so a chained network cascades
producer-before-consumer within a step.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.basket import Basket
from repro.core.clock import Clock, SimulatedClock
from repro.core.factory import FAILED, Factory
from repro.core.receptor import Receptor
from repro.errors import FactoryError, SchedulerError

_MAX_CASCADE = 64
# a factory may legitimately fire many windows per step (catch-up after
# a pause, a burst of arrivals), but staying enabled for this many
# consecutive firings means it consumes nothing
_MAX_BURST = 100_000
# keep only the most recent errors; a persistently failing factory
# would otherwise grow the list without bound (failed_total still
# counts every occurrence)
_MAX_FAILED_KEPT = 50


class PetriNetScheduler:
    """Event-driven orchestration of receptors, factories, baskets."""

    def __init__(self, clock: Clock, recycler=None,
                 max_failed_kept: int = _MAX_FAILED_KEPT):
        self.clock = clock
        self.recycler = recycler
        self.receptors: List[Receptor] = []
        self.factories: List[Factory] = []
        self.baskets: Dict[str, Basket] = {}
        self.steps = 0
        self.total_fired = 0
        self.failed: Deque[FactoryError] = deque(maxlen=max_failed_kept)
        self.failed_total = 0
        # stop-the-net switch for inspection (demo pause button)
        self.paused = False

    # -- registration --------------------------------------------------

    def add_basket(self, basket: Basket) -> None:
        # normalize at registration so remove_basket's lowercase pop
        # (and the recycler purge keyed on the same name) always hits
        name = basket.name.lower()
        if name in self.baskets:
            raise SchedulerError(f"basket {name!r} already placed")
        self.baskets[name] = basket

    def remove_basket(self, name: str) -> None:
        self.baskets.pop(name.lower(), None)
        if self.recycler is not None:
            # a later stream of the same name restarts oids at 0, which
            # would alias old cache keys — drop everything for the name
            self.recycler.purge_basket(name.lower())

    def add_receptor(self, receptor: Receptor) -> None:
        self.receptors.append(receptor)

    def add_factory(self, factory: Factory) -> None:
        self.factories.append(factory)

    def remove_factory(self, name: str) -> None:
        self.factories = [f for f in self.factories if f.name != name]

    # -- the net ---------------------------------------------------------

    def enabled_transitions(self, now: Optional[int] = None
                            ) -> List[Factory]:
        now = self.clock.now() if now is None else now
        return [f for f in self.factories
                if f.state != FAILED and f.enabled(now)]

    def _record_failure(self, exc: FactoryError) -> None:
        self.failed.append(exc)
        self.failed_total += 1

    def step(self) -> Dict[str, int]:
        """One net evaluation at the current clock time.

        While :attr:`paused` the net still pumps receptors — pause
        holds back *firing* (and vacuuming), not arrival; events keep
        landing in their baskets (and their logs) so nothing in flight
        is lost while the operator inspects the net.
        """
        now = self.clock.now()
        self.steps += 1
        ingested = 0
        for receptor in self.receptors:
            ingested += receptor.pump(now)
        if self.paused:
            self._commit_logs()
            return {"ingested": ingested, "fired": 0, "dropped": 0}

        fired = 0
        for _round in range(_MAX_CASCADE):
            progressed = self._fire_round(now)
            fired += progressed
            if progressed == 0:
                break
        else:
            raise SchedulerError(
                "factory network did not quiesce (livelock?)")

        self._commit_logs()
        dropped = 0
        for basket in self.baskets.values():
            dropped += basket.vacuum()
        if self.recycler is not None and dropped:
            self.recycler.evict_dead(
                {name: b.first_oid for name, b in self.baskets.items()})
        self.total_fired += fired
        return {"ingested": ingested, "fired": fired, "dropped": dropped}

    def _commit_logs(self) -> None:
        """The step's group commit: one write per durable basket's log
        (a failed write is recorded on the log, not raised)."""
        for basket in self.baskets.values():
            if basket.log is not None:
                basket.log.commit()

    def _fire_round(self, now: int) -> int:
        """One cascade round: poll, then fire each factory until it
        quiesces. A :class:`FactoryError` quarantines that factory and
        the round carries on; anything else raises where it happens."""
        progressed = 0
        for factory in self.factories:
            if factory.state == FAILED:
                continue
            burst = 0
            try:
                factory.poll(now)
                while factory.enabled(now):
                    factory.fire(now)
                    burst += 1
                    if burst > _MAX_BURST:
                        raise SchedulerError(
                            f"factory {factory.name!r} stayed enabled "
                            f"after {_MAX_BURST} consecutive firings "
                            f"(did not quiesce; consuming nothing?)")
            except FactoryError as exc:
                self._record_failure(exc)
            progressed += burst
        return progressed

    # -- timers --------------------------------------------------------------

    def next_source_time(self) -> Optional[int]:
        """Earliest pending event time of a live pumped source."""
        upcoming = [r.next_event_time() for r in self.receptors
                    if not r.exhausted and not r.paused]
        return min((t for t in upcoming if t is not None), default=None)

    def next_deadline(self) -> Optional[int]:
        """Earliest clock time at which time alone gives the net work
        (a source event or :meth:`Factory.next_deadline` falls due);
        ``None``: only an arrival, which sets the engine's wake, can."""
        now = self.clock.now()
        times = [self.next_source_time()]
        if not self.paused:
            times += [f.next_deadline(now) for f in self.factories]
        return min((t for t in times if t is not None), default=None)

    # -- simulation drivers ------------------------------------------------

    def run_for(self, duration_ms: int, step_ms: int = 10
                ) -> Dict[str, int]:
        """Advance a simulated clock in fixed steps for *duration_ms*."""
        if not isinstance(self.clock, SimulatedClock):
            raise SchedulerError("run_for needs a SimulatedClock")
        if step_ms <= 0:
            raise SchedulerError("step_ms must be positive")
        totals = {"ingested": 0, "fired": 0, "dropped": 0}
        end = self.clock.now() + duration_ms
        while self.clock.now() < end:
            self.clock.advance(min(step_ms, end - self.clock.now()))
            out = self.step()
            for key in totals:
                totals[key] += out[key]
        return totals

    def run_until_drained(self, max_steps: int = 100000,
                          step_ms: int = 10) -> Dict[str, int]:
        """Step until every receptor is exhausted and no factory can fire.

        With a simulated clock, time advances to the next source event so
        runs take as many steps as there are distinct event times, not
        wall-clock duration.
        """
        totals = {"ingested": 0, "fired": 0, "dropped": 0}
        simulated = isinstance(self.clock, SimulatedClock)
        for _ in range(max_steps):
            out = self.step()
            for key in totals:
                totals[key] += out[key]
            idle = out["fired"] == 0 and out["ingested"] == 0
            if idle and all(r.exhausted or r.paused
                            for r in self.receptors):
                return totals
            if simulated and idle:
                upcoming = self.next_source_time()
                if upcoming is not None:
                    self.clock.set(max(upcoming, self.clock.now() + 1))
                else:
                    self.clock.advance(step_ms)
        raise SchedulerError(f"did not drain within {max_steps} steps")

    # -- monitoring ----------------------------------------------------------

    def network_stats(self) -> Dict[str, Dict]:
        out = {
            "steps": self.steps,
            "total_fired": self.total_fired,
            "baskets": {n: b.stats() for n, b in self.baskets.items()},
            "factories": {f.name: f.stats() for f in self.factories},
            "failed": [str(e) for e in self.failed],
            "failed_total": self.failed_total,
        }
        if self.recycler is not None:
            out["recycler"] = self.recycler.stats()
        return out

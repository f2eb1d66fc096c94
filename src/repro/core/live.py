"""Live mode: wall-clock execution with threaded receptors.

The paper's receptors and emitters are "separate processes per stream
and per client". Simulation mode (the default everywhere else) folds
them into the deterministic scheduler loop; :class:`LiveRunner` is the
faithful concurrent variant: one daemon thread per stream source pushes
tuples as their timestamps come due against a
:class:`~repro.core.clock.WallClock`, while a scheduler thread (the
:class:`ServingLoop` both network servers run too) evaluates the Petri
net when an arrival or a timer wakes it. Baskets are internally locked,
so receptor appends and factory reads interleave safely.

Use for interactive/demo deployments::

    engine = DataCellEngine(clock=WallClock())
    runner = LiveRunner(engine)
    runner.attach("sensors", RateSource(rows, rate=100))
    runner.start()
    ...               # results arrive as wall-clock time passes
    runner.stop()
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.core.receptor import ThreadedReceptor
from repro.errors import StreamError
from repro.streams.source import StreamSource


# stop() drains until no transition is enabled; a chained network of N
# stages needs at most N steps, so this bound only guards against a
# factory that stays enabled while consuming nothing
_STOP_DRAIN_STEPS = 64


def drain_scheduler(scheduler, max_steps: int = _STOP_DRAIN_STEPS) -> int:
    """Step *scheduler* until no transition is enabled (bounded).

    A single final step is not enough for chained ``output_stream``
    networks: a firing in the last step can enable a downstream factory
    whose poll happens only on the *next* step, stranding tuples in the
    intermediate basket. Returns the number of steps taken; every
    :meth:`ServingLoop.stop` ends with it.
    """
    steps = 0
    for _ in range(max_steps):
        out = scheduler.step()
        steps += 1
        if out["fired"] == 0 and out["ingested"] == 0 \
                and not scheduler.enabled_transitions():
            break
    return steps


def _wait_until(predicate: Callable[[], bool], timeout_s: float) -> bool:
    """Poll *predicate* (10 ms) for up to *timeout_s*; whether it held."""
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


# the longest the serving loop sleeps with no wake and no timer due;
# paces housekeeping only (receptor reaping, vacuum behind the log writer)
HEARTBEAT_S = 0.1


class ServingLoop:
    """The scheduler thread of a served engine — the one wait loop.

    ``wait -> clear -> step`` on ``engine.wake``: every source of work
    makes it visible first and signals second, so a signal can be early
    (one idle step) but never lost. The wait is bounded by the next
    timer the engine knows, else by :data:`HEARTBEAT_S`.
    """

    def __init__(self, engine: DataCellEngine, name: str,
                 after_step: Callable[[], Any] = lambda: None):
        self.engine = engine
        self._after_step = after_step
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=name)
        self._thread.start()

    def _run(self) -> None:
        engine = self.engine
        engine.loop_thread = threading.get_ident()
        while not self._stop.is_set():
            timeout = HEARTBEAT_S
            deadline = engine.scheduler.next_deadline()
            if deadline is not None:
                timeout = min(timeout, (deadline - engine.now()) / 1000.0)
            if engine.durable:
                timeout = min(timeout, engine.checkpoint_due_s())
            engine.wake.wait(max(timeout, 0.0))
            engine.wake.clear()
            engine.step()
            self._after_step()

    def stop(self, timeout_s: float,
             quiesced: Callable[[], bool] = lambda: True) -> None:
        """Give the loop *timeout_s* to reach *quiesced*, stop and join
        it (woken, so no sleep is waited out), drain what is ingested."""
        _wait_until(quiesced, timeout_s)
        self._stop.set()
        self.engine.wake.set()
        self._thread.join(timeout_s)
        drain_scheduler(self.engine.scheduler)


class LiveRunner:
    """Runs one engine continuously on real time."""

    def __init__(self, engine: DataCellEngine):
        if not isinstance(engine.clock, WallClock):
            raise StreamError("LiveRunner needs an engine on a WallClock")
        self.engine = engine
        self._receptors: List[ThreadedReceptor] = []
        self._loop: Optional[ServingLoop] = None

    def attach(self, stream: str, source: StreamSource,
               name: Optional[str] = None) -> ThreadedReceptor:
        """Create a threaded receptor for *stream* (started by
        :meth:`start`)."""
        if self._loop is not None:
            raise StreamError("attach sources before start()")
        basket = self.engine.basket(stream)
        receptor = ThreadedReceptor(
            name or f"{basket.name}_live{len(self._receptors)}",
            basket, source, self.engine.clock)
        self._receptors.append(receptor)
        return receptor

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._loop is not None:
            raise StreamError("runner already started")
        for receptor in self._receptors:
            receptor.start()
        self._loop = ServingLoop(self.engine, "datacell-scheduler")

    def stop(self, timeout_s: float = 2.0) -> None:
        """Stop receptors and the scheduler thread (idempotent)."""
        for receptor in self._receptors:
            receptor.stop(timeout_s)
        if self._loop is not None:
            self._loop.stop(timeout_s)
            self._loop = None

    def drained(self) -> bool:
        """True when every attached source is exhausted and no factory
        can fire."""
        if any(not r.exhausted for r in self._receptors):
            return False
        return not self.engine.scheduler.enabled_transitions()

    def wait_drained(self, timeout_s: float = 10.0) -> bool:
        """Block until :meth:`drained` (or timeout); returns success."""
        return _wait_until(self.drained, timeout_s)

    def __enter__(self) -> "LiveRunner":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

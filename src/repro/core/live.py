"""Live mode: wall-clock execution with threaded receptors.

The paper's receptors and emitters are "separate processes per stream
and per client". Simulation mode (the default everywhere else) folds
them into the deterministic scheduler loop; :class:`LiveRunner` is the
faithful concurrent variant: one daemon thread per stream source pushes
tuples as their timestamps come due against a
:class:`~repro.core.clock.WallClock`, while a scheduler thread (the
:class:`ServingLoop` the network host runs too) evaluates the Petri
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

import collections
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, List, Optional

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.core.receptor import ThreadedReceptor
from repro.errors import NetError, StreamError
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
    :class:`ServingLoop` ends with it.
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
# paces housekeeping only (receptor reaping)
HEARTBEAT_S = 0.1


class ServingLoop:
    """The scheduler thread of a served engine — the one wait loop, and
    the one thread that mutates the engine.

    ``wait -> clear -> run commands -> step`` on ``engine.wake``: every
    source of work makes it visible first and signals second, so a
    signal can be early (one idle step) but never lost. The wait is
    bounded by the next timer the engine knows, else by
    :data:`HEARTBEAT_S`. Front ends hand engine statements to
    :meth:`submit`; they run here, between steps, so whatever a command
    appends is fired in the same wakeup.
    """

    def __init__(self, engine: DataCellEngine, name: str,
                 after_step: Callable[[], Any] = lambda: None):
        self.engine = engine
        self._after_step = after_step
        self._commands: "collections.deque" = collections.deque()
        self._closed = False
        self._stop = threading.Event()
        started = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(started,),
                                        daemon=True, name=name)
        self._thread.start()
        started.wait()  # the engine is owned once the constructor returns

    def submit(self, fn: Callable, *args: Any) -> Future:
        """Run ``fn(*args)`` on the loop thread; the future carries its
        result. Fails with ``NetError(code="shutdown")`` once stopped."""
        future: Future = Future()
        self._commands.append((future, fn, args))
        if self._closed:
            self._fail_commands()  # stop() already swept the queue
        else:
            self.engine.wake.set()
        return future

    def _next_command(self) -> Optional[tuple]:
        try:
            return self._commands.popleft()
        except IndexError:  # empty, or a racing sweep took the last one
            return None

    def _run_commands(self) -> None:
        while (command := self._next_command()) is not None:
            future, fn, args = command
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(*args))
                except Exception as exc:  # the submitter reads it
                    future.set_exception(exc)

    def _fail_commands(self) -> None:
        while (command := self._next_command()) is not None:
            if command[0].set_running_or_notify_cancel():
                command[0].set_exception(NetError(
                    "the server is shutting down", code="shutdown"))

    def _run(self, started: threading.Event) -> None:
        engine = self.engine
        me = engine.loop_thread = threading.get_ident()
        started.set()
        try:
            while not self._stop.is_set():
                timeout = HEARTBEAT_S
                deadline = engine.scheduler.next_deadline()
                if deadline is not None:
                    timeout = min(timeout,
                                  (deadline - engine.now()) / 1000.0)
                if engine.durable:
                    timeout = min(timeout, engine.checkpoint_due_s())
                engine.wake.wait(max(timeout, 0.0))
                engine.wake.clear()
                self._run_commands()
                engine.step()
                self._after_step()
            drain_scheduler(engine.scheduler)
        finally:
            # stopped or crashed: no command may wait for a dead loop
            self._closed = True
            self._fail_commands()
            if engine.loop_thread == me:
                engine.loop_thread = None

    def stop(self, timeout_s: float,
             quiesced: Callable[[], bool] = lambda: True) -> None:
        """Give the loop *timeout_s* to reach *quiesced*, stop it (woken,
        so no sleep is waited out) and join it. Its last acts drain what
        is ingested, fail the commands still queued and give up the
        engine (``engine.loop_thread`` back to ``None``)."""
        _wait_until(quiesced, timeout_s)
        self._stop.set()
        self.engine.wake.set()
        self._thread.join(timeout_s)


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

    def submit(self, fn: Callable, *args: Any) -> Future:
        """Run ``fn(*args)`` on the scheduler thread, the one thread
        that may change the engine once :meth:`start` has run (see
        :meth:`ServingLoop.submit`)."""
        if self._loop is None:
            raise StreamError("runner not started")
        return self._loop.submit(fn, *args)

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

"""The serving loop, and live mode on it.

The paper's Petri net fires transitions serially. A served engine has
one thread that owns it, the :class:`ServingLoop`: it waits, with
:mod:`selectors`, on the self-pipe behind ``engine.wake`` and on the
sockets a host hands it (the pg edge's channel), until the next timer
the engine knows at most — a window boundary, a pumped source's next
event, a checkpoint.

:class:`LiveRunner` runs an engine on that loop on a
:class:`~repro.core.clock.WallClock`. An attached source is a pumped
receptor whose next event time is one of those timers, so a live
engine runs one thread::

    engine = DataCellEngine(clock=WallClock())
    runner = LiveRunner(engine)
    runner.attach("sensors", RateSource(rows, rate=100))
    runner.start()
    ...               # results arrive as wall-clock time passes
    runner.stop()
"""

from __future__ import annotations

import collections
import os
import selectors
import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.core.clock import WallClock
from repro.core.receptor import Receptor
from repro.errors import NetError, StreamError
from repro.streams.source import StreamSource

if TYPE_CHECKING:
    from repro.core.engine import DataCellEngine


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


def wait_until(predicate: Callable[[], bool], timeout_s: float) -> bool:
    """Poll *predicate* (10 ms) for up to *timeout_s*; whether it held."""
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


# the longest the serving loop sleeps with no wake and no timer due;
# paces housekeeping only (receptor reaping)
HEARTBEAT_S = 0.1


class Wake:
    """``engine.wake``: another thread's signal that it made work for the
    serving loop visible. :meth:`set` raises a flag and, on its rising
    edge while a loop serves, writes a byte to the loop's self-pipe,
    which the loop opens at start and closes at stop."""

    def __init__(self):
        self._set = False
        self._r = self._w = None  # the loop's self-pipe, while it runs

    def set(self) -> None:
        # no lock: two setters racing past the check both write, which
        # costs one idle step at most
        if not self._set:
            self._set = True
            fd = self._w
            if fd is not None:
                try:
                    os.write(fd, b"\0")
                except OSError:  # full (a byte waits already), or closed
                    pass

    def is_set(self) -> bool:
        return self._set

    def clear(self) -> None:
        """Empty the pipe, then lower the flag (the loop, after its
        wait): a set() that finds the flag up is seen by the work the
        loop does next; one after this writes again."""
        try:
            os.read(self._r, 4096)
        except BlockingIOError:
            pass
        self._set = False

    def open(self) -> int:
        """Open the pipe (the loop's start); returns its read end."""
        r, w = os.pipe()
        os.set_blocking(r, False)
        os.set_blocking(w, False)
        self._r, self._w = r, w
        os.write(w, b"\0")  # the first wait does not sleep
        return r

    def close(self) -> None:
        r, w = self._r, self._w
        self._r = self._w = None
        os.close(w)
        os.close(r)


class ServingLoop:
    """The scheduler thread of a served engine — the one wait loop, and
    the one thread that mutates the engine.

    ``select -> clear -> sockets -> commands -> step``: every source of
    work makes it visible first and signals second, so a signal can be
    early (one idle step) but never lost, and whatever a socket's
    request or a command appends is fired in the same wake-up.
    """

    def __init__(self, engine: "DataCellEngine", name: str,
                 after_step: Callable[[], Any] = lambda: None,
                 on_exit: Callable[[], Any] = lambda: None):
        self.engine = engine
        self._after_step = after_step
        self._on_exit = on_exit
        self._commands: "collections.deque" = collections.deque()
        self._closed = False
        self._stop = threading.Event()
        # the wait: opened here, closed by the loop's last act
        self._selector: Optional[selectors.BaseSelector] = \
            selectors.DefaultSelector()
        self._selector.register(engine.wake.open(), selectors.EVENT_READ,
                                (None, None))
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

    def call(self, fn: Callable, *args: Any, timeout_s: float = 5.0) -> Any:
        """``fn(*args)`` on the loop thread, waited for; once the loop
        has stopped, on this thread, which then owns what the loop did."""
        try:
            return self.submit(fn, *args).result(timeout_s)
        except NetError as exc:
            if exc.code != "shutdown":
                raise
        return fn(*args)

    def watch(self, sock, on_readable: Optional[Callable] = None,
              on_writable: Optional[Callable] = None) -> None:
        """Call *on_readable* / *on_writable* on the loop whenever *sock*
        is ready for it; with neither, stop watching (loop thread only;
        a no-op once the loop has stopped)."""
        selector = self._selector
        if selector is None:
            return
        if sock in selector.get_map():
            selector.unregister(sock)
        events = (selectors.EVENT_READ if on_readable else 0) \
            | (selectors.EVENT_WRITE if on_writable else 0)
        if events:
            selector.register(sock, events, (on_readable, on_writable))

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
        wake = engine.wake
        me = engine.loop_thread = threading.get_ident()
        selector = self._selector
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
                ready = selector.select(max(timeout, 0.0))
                wake.clear()
                for key, mask in ready:
                    on_readable, on_writable = key.data
                    if mask & selectors.EVENT_READ and on_readable:
                        on_readable()
                    if mask & selectors.EVENT_WRITE and on_writable:
                        on_writable()
                self._run_commands()
                engine.step()
                self._after_step()
            drain_scheduler(engine.scheduler)
        finally:
            # stopped or crashed: hosts let go of what the loop watched,
            # and no command may wait for a dead loop
            self._selector = None
            self._on_exit()
            self._closed = True
            self._fail_commands()
            wake.close()
            selector.close()
            if engine.loop_thread == me:
                engine.loop_thread = None

    def stop(self, timeout_s: float) -> None:
        """Stop the loop (woken, so no sleep is waited out) and join it.
        Its last acts drain what is ingested, run ``on_exit``, fail the
        commands still queued and give up the engine
        (``engine.loop_thread`` back to ``None``)."""
        self._stop.set()
        self.engine.wake.set()
        self._thread.join(timeout_s)


class LiveRunner:
    """Runs one engine continuously on real time, on one thread."""

    def __init__(self, engine: "DataCellEngine"):
        if not isinstance(engine.clock, WallClock):
            raise StreamError("LiveRunner needs an engine on a WallClock")
        self.engine = engine
        self._receptors: List[Receptor] = []
        self._loop: Optional[ServingLoop] = None

    def attach(self, stream: str, source: StreamSource,
               name: Optional[str] = None) -> Receptor:
        """Pump *source* into *stream* as its events come due
        (:meth:`DataCellEngine.attach_source`); before :meth:`start`."""
        if self._loop is not None:
            raise StreamError("attach sources before start()")
        receptor = self.engine.attach_source(stream, source, name)
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
        self._loop = ServingLoop(self.engine, "datacell-scheduler")

    def stop(self, timeout_s: float = 2.0) -> None:
        """Stop the scheduler thread (idempotent)."""
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
        return wait_until(self.drained, timeout_s)

    def __enter__(self) -> "LiveRunner":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

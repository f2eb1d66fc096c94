"""The framed edge's asyncio I/O core: one event loop on one thread.

The host (:class:`~repro.net.server.DataCellServer`) registers the
framed listen socket on it, and each connection becomes a coroutine
task whose idle cost is a heap entry, not a thread (the pg sessions
run on an asyncio loop of their own, in the pg edge process). The
engine stays on the serving loop's thread: admission queues are
offered from here and drained by the scheduler, and result queues are
filled by the scheduler. Cross-thread wakeups go through
:meth:`IOLoop.call_soon` (a ``call_soon_threadsafe`` wrapper): a
delivery to a query's :class:`~repro.core.emitter.QueueSink` wakes
each follower's ``asyncio.Event`` here, and the subscriber's pump task
wakes — zero polling, so an idle subscriber costs nothing per unit
time. The host calls :meth:`IOLoop.start` when it starts and
:meth:`IOLoop.stop` when it stops.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Coroutine, Optional

from repro.errors import NetError


class IOLoop:
    """An asyncio event loop running on one daemon thread.

    Thread-contract: :meth:`call`/:meth:`call_soon` are safe from any
    thread; coroutines run on the loop thread. ``stop``
    cancels every outstanding task, lets cancellation handlers unwind,
    then joins the thread.
    """

    def __init__(self, name: str = "datacell-io"):
        self.name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "IOLoop":
        self._started.clear()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=self.name)
        self._thread.start()
        self._started.wait(5.0)
        return self

    def _run(self) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        loop.call_soon(self._started.set)
        try:
            loop.run_forever()
        finally:
            # unwind anything that survived the cancel sweep
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(
                    *pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self, timeout_s: float = 5.0) -> None:
        loop, thread = self._loop, self._thread
        self._loop = None
        self._thread = None
        if loop is None:
            return
        try:
            fut = asyncio.run_coroutine_threadsafe(
                _cancel_all_tasks(), loop)
            fut.result(timeout_s)
        except (concurrent.futures.TimeoutError, RuntimeError,
                concurrent.futures.CancelledError):
            pass
        try:
            loop.call_soon_threadsafe(loop.stop)
        except RuntimeError:  # already closed
            pass
        if thread is not None and \
                thread is not threading.current_thread():
            thread.join(timeout_s)

    # -- cross-thread entry points -------------------------------------

    def call(self, coro: Coroutine,
             timeout_s: Optional[float] = 10.0) -> Any:
        """Run *coro* on the loop and wait for its result."""
        loop = self._loop
        if loop is None:
            coro.close()
            raise NetError("I/O loop is not running", code="io")
        return asyncio.run_coroutine_threadsafe(coro, loop).result(
            timeout_s)

    def call_soon(self, fn, *args) -> None:
        """``call_soon_threadsafe``; silently drops when stopped (a
        late waker after teardown must not raise in the scheduler)."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop closed between the check and the call


async def _cancel_all_tasks() -> None:
    tasks = [t for t in asyncio.all_tasks()
             if t is not asyncio.current_task()]
    for task in tasks:
        task.cancel()
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)

"""`repro serve` with span recorders around each layer's entry points.

    python traced_serve.py SPANS_FILE serve --port 0 ...

imports `repro`, wraps the callables in TARGETS and INTERNAL_TARGETS, runs
`repro.cli.main(["serve", ...])` unchanged, keeps the spans in memory and
writes them to SPANS_FILE when the server is told to stop (SIGTERM).
Nothing under `src/` knows about this file; a dotted name that no longer
resolves is listed as unresolved and the metrics that read it are null.

A span is `[id, name, thread, start_ns, wall_ns, cpu_ns, parent, a, b, c]`;
`cpu_ns` is thread CPU time, so a span that waits for the interpreter lock
is not charged for the wait. Coroutines are recorded one span per resumed
segment: the time between two suspensions, which is the time the
coroutine itself ran.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_ids = itertools.count()
_spans: List[list] = []
_local = threading.local()
_now, _cpu = time.perf_counter_ns, time.thread_time_ns


def _stack() -> List[int]:
    try:
        return _local.stack
    except AttributeError:
        _local.stack = []
        return _local.stack


# -- what each span remembers (three integers) -----------------------------
# `before(args)` runs ahead of the call and its value reaches
# `after(args, result, before_value) -> (a, b, c)`.

def _rows_of(message: Any) -> int:
    rows = message.get("rows") if isinstance(message, dict) else None
    return len(rows) if rows is not None else -1


ATTRS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    # a = payload bytes, b = rows carried (-1: not a row frame)
    "net.decode": (None, lambda a, r, p: (len(a[1]), _rows_of(r), 0)),
    "net.encode": (None, lambda a, r, p: (len(r), _rows_of(a[0]), 0)),
    "net.rows": (None, lambda a, r, p: (0, len(r), 0)),
    # a = receptor, b = rows offered / batches pumped
    "receptor.offer": (None, lambda a, r, p: (id(a[0]), len(a[1]), r)),
    "receptor.pump": (lambda a: a[0].pending_batches(),
                      lambda a, r, p: (id(a[0]), r, p)),
    # a = first oid, b = rows, c = rows held afterwards
    "basket.append": (lambda a: a[0].next_oid,
                      lambda a, r, p: (p, r, len(a[0]))),
    "basket.vacuum": (None, lambda a, r, p: (0, r, len(a[0]))),
    "store.append": (None, lambda a, r, p: (r[0], r[1] - r[0],
                                            a[0].backlog_rows())),
    "store.flush": (None, lambda a, r, p: (0, sum(len(g[2]) for g in a[1]),
                                           0)),
    "store.replay": (None, lambda a, r, p: (a[2], a[3] - a[2], 0)),
    "scheduler.step": (None, lambda a, r, p: (r["ingested"], r["fired"],
                                              r["dropped"])),
    # a = factory, b = rows it scanned, c = 1 when it delivered a result
    "factory.fire": (lambda a: a[0].tuples_in,
                     lambda a, r, p: (id(a[0]), a[0].tuples_in - p,
                                      int(r is not None))),
    "factory.poll": (lambda a: a[0].tuples_in,
                     lambda a, r, p: (id(a[0]), a[0].tuples_in - p, 0)),
    "mal.run": (None, lambda a, r, p: (0, len(a[0]), 0)),
    "recycler.lookup": (None, lambda a, r, p: (0, int(bool(r[0])), 0)),
    # a = sink, b = sequence number, c = queue depth afterwards
    "emitter.enqueue": (lambda a: a[0].delivered_batches,
                        lambda a, r, p: (id(a[0]), p, a[0].depth())),
    "emitter.dequeue": (None, lambda a, r, p: (id(a[0]),
                                               r[0] if r else -1, 0)),
    "pg.encode": (None, lambda a, r, p: (len(r), 1, 0)),
    "sql.parse": (None, lambda a, r, p: (len(a[0]), 0, 0)),
}

# span name -> dotted names recorded under it: public functions of each
# layer. Coroutine functions are recognised and recorded per segment.
TARGETS: List[Tuple[str, str]] = [
    ("net.decode", "repro.net.protocol.decode_frame"),
    ("net.encode", "repro.net.protocol.encode_frame"),
    ("net.rows", "repro.mal.relation.Relation.to_rows"),
    ("pg.classify", "repro.pg.session.classify"),
    ("pg.encode", "repro.pg.messages.data_row"),
    ("sql.parse", "repro.sql.parser.parse_script"),
    ("sql.parse", "repro.sql.parser.parse"),
    ("sql.execute", "repro.core.engine.DataCellEngine.execute_statement"),
    ("sql.register", "repro.core.engine.DataCellEngine.register_continuous"),
    ("receptor.offer", "repro.core.receptor.SocketReceptor.offer"),
    ("receptor.pump", "repro.core.receptor.SocketReceptor.pump"),
    ("basket.append", "repro.core.basket.Basket.append_rows"),
    ("basket.vacuum", "repro.core.basket.Basket.vacuum"),
    ("store.append", "repro.store.log.StreamLog.append"),
    ("store.checkpoint", "repro.core.engine.DataCellEngine.checkpoint"),
    ("store.retention", "repro.core.engine.DataCellEngine.apply_retention"),
    ("store.replay", "repro.core.engine.DataCellEngine.read_stream_range"),
    ("scheduler.step", "repro.core.scheduler.PetriNetScheduler.step"),
    ("windows.slice", "repro.core.windows.WindowState.slice_bounds"),
    ("windows.slice", "repro.core.basket.Basket.relation"),
    ("factory.fire", "repro.core.factory.Factory.fire"),
    ("factory.poll", "repro.core.factory.IncrementalFactory.poll"),
    ("mal.run", "repro.mal.compiler.CompiledProgram.run"),
    ("mal.run", "repro.mal.compiler.CompiledProgram.run_recycled"),
    ("mal.run", "repro.mal.compiler.CompiledProgram.run_profiled"),
    ("recycler.lookup", "repro.core.recycler.Recycler.lookup"),
    ("recycler.slice", "repro.core.recycler.Recycler.window_slice"),
    ("emitter.deliver", "repro.core.emitter.Emitter.deliver"),
    ("emitter.enqueue", "repro.core.emitter.QueueSink.deliver"),
    ("emitter.dequeue", "repro.core.emitter.QueueSink.get_nowait"),
]

# Work that no public function bounds: the per-connection coroutines of
# the two edges, one group commit, recovery. A change that collapses
# these internals is expected to lose them; what then reads null is
# `trace_report.INTERNAL_READS`, and `trace.coverage_share` falls by the
# "edge i/o" stage. Nothing else depends on a private name.
INTERNAL_TARGETS: List[Tuple[str, str]] = [
    ("net.recv", "repro.net.server._Connection.recv"),
    ("net.send", "repro.net.server._Connection.send"),
    ("net.ingest", "repro.net.server.DataCellServer._on_ingest"),
    ("net.writer", "repro.net.server._Subscription._run"),
    ("net.replay", "repro.net.server._StreamSubscription._run"),
    ("pg.query", "repro.pg.session.PGSession._on_query"),
    ("pg.tail", "repro.pg.session.PGSession._run_tail"),
    ("pg.flush", "repro.pg.session.PGSession._flush"),
    ("store.flush", "repro.store.log.StreamLog._write_group"),
    ("store.recover", "repro.core.engine.DataCellEngine._recover"),
]

NAMES = sorted({name for name, _dotted in TARGETS + INTERNAL_TARGETS})


# -- recorders ---------------------------------------------------------------


def _open(name_id: int) -> list:
    stack = _stack()
    span = [next(_ids), name_id, threading.get_ident(), 0, 0, 0,
            stack[-1] if stack else -1, 0, 0, 0]
    stack.append(span[0])
    span[5], span[3] = _cpu(), _now()
    return span


def _close(span: list) -> None:
    span[4], span[5] = _now() - span[3], _cpu() - span[5]
    _stack().pop()
    _spans.append(span)


def _sync(name: str, fn: Callable) -> Callable:
    name_id = NAMES.index(name)
    before, after = ATTRS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args) if before else None
        span = _open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(span)
        if after:
            try:
                span[7:10] = after(args, result, pre)
            except Exception:   # tracing must never break the server
                pass
        return result
    return wrapper


class _Segments:
    """Drives a coroutine, one span per stretch it runs between
    suspensions."""

    def __init__(self, name_id: int, coro):
        self.name_id, self.coro = name_id, coro

    def __await__(self):
        inner = self.coro.__await__()
        value, error = None, None
        while True:
            span = _open(self.name_id)
            try:
                yielded = inner.send(value) if error is None \
                    else inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                _close(span)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:   # cancellation, passed inwards
                value, error = None, exc


def _async(name: str, fn: Callable) -> Callable:
    name_id = NAMES.index(name)

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        return await _Segments(name_id, fn(*args, **kwargs))
    return wrapper


# -- patching ------------------------------------------------------------------


def _resolve(dotted: str) -> Tuple[Any, str]:
    """The object that owns the last attribute of *dotted*, and its name."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(dotted)


def install() -> List[List[str]]:
    """Wrap every target; returns `[span name, dotted name]` of those
    that did not resolve."""
    import asyncio
    unresolved = []
    for name, dotted in TARGETS + INTERNAL_TARGETS:
        try:
            owner, attr = _resolve(dotted)
        except (ImportError, AttributeError):
            unresolved.append([name, dotted])
            continue
        original = getattr(owner, attr)
        wrapped = (_async if asyncio.iscoroutinefunction(original)
                   else _sync)(name, original)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            # `from module import name` made copies of the binding
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
    return unresolved


def main(argv: List[str]) -> int:
    spans_file, serve_argv = argv[0], argv[1:]
    import repro.cli
    import repro.net.cli  # noqa: F401  (pulls in both servers' modules)
    import repro.pg.server  # noqa: F401
    from repro.core.engine import DataCellEngine

    unresolved = install()
    engines: List[Any] = []
    init = DataCellEngine.__init__

    @functools.wraps(init)
    def remember(self, *args, **kwargs):
        engines.append(self)
        init(self, *args, **kwargs)
    DataCellEngine.__init__ = remember

    final: Dict[str, Any] = {}

    def stop(_signum, _frame):
        # counters are read while the server still serves, then the
        # server leaves through its own KeyboardInterrupt path
        if engines and not final:
            final["stats"] = engines[-1].network_stats()
            final["stats"]["e18_queries"] = [
                {"name": q.name, "factory": id(q.factory)}
                for q in engines[-1].queries()]
            final["cpu_ns"] = time.process_time_ns()
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    started_cpu = time.process_time_ns()
    try:
        code = repro.cli.main(serve_argv)
    finally:
        with open(spans_file, "w") as f:
            json.dump({"names": NAMES, "unresolved": unresolved,
                       "spans": _spans,
                       "cpu_ns": final.get("cpu_ns", time.process_time_ns())
                       - started_cpu,
                       "stats": final.get("stats", {})}, f,
                      default=lambda o: getattr(o, "item", lambda: str(o))())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

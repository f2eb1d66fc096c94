"""E17 — Postgres front end on the asyncio I/O core.

Two claims behind ``repro serve --pg-port``:

* **E17a**: a Postgres simple-query round trip through the pg session
  costs the same order as a framed-protocol round trip — the v3
  message layer adds parsing, not architecture;
* **E17b**: because every connection is a coroutine on one event loop
  (not a thread), the server holds ≥1000 concurrent *idle* tail
  subscribers with a flat per-connection cost: the process thread
  count does not grow with connections, and resident memory grows by
  a small bounded amount per connection.

Acceptance tests gate both; the archive test diffs the portable shape
(per-connection RSS, thread delta) against the checked-in
``BENCH_E17.json`` so CI catches drift without trusting absolute
numbers on shared runners.
"""

from __future__ import annotations

import gc
import os
import socket
import statistics
import struct
import threading
import time

from repro.bench.harness import ResultTable
from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer
from repro.pg.server import PGWireServer

I32 = struct.Struct("!i")

LATENCY_ITERS = 300
IDLE_COUNTS = [100, 1000]
IDLE_TARGET = 1000


class _MiniPG:
    """Just enough of the v3 protocol for the benchmark: startup,
    simple Query, and a fire-and-forget send (for parking tails)."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        body = I32.pack(196608) + b"user\x00bench\x00\x00"
        self.sock.sendall(I32.pack(len(body) + 4) + body)
        self.read_until(b"Z")

    def _rx(self, n: int) -> bytes:
        buf = b""
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise EOFError("server closed the connection")
            buf += chunk
        return buf

    def read_until(self, stop: bytes) -> None:
        while True:
            head = self._rx(5)
            (length,) = I32.unpack(head[1:])
            if length > 4:
                self._rx(length - 4)
            if head[0:1] == stop:
                return

    def query(self, sql: str) -> None:
        payload = sql.encode() + b"\x00"
        self.sock.sendall(b"Q" + I32.pack(len(payload) + 4) + payload)
        self.read_until(b"Z")

    def send_query(self, sql: str) -> None:
        """Send without reading the reply (parks a TAIL)."""
        payload = sql.encode() + b"\x00"
        self.sock.sendall(b"Q" + I32.pack(len(payload) + 4) + payload)

    def close(self) -> None:
        try:
            self.sock.sendall(b"X" + I32.pack(4))
        except OSError:
            pass
        self.sock.close()


def _engine() -> DataCellEngine:
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    # a one-row table with no standing query: SELECTs read the basket
    engine.execute("CREATE STREAM one (k INT)")
    engine.execute("INSERT INTO one VALUES (1)")
    engine.register_continuous("SELECT k, v FROM s", name="q")
    return engine


def _time_roundtrips(fn, iters: int) -> dict:
    fn()  # warm up
    samples = []
    for _ in range(iters):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return {"mean_ms": statistics.fmean(samples),
            "p50_ms": statistics.median(samples)}


# -- E17a: round-trip latency, pg vs framed ---------------------------


def run_latency_table(iters: int = LATENCY_ITERS) -> ResultTable:
    table = ResultTable(
        "E17a: one synchronous round trip through the asyncio core "
        "(pg simple query vs framed protocol)",
        ["path", "round_trips", "mean_ms", "p50_ms"])
    engine = _engine()
    pg = PGWireServer(engine, drive_scheduler=False)
    pg.start()
    framed = DataCellServer(engine, io_loop=pg.io)
    framed.start()
    try:
        client = _MiniPG(pg.host, pg.port)
        out = _time_roundtrips(
            lambda: client.query("SELECT k FROM one"), iters)
        table.add("pg simple SELECT", iters,
                  round(out["mean_ms"], 4), round(out["p50_ms"], 4))
        client.close()

        with DataCellClient(port=framed.port) as fc:
            out = _time_roundtrips(lambda: fc.stats(), iters)
            table.add("framed STATS", iters,
                      round(out["mean_ms"], 4),
                      round(out["p50_ms"], 4))
            seq = [0]

            def one_ingest():
                fc.ingest("s", [[seq[0], 0.0]], seq=seq[0])
                seq[0] += 1

            out = _time_roundtrips(one_ingest, iters)
            table.add("framed INGEST(1 row)", iters,
                      round(out["mean_ms"], 4),
                      round(out["p50_ms"], 4))
    finally:
        framed.stop()
        pg.stop()
        engine.close()
    return table


# -- E17b: idle tail subscribers --------------------------------------


def _rss_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise OSError("VmRSS not found")


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _raise_nofile(need: int) -> bool:
    """Best-effort RLIMIT_NOFILE bump; False when *need* is out of
    reach."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= need:
        return True
    want = min(max(need, soft), hard if hard > 0 else need)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    except (ValueError, OSError):
        return False
    return want >= need


def idle_subscribers(n: int) -> dict:
    """Open *n* pg connections, park each on an unbounded ``TAIL``,
    and measure what the server-side coroutines cost while idle."""
    if not _raise_nofile(2 * n + 256):
        raise OSError(f"RLIMIT_NOFILE too low for {n} connections")
    engine = _engine()
    server = PGWireServer(engine, drive_scheduler=True)
    server.start()
    clients = []
    try:
        gc.collect()
        threads_before = threading.active_count()
        rss_before = _rss_kb()
        for _ in range(n):
            client = _MiniPG(server.host, server.port)
            client.send_query("TAIL q")
            clients.append(client)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stats = server.pg_stats()
            if stats["tails"] >= n:
                break
            time.sleep(0.05)
        tails = server.pg_stats()["tails"]
        time.sleep(0.5)  # settle: all tails parked on their events
        gc.collect()
        threads_after = threading.active_count()
        rss_after = _rss_kb()
        return {"subscribers": n,
                "tails": tails,
                "thread_delta": threads_after - threads_before,
                "fds": _fd_count(),
                "rss_delta_kb": max(rss_after - rss_before, 0),
                "rss_kb_per_conn":
                    max(rss_after - rss_before, 0) / max(n, 1)}
    finally:
        for client in clients:
            try:
                client.sock.close()
            except OSError:
                pass
        server.stop()
        engine.close()


def run_idle_table(counts=None) -> ResultTable:
    table = ResultTable(
        "E17b: idle pg tail subscribers on one event loop "
        "(client+server share this process; RSS includes both sides)",
        ["subscribers", "tails", "thread_delta", "fds",
         "rss_delta_kb", "rss_kb_per_conn"])
    for n in (counts or IDLE_COUNTS):
        out = idle_subscribers(n)
        table.add(out["subscribers"], out["tails"],
                  out["thread_delta"], out["fds"],
                  out["rss_delta_kb"],
                  round(out["rss_kb_per_conn"], 1))
    return table


def run_experiment():
    return [run_latency_table(), run_idle_table()]


# -- acceptance -------------------------------------------------------


def test_e17_pg_roundtrip_same_order_as_framed():
    """E17a gate: a pg simple query is a bounded constant factor of a
    framed round trip — the wire format isn't the bottleneck."""
    table = run_latency_table(iters=100)
    table.show()
    rows = {r["path"]: r for r in table.as_dicts()}
    pg_ms = rows["pg simple SELECT"]["p50_ms"]
    framed_ms = rows["framed STATS"]["p50_ms"]
    assert pg_ms < 50.0, rows  # sane absolute bound on loopback
    assert pg_ms <= 25.0 * max(framed_ms, 0.01), rows


def test_e17_thousand_idle_subscribers_flat_cost():
    """E17b gate: >= 1000 concurrent idle tails, no thread growth,
    bounded per-connection memory."""
    import pytest

    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc (Linux)")
    try:
        out = idle_subscribers(IDLE_TARGET)
    except OSError as exc:
        pytest.skip(f"fd limit: {exc}")
    print(out)
    assert out["tails"] >= IDLE_TARGET, out
    # coroutines, not threads: the thread count must not scale with
    # connections (small slack for lazy runtime helpers)
    assert out["thread_delta"] <= 8, out
    # flat per-connection cost — both endpoints of every socket live
    # in this process, so the budget covers client + server state
    assert out["rss_kb_per_conn"] <= 1024, out


def test_e17_archive_within_regression_budget():
    """CI drift gate: per-connection cost vs the archived baseline
    (absolute numbers are machine-dependent; the shape is not)."""
    import pytest

    from repro.bench.reporting import load_json

    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc (Linux)")
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_E17.json")
    if not os.path.exists(path):
        pytest.skip("no archived BENCH_E17.json baseline")
    archived = load_json(path)
    baseline = next(entry for entry in archived
                    if entry["title"].startswith("E17b"))
    idx_n = baseline["columns"].index("subscribers")
    idx_rss = baseline["columns"].index("rss_kb_per_conn")
    idx_threads = baseline["columns"].index("thread_delta")
    biggest = max(baseline["rows"], key=lambda r: r[idx_n])
    try:
        live = idle_subscribers(int(biggest[idx_n]))
    except OSError as exc:
        pytest.skip(f"fd limit: {exc}")
    assert live["rss_kb_per_conn"] <= \
        max(2.0 * float(biggest[idx_rss]), 64.0), (live, biggest)
    assert live["thread_delta"] <= int(biggest[idx_threads]) + 4, (
        live, biggest)


if __name__ == "__main__":
    for result in run_experiment():
        result.show()

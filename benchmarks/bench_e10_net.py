"""E10n — Network edge loopback (paper §2 "receptors and emitters").

The demo's DataCell runs as a server: "receptors and emitters, i.e., a
set of separate processes per stream and per client, to listen for new
data and to deliver results". Measured here over a TCP loopback:

* ingest throughput vs INGEST batch size — every batch is a synchronous
  framed round trip, so batching amortizes both the RTT and the codec;
* end-to-end delivery: rows/s from producer ``ingest()`` to the last
  subscriber ``results()`` row, vs the number of subscribed clients
  (each subscriber gets its own delivery queue + writer thread).
"""

from __future__ import annotations

import time

from repro.bench.harness import ResultTable
from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer

N_ROWS = 20_000
BATCH_SIZES = [1, 16, 256, 2048]
SUBSCRIBER_COUNTS = [1, 3]


def _server() -> DataCellServer:
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.register_continuous("SELECT k, v FROM s", name="q")
    server = DataCellServer(engine, collect_max_batches=64)
    return server.start()


def ingest_throughput(batch_size: int, nrows: int = N_ROWS) -> float:
    """Rows/s for synchronous framed ingest at one batch size."""
    rows = [[i, float(i % 7)] for i in range(nrows)]
    server = _server()
    try:
        with DataCellClient(port=server.port) as client:
            start = time.perf_counter()
            for i in range(0, nrows, batch_size):
                client.ingest("s", rows[i:i + batch_size], seq=i)
            elapsed = time.perf_counter() - start
        totals = server.net_stats()["totals"]
        assert totals["offered"] == nrows and totals["shed"] == 0
        return nrows / elapsed
    finally:
        server.stop()
        server.engine.close()


def delivery_rate(n_subscribers: int, nrows: int = N_ROWS,
                  batch_size: int = 512) -> dict:
    """Producer-to-last-subscriber delivery over the loopback."""
    rows = [[i, float(i % 7)] for i in range(nrows)]
    server = _server()
    subscribers = []
    try:
        for _ in range(n_subscribers):
            sub = DataCellClient(port=server.port)
            sub.subscribe("q")
            subscribers.append(sub)
        start = time.perf_counter()
        with DataCellClient(port=server.port) as producer:
            for i in range(0, nrows, batch_size):
                producer.ingest("s", rows[i:i + batch_size], seq=i)
        received = []
        for sub in subscribers:
            got = sum(b.row_count
                      for b in sub.results(max_rows=nrows,
                                           timeout=60.0))
            received.append(got)
        elapsed = time.perf_counter() - start
        assert all(got == nrows for got in received), received
        return {"subscribers": n_subscribers,
                "rows_per_s_ingest_to_last": nrows / elapsed,
                "rows_delivered_total": sum(received)}
    finally:
        for sub in subscribers:
            sub.close()
        server.stop()
        server.engine.close()


def run_ingest_table(nrows: int = N_ROWS) -> ResultTable:
    table = ResultTable(
        f"E10n-a: loopback ingest throughput ({nrows} tuples, "
        f"sync framed batches)",
        ["batch_size", "tuples_per_s"])
    for batch in BATCH_SIZES:
        n = nrows if batch >= 16 else max(nrows // 10, 500)
        table.add(batch, ingest_throughput(batch, n))
    return table


def run_delivery_table(nrows: int = N_ROWS) -> ResultTable:
    table = ResultTable(
        f"E10n-b: end-to-end delivery ({nrows} tuples/subscriber)",
        ["subscribers", "rows_per_s_ingest_to_last",
         "rows_delivered_total"])
    for n_subs in SUBSCRIBER_COUNTS:
        out = delivery_rate(n_subs, nrows)
        table.add(out["subscribers"],
                  out["rows_per_s_ingest_to_last"],
                  out["rows_delivered_total"])
    return table


def run_experiment():
    return [run_ingest_table(), run_delivery_table()]


def test_e10n_ingest_report():
    table = run_ingest_table(nrows=4_000)
    table.show()
    rows = table.as_dicts()
    # batching amortizes the per-frame round trip: 2048-row batches
    # must beat single-row frames by a wide margin
    assert rows[-1]["tuples_per_s"] > rows[0]["tuples_per_s"] * 2


def test_e10n_delivery_report():
    table = run_delivery_table(nrows=2_000)
    table.show()
    rows = {r["subscribers"]: r for r in table.as_dicts()}
    assert rows[1]["rows_delivered_total"] == 2_000
    assert rows[3]["rows_delivered_total"] == 6_000  # 3 full copies

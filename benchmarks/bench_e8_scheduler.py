"""E8 — Scheduler time constraints.

Paper §3: "the scheduler manages the time constraints attached to event
handling, which leads to possibly delaying events in their baskets for
some time". A plain (unwindowed) filter query with the batching knobs
swept — ``min_batch`` tuples per firing, bounded by ``max_delay_ms``.
Expected trade-off: larger batches amortize per-firing overhead (lower
cost per tuple) at the price of higher result latency.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from repro.bench.harness import ResultTable
from repro.core.engine import DataCellEngine
from repro.streams.generators import sensor_rows
from repro.streams.source import RateSource

N_ROWS = 20_000
RATE = 2_000.0  # tuples/second of simulated time
BATCHES = [1, 8, 64, 256, 1024]
QUERY = ("SELECT sensor_id, temperature FROM sensors "
         "WHERE temperature > 10")


def run_batched(min_batch: int, max_delay_ms: int = 2000):
    engine = DataCellEngine()
    engine.execute("CREATE STREAM sensors (sensor_id INT, room INT, "
                   "temperature FLOAT, humidity FLOAT)")
    query = engine.register_continuous(QUERY, mode="reeval", name="q",
                                       min_batch=min_batch,
                                       max_delay_ms=max_delay_ms)
    rows = sensor_rows(N_ROWS)
    engine.attach_source("sensors", RateSource(rows, rate=RATE))
    engine.run_until_drained()
    assert not engine.scheduler.failed
    factory = query.factory

    # result latency estimate: a tuple waits on average half the batch
    # accumulation span before its firing consumes it
    avg_batch = factory.tuples_in / factory.fires if factory.fires else 0
    est_latency_ms = (avg_batch / RATE) * 1000 / 2 + \
        (1000.0 / RATE) / 2

    return {
        "fires": factory.fires,
        "tuples": factory.tuples_in,
        "avg_batch": avg_batch,
        "busy_us_per_tuple": (factory.busy_seconds / factory.tuples_in
                              * 1e6 if factory.tuples_in else 0.0),
        "est_latency_ms": est_latency_ms,
    }


def run_experiment() -> ResultTable:
    table = ResultTable(
        f"E8: batching vs latency ({N_ROWS} tuples at "
        f"{RATE:.0f}/s simulated)",
        ["min_batch", "fires", "avg_batch", "busy_us_per_tuple",
         "est_latency_ms"])
    for batch in BATCHES:
        out = run_batched(batch)
        table.add(batch, out["fires"], out["avg_batch"],
                  out["busy_us_per_tuple"], out["est_latency_ms"])
    return table


def test_e8_report():
    table = run_experiment()
    table.show()
    rows = table.as_dicts()
    # every tuple is processed exactly once, except a tail batch
    # smaller than min_batch that may still be pending at source end
    for r in rows:
        consumed = r["avg_batch"] * r["fires"]
        assert N_ROWS - r["min_batch"] <= consumed <= N_ROWS
    # larger batches -> fewer firings -> cheaper per tuple
    assert rows[-1]["fires"] < rows[0]["fires"] / 4
    assert rows[-1]["busy_us_per_tuple"] < rows[0]["busy_us_per_tuple"]
    # ... but higher result latency
    assert rows[-1]["est_latency_ms"] > rows[0]["est_latency_ms"]


def test_e8_max_delay_bounds_wait():
    """Even a huge min_batch cannot delay past max_delay_ms."""
    engine = DataCellEngine()
    engine.execute("CREATE STREAM sensors (sensor_id INT, room INT, "
                   "temperature FLOAT, humidity FLOAT)")
    engine.register_continuous(QUERY, mode="reeval", name="q",
                               min_batch=10_000, max_delay_ms=50)
    engine.feed("sensors", [(1, 0, 30.0, 40.0)])
    engine.step()
    assert len(engine.results("q")) == 0
    engine.step(advance_ms=60)
    assert len(engine.results("q")) == 1


@pytest.mark.parametrize("batch", [1, 256])
def test_e8_batch_throughput(benchmark, batch):
    benchmark(lambda: run_batched(batch))


def main() -> int:
    print(run_experiment().render())
    return 0


if __name__ == "__main__":
    sys.exit(main())

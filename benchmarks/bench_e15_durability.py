"""E15 — durability: logged-ingest throughput and recovery time.

The DataCell paper keeps baskets purely in memory; the durable store
bolts a segmented append-only log under each basket so admitted tuples
survive a crash. This experiment prices that guarantee:

* **E15a** — ingest throughput by write discipline. ``off`` is the
  in-memory engine (no data_dir). The logged runs ``feed`` without
  stepping, so every append only stages its columns on the log; the
  measured span is those staged appends plus one final
  :meth:`StreamLog.flush`, which writes them all as one group commit
  (the write a scheduler step makes for what it appended): ``async``
  flushes that group to the OS, ``fsync`` also fsyncs it.
  Acceptance: async sustains at least half the in-memory rate — the
  log is a mirror written once per group, not a write-through tax.
* **E15b** — cold-start recovery time against log size: rebuild
  baskets, cursors and emit stamps from the manifest + checkpoint.
  Recovery replays only what the queries still need (the cursor
  floor), so time grows with the retained suffix, not with history.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro.bench.harness import ResultTable
from repro.core.clock import SimulatedClock
from repro.core.engine import DataCellEngine

N_ROWS = 60_000
BATCH = 512
RECOVERY_SIZES = [2_000, 8_000, 32_000]

# async group commit must keep >= this fraction of in-memory ingest
ASYNC_FLOOR = 0.5

DDL = "CREATE STREAM s (k INT, v FLOAT)"
QUERY = ("SELECT k, sum(v) FROM s [RANGE 256 SLIDE 256] GROUP BY k")


def make_rows(nrows: int):
    return [(i % 16, float((i * 7) % 23)) for i in range(nrows)]


def ingest_throughput(durability: str, nrows: int = N_ROWS,
                      batch: int = BATCH) -> float:
    """Rows/s to admit *nrows* (and, when logging, make them durable).
    ``"off"`` is the in-memory baseline: an engine with no data_dir."""
    if durability == "off":
        engine = DataCellEngine(clock=SimulatedClock())
        data_dir = None
    else:
        data_dir = tempfile.mkdtemp(prefix="e15_")
        engine = DataCellEngine(clock=SimulatedClock(),
                                data_dir=data_dir,
                                durability=durability,
                                checkpoint_interval_s=1e9)
    try:
        engine.execute(DDL)
        rows = make_rows(nrows)
        start = time.perf_counter()
        for i in range(0, nrows, batch):
            engine.feed("s", rows[i:i + batch])
        if engine.durable:
            engine.stream_log("s").flush()  # one group: every append
        elapsed = time.perf_counter() - start
        return nrows / elapsed if elapsed > 0 else 0.0
    finally:
        engine.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


def _best(repeats: int, **kw) -> float:
    return max(ingest_throughput(**kw) for _ in range(repeats))


def run_ingest_table(nrows: int = N_ROWS, repeats: int = 3
                     ) -> ResultTable:
    table = ResultTable(
        f"E15a: logged-ingest throughput by write discipline "
        f"({nrows} tuples, {BATCH}-row batches, final flush included)",
        ["durability", "tuples_per_s", "x_of_off"])
    base = _best(repeats, durability="off", nrows=nrows)
    table.add("off", round(base), 1.0)
    for durability in ("async", "fsync"):
        rate = _best(repeats, durability=durability, nrows=nrows)
        table.add(durability, round(rate),
                  round(rate / base, 3) if base else 0.0)
    return table


def recovery_run(nrows: int, data_dir: str) -> dict:
    """Build a logged engine with a standing query, crash it, and
    time the cold reopen."""
    engine = DataCellEngine(clock=SimulatedClock(), data_dir=data_dir,
                            durability="async",
                            checkpoint_interval_s=1e9)
    engine.execute(DDL)
    engine.register_continuous(QUERY, name="q", mode="reeval")
    rows = make_rows(nrows)
    for i in range(0, nrows, BATCH):
        engine.feed("s", rows[i:i + BATCH])
        engine.step(advance_ms=1)
    fired = len(engine.results("q").batches)
    engine.checkpoint()
    del engine  # crash: no close()

    start = time.perf_counter()
    recovered = DataCellEngine(clock=SimulatedClock(),
                               data_dir=data_dir, durability="async",
                               checkpoint_interval_s=1e9)
    elapsed = time.perf_counter() - start
    try:
        assert recovered.recovered
        stats = recovered.log_stats()["streams"]["s"]
        return {
            "recover_ms": elapsed * 1000.0,
            "log_rows": stats["next_offset"],
            "replayed_rows": (recovered.basket("s").next_oid
                              - recovered.basket("s").first_oid),
            "fired": fired,
        }
    finally:
        recovered.close()


def run_recovery_table(sizes=None) -> ResultTable:
    table = ResultTable(
        "E15b: cold-start recovery time vs log size "
        "(async log, one standing query, checkpoint at crash point)",
        ["log_rows", "replayed_rows", "recover_ms"])
    for nrows in (sizes or RECOVERY_SIZES):
        data_dir = tempfile.mkdtemp(prefix="e15r_")
        try:
            out = recovery_run(nrows, data_dir)
            table.add(out["log_rows"], out["replayed_rows"],
                      round(out["recover_ms"], 1))
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    return table


def run_experiment(nrows: int = N_ROWS, repeats: int = 3):
    return [run_ingest_table(nrows, repeats), run_recovery_table()]


# -- acceptance -------------------------------------------------------


def test_e15_async_keeps_half_the_rate():
    """The tentpole claim: group commit makes durability cheap —
    async-logged ingest sustains >= 0.5x the in-memory rate."""
    table = run_ingest_table(nrows=30_000)
    table.show()
    rows = {r["durability"]: r for r in table.as_dicts()}
    assert rows["async"]["x_of_off"] >= ASYNC_FLOOR, rows["async"]
    # fsync trades throughput for the stronger guarantee, but must
    # still make forward progress in group-sized strides
    assert rows["fsync"]["tuples_per_s"] > 0


def test_e15_recovery_bounded_by_retention():
    """Recovery replays the cursor-retained suffix, not all history:
    replayed rows stay bounded while the log grows."""
    table = run_recovery_table(sizes=[2_000, 8_000])
    table.show()
    rows = table.as_dicts()
    assert rows[0]["log_rows"] == 2_000
    assert rows[1]["log_rows"] == 8_000
    for row in rows:
        assert row["recover_ms"] < 30_000, row
        # vacuum keeps the basket near one window of retained tuples
        assert row["replayed_rows"] <= row["log_rows"]


def test_e15_archive_within_regression_budget():
    """CI drift gate: the portable shape of E15a — the async/off
    throughput ratio — must not regress more than 20% against the
    archived baseline (absolute rates are machine-dependent, the
    ratio is not)."""
    from repro.bench.reporting import load_json

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_E15.json")
    if not os.path.exists(path):
        import pytest
        pytest.skip("no archived BENCH_E15.json baseline")
    archived = load_json(path)
    baseline = next(entry for entry in archived
                    if entry["title"].startswith("E15a"))
    idx_mode = baseline["columns"].index("durability")
    idx_ratio = baseline["columns"].index("x_of_off")
    archived_async = next(r[idx_ratio] for r in baseline["rows"]
                          if r[idx_mode] == "async")
    live = {r["durability"]: r["x_of_off"]
            for r in run_ingest_table(nrows=30_000).as_dicts()}
    assert live["async"] >= 0.8 * archived_async, (
        f"async/off ingest ratio {live['async']:.3f} regressed >20% "
        f"vs archived {archived_async:.3f}")

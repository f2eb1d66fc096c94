"""E16 — log-resident windows: paged replay memory and retention.

The paged window binder lets a ``from_start`` standing query window
over durable history without pulling it back into basket memory:
sealed segments are bound as zero-copy ``np.memmap`` views and the
basket stays at its steady-state size. This experiment checks the two
claims that make that useful:

* **E16a** — paged replay over a log at least 4x larger than the
  basket's retained rows. A live query plus vacuum keep the basket
  near one window of tuples; a late ``from_start`` registration then
  replays the whole log. Acceptance: the basket never grows past 2x
  its steady-state row count during the replay, process peak RSS
  stays within ~2x the steady-state RSS, and the late query's
  emissions are byte-identical to a fully-in-memory run of the same
  workload.
* **E16b** — retention under live queries. With ``retain_bytes`` set,
  checkpoint-paced retention truncates sealed prefix segments while
  the standing query keeps firing; a replay read from offset 0 lags
  to the durable floor instead of failing.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.bench.harness import ResultTable
from repro.core.clock import SimulatedClock
from repro.core.engine import DataCellEngine

N_ROWS = 120_000
BATCH = 512
SEGMENT_ROWS = 2048

DDL = "CREATE STREAM s (k INT, v FLOAT)"
QUERY = ("SELECT k, sum(v) FROM s [RANGE 2048 SLIDE 1024] GROUP BY k")

# acceptance bounds
MIN_LOG_TO_RETAINED = 4.0   # log must dwarf the retained basket
MAX_BASKET_GROWTH = 2.0     # replay must not inflate the basket
MAX_RSS_GROWTH = 2.0        # ... or the process


def rss_bytes() -> int:
    """Current resident set size; 0 when /proc is unavailable."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def make_rows(nrows: int):
    return [(i % 16, float((i * 7) % 23)) for i in range(nrows)]


def emissions(engine, name):
    return [tuple(map(tuple, sorted(rel.to_rows())))
            for _t, rel in engine.results(name).batches]


def in_memory_reference(nrows: int):
    """The same workload on a pure in-memory engine — the byte-level
    ground truth the paged replay must reproduce."""
    engine = DataCellEngine(clock=SimulatedClock())
    try:
        engine.execute(DDL)
        engine.register_continuous(QUERY, name="q", mode="reeval")
        rows = make_rows(nrows)
        for i in range(0, nrows, BATCH):
            engine.feed("s", rows[i:i + BATCH])
            engine.step(advance_ms=1)
        for _ in range(8):
            engine.step(advance_ms=1)
        return emissions(engine, "q")
    finally:
        engine.close()


def paged_replay_run(nrows: int = N_ROWS) -> dict:
    """Drive a durable engine to steady state, then replay the whole
    log with a ``from_start`` query while watching basket and RSS."""
    reference = in_memory_reference(nrows)
    data_dir = tempfile.mkdtemp(prefix="e16_")
    engine = DataCellEngine(clock=SimulatedClock(), data_dir=data_dir,
                            durability="fsync",
                            segment_rows=SEGMENT_ROWS,
                            checkpoint_interval_s=1e9)
    try:
        engine.execute(DDL)
        engine.register_continuous(QUERY, name="q", mode="reeval")
        rows = make_rows(nrows)
        for i in range(0, nrows, BATCH):
            engine.feed("s", rows[i:i + BATCH])
            engine.step(advance_ms=1)
        for _ in range(8):
            engine.step(advance_ms=1)

        basket = engine.basket("s")
        retained = basket.next_oid - basket.first_oid
        log_rows = engine.stream_log("s").next_offset
        rss_steady = rss_bytes()

        engine.register_continuous(QUERY, name="late", mode="reeval",
                                   from_start=True)
        want = len(emissions(engine, "q"))
        peak_rows = retained
        rss_peak = rss_steady
        for _ in range(want + 64):
            engine.step(advance_ms=0)
            peak_rows = max(peak_rows,
                            basket.next_oid - basket.first_oid)
            rss_peak = max(rss_peak, rss_bytes())
            if len(engine.results("late").batches) >= want:
                break
        late = emissions(engine, "late")
        return {
            "log_rows": log_rows,
            "retained_rows": retained,
            "log_to_retained": log_rows / retained if retained else 0.0,
            "peak_replay_rows": peak_rows,
            "rss_steady_mb": rss_steady / 1e6,
            "rss_peak_mb": rss_peak / 1e6,
            "paged_reads": basket.pager.stats()["paged_reads"],
            "identical": late == reference,
            "fires": len(late),
        }
    finally:
        engine.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def run_replay_table(nrows: int = N_ROWS) -> ResultTable:
    table = ResultTable(
        f"E16a: from_start replay over a log-resident history "
        f"({nrows} tuples, paged zero-copy windows, no rehydration)",
        ["log_rows", "retained_rows", "log_to_retained",
         "peak_replay_rows", "rss_steady_mb", "rss_peak_mb",
         "paged_reads", "identical"])
    out = paged_replay_run(nrows)
    table.add(out["log_rows"], out["retained_rows"],
              round(out["log_to_retained"], 1),
              out["peak_replay_rows"],
              round(out["rss_steady_mb"], 1),
              round(out["rss_peak_mb"], 1),
              out["paged_reads"], out["identical"])
    return table


def retention_run(nrows: int = 40_000,
                  retain_bytes: int = 256_000) -> dict:
    """Feed with ``retain_bytes`` set, applying checkpoint-paced
    retention mid-stream; the query must keep firing throughout."""
    data_dir = tempfile.mkdtemp(prefix="e16r_")
    engine = DataCellEngine(clock=SimulatedClock(), data_dir=data_dir,
                            durability="fsync",
                            segment_rows=SEGMENT_ROWS,
                            retain_bytes=retain_bytes,
                            checkpoint_interval_s=1e9)
    try:
        engine.execute(DDL)
        engine.register_continuous(QUERY, name="q", mode="reeval")
        rows = make_rows(nrows)
        fires_at_truncate = None
        for i in range(0, nrows, BATCH):
            engine.feed("s", rows[i:i + BATCH])
            engine.step(advance_ms=1)
            if (i // BATCH) % 16 == 15:
                engine.checkpoint()
                engine.apply_retention()
            if fires_at_truncate is None \
                    and engine.retention_rows_dropped:
                fires_at_truncate = len(engine.results("q").batches)
        log = engine.stream_log("s")
        stats = log.stats()
        floor = log.durable_floor
        parts = engine.read_stream_range(
            "s", 0, engine.basket("s").next_oid)
        return {
            "rows_fed": nrows,
            "truncations": stats["retention_truncations"],
            "rows_dropped": stats["retention_rows"],
            "durable_floor": floor,
            "retained_bytes": stats["retained_bytes"],
            "fires": len(engine.results("q").batches),
            "fires_at_truncate": fires_at_truncate or 0,
            "replay_starts_at": parts[0][0] if parts else floor,
        }
    finally:
        engine.close()
        shutil.rmtree(data_dir, ignore_errors=True)


def run_retention_table(nrows: int = 40_000) -> ResultTable:
    table = ResultTable(
        f"E16b: retention truncation under a live query "
        f"({nrows} tuples, retain_bytes=256000, "
        f"checkpoint-paced truncation)",
        ["rows_fed", "truncations", "rows_dropped", "durable_floor",
         "retained_bytes", "fires", "replay_starts_at"])
    out = retention_run(nrows)
    table.add(out["rows_fed"], out["truncations"],
              out["rows_dropped"], out["durable_floor"],
              out["retained_bytes"], out["fires"],
              out["replay_starts_at"])
    return table


def run_experiment(nrows: int = N_ROWS):
    return [run_replay_table(nrows), run_retention_table()]


# -- acceptance -------------------------------------------------------


def test_e16_paged_replay_stays_flat_and_identical():
    """The tentpole gate: replaying a log >= 4x the retained basket
    neither rehydrates history (basket stays near steady state, RSS
    within 2x) nor changes a single emitted byte."""
    table = run_replay_table(nrows=40_000)
    table.show()
    row = table.as_dicts()[0]
    assert row["log_to_retained"] >= MIN_LOG_TO_RETAINED, row
    assert row["identical"], "paged replay diverged from in-memory run"
    assert row["paged_reads"] > 0, row
    assert row["peak_replay_rows"] <= \
        MAX_BASKET_GROWTH * max(row["retained_rows"], 1), row
    if row["rss_steady_mb"] > 0:  # /proc present
        assert row["rss_peak_mb"] <= \
            MAX_RSS_GROWTH * row["rss_steady_mb"], row


def test_e16_retention_truncates_under_live_query():
    """Retention drops sealed segments while the query keeps firing,
    and a from-zero replay read lags to the durable floor."""
    out = retention_run(nrows=24_000)
    assert out["truncations"] >= 1, out
    assert out["durable_floor"] > 0, out
    assert out["rows_dropped"] > 0, out
    assert out["fires"] > out["fires_at_truncate"] > 0, \
        "query stopped firing around retention truncation"
    assert out["replay_starts_at"] == out["durable_floor"], out


def test_e16_archive_within_regression_budget():
    """CI drift gate: the portable shape of E16a — the steady-state
    retained basket size and the equivalence bit — must hold against
    the archived baseline. The raw log:retained ratio scales with how
    many rows the run feeds (the archive is full-size, CI is not), so
    the gate compares its log-size-invariant denominator: the basket's
    steady-state row count must not grow more than 25%."""
    from repro.bench.reporting import load_json

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_E16.json")
    if not os.path.exists(path):
        import pytest
        pytest.skip("no archived BENCH_E16.json baseline")
    archived = load_json(path)
    baseline = next(entry for entry in archived
                    if entry["title"].startswith("E16a"))
    idx = baseline["columns"].index("retained_rows")
    archived_retained = baseline["rows"][0][idx]
    live = run_replay_table(nrows=40_000).as_dicts()[0]
    assert live["identical"]
    assert live["retained_rows"] <= 1.25 * archived_retained, (
        f"steady-state basket {live['retained_rows']} rows grew >25% "
        f"vs archived {archived_retained} — the paged replay is "
        f"retaining more than it used to")

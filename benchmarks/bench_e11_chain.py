"""E11c — Chained-network recycling: recycler on vs off.

A three-stage chained query network (Figure 3 composed twice):
``sensors`` is filtered into output basket ``hot``, ``hot`` into
``alerts``, and a fleet of standing queries consumes ``alerts``. Two
claims to measure:

* **sharing across stage boundaries** — each upstream firing's emit
  payload is adopted by the recycler under its output-basket oid
  range, so every downstream scan of that range is a cache hit
  (``chain_hits``), never a re-materialization;
* **a starved budget tunes itself out**: the fleet interleaves
  duplicated aggregates (tiny, relatively costly, reused by their
  twins later in the same cascade round) with one-shot selects (large
  candidate/projection intermediates, cheap per byte), and the engine
  starts from an 8 KB budget that cannot hold one round's churn. The
  autotuner must grow it until recycler-on is no slower than off.

The run compares recycler off and on at 8/16/32 standing queries and
archives busy time, hit rate and chain counters (``BENCH_E11.json``).
Emitted results are asserted byte-identical across the two runs.
"""

from __future__ import annotations

from typing import List, Tuple

from benchmarks.workloads import SENSOR_DDL, drive
from repro.bench.harness import ResultTable
from repro.core.engine import DataCellEngine
from repro.streams.generators import sensor_rows

N_ROWS = 20_000
RATE = 200_000.0          # ~200-row bursts per simulated-clock step
QUERY_COUNTS = [8, 16, 32]
# starved on purpose: one cascade round's churn of select
# intermediates overflows the cache until the autotuner grows it
BUDGET_BYTES = 8 << 10

AGG_SQL = ("SELECT room, count(*), sum(temperature), avg(humidity) "
           "FROM alerts GROUP BY room ORDER BY room")


def build_chain(engine: DataCellEngine, n_queries: int) -> List[str]:
    """Register the 3-stage network; returns every query name.

    Stage 1 and 2 are the chain spine (``output_stream`` baskets);
    the remaining ``n_queries - 2`` form the fleet over ``alerts``:
    every third is the *same* aggregate (duplicates that re-ask for
    each other's intermediates), the rest are churning selects with
    per-query thresholds (one-shot large intermediates).
    """
    engine.execute(SENSOR_DDL)
    engine.register_continuous(
        "SELECT sensor_id, room, temperature, humidity FROM sensors "
        "WHERE temperature > 12", name="s1", mode="reeval",
        output_stream="hot")
    engine.register_continuous(
        "SELECT sensor_id, room, temperature, humidity FROM hot "
        "WHERE temperature > 16", name="s2", mode="reeval",
        output_stream="alerts")
    names = ["s1", "s2"]
    for i in range(n_queries - 2):
        name = f"q{i}"
        if i % 3 == 0:
            engine.register_continuous(AGG_SQL, name=name,
                                       mode="reeval")
        else:
            engine.register_continuous(
                f"SELECT sensor_id, room, temperature, humidity "
                f"FROM alerts WHERE temperature > {18 + (i % 8)}",
                name=name, mode="reeval")
        names.append(name)
    return names


def run_chain(recycler: bool, n_queries: int, nrows: int = N_ROWS
              ) -> Tuple[DataCellEngine, List[str], float]:
    """One full run with the recycler on (from the starved budget) or
    off."""
    engine = DataCellEngine(recycler_enabled=recycler,
                            recycler_budget_bytes=BUDGET_BYTES)
    names = build_chain(engine, n_queries)
    drive(engine, "sensors", sensor_rows(nrows), rate=RATE)
    busy = sum(f.busy_seconds for f in engine.scheduler.factories)
    return engine, names, busy


def _best(recycler: bool, n_queries: int, nrows: int, repeats: int = 3
          ) -> Tuple[DataCellEngine, List[str], float]:
    """Best-of-*repeats* busy time (min is the noise-robust estimator
    for CPU-bound work) plus the last run's engine."""
    best = float("inf")
    engine = names = None
    for _ in range(repeats):
        engine, names, busy = run_chain(recycler, n_queries, nrows)
        best = min(best, busy)
    return engine, names, best


def hit_rate(stats: dict) -> float:
    """Fraction of all recycler lookups (instruction + slice) served
    from cache."""
    asked = (stats["hits"] + stats["misses"] +
             stats["slice_hits"] + stats["slice_misses"])
    if not asked:
        return 0.0
    return (stats["hits"] + stats["slice_hits"]) / asked


def run_experiment(nrows: int = N_ROWS, repeats: int = 3) -> ResultTable:
    table = ResultTable(
        f"E11c: chained-network recycling, on vs off "
        f"({nrows} tuples, 3 stages, budget grows from "
        f"{BUDGET_BYTES}B)",
        ["queries", "busy_off_ms", "busy_on_ms", "hitrate",
         "chain_hits", "evictions", "budget_grows"])
    for n in QUERY_COUNTS:
        _off, _names, busy_off = _best(False, n, nrows, repeats)
        engine, _names, busy_on = _best(True, n, nrows, repeats)
        stats = engine.recycler.stats()
        table.add(n, busy_off * 1000, busy_on * 1000,
                  round(hit_rate(stats), 4), stats["chain_hits"],
                  stats["evictions"], stats["budget_grows"])
    return table


# -- acceptance -------------------------------------------------------


def test_e11_stage_boundary_is_a_cache_hit():
    """Every downstream stage's scan of an output basket resolves to
    the upstream emit payload: chain hits registered, zero slice
    misses beyond the leaf stream for the spine stages."""
    engine, _names, _busy = run_chain(True, 8, nrows=6000)
    stats = engine.recycler.stats()
    assert stats["chain_stamped"] > 0
    assert stats["chain_hits"] > 0
    # the spine emitted into both output baskets
    assert engine.basket("hot").total_in > 0
    assert engine.basket("alerts").total_in > 0


def test_e11_on_and_off_emit_identical_results():
    off_engine, names, _b = run_chain(False, 16, nrows=6000)
    on_engine, _n, _b = run_chain(True, 16, nrows=6000)
    for name in names:
        assert on_engine.results(name).rows() \
            == off_engine.results(name).rows()


def test_e11_recycler_not_slower_than_off():
    """The E11c acceptance bar: starting from a budget too small to
    hold one cascade round, the autotuner must grow the cache out of
    its thrash so recycler-on busy time does not exceed recycler-off.
    Runs are paired back-to-back and gated on the best pair, which
    cancels the box-load drift that independent best-of-N cannot."""
    best = None
    for _ in range(3):
        _e, _n, off = run_chain(False, 16, nrows=8000)
        engine, _n, on = run_chain(True, 16, nrows=8000)
        ratio = on / off if off else 0.0
        if best is None or ratio < best[0]:
            best = (ratio, engine)
    ratio, engine = best
    stats = engine.recycler.stats()
    assert stats["budget_grows"] >= 1, stats
    assert ratio <= 1.0, \
        f"recycler-on {ratio:.3f}x recycler-off busy time"

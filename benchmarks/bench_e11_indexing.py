"""E11 — DBMS functionality in a streaming setting: indexing.

The paper's abstract names "exploiting standard DBMS functionalities in
a streaming environment such as indexing" as a core challenge. The
concrete case: a standing query joins every window slice against a
persistent dimension table. Without an index, every firing rebuilds a
hash table over the dimension; with a hash index on the join column,
firings only probe. Expected shape: the per-fire win grows with the
dimension-table size (the rebuild is O(|table|), the probe is
O(|slice|)). The probe is a MAL instruction (``algebra.indexjoin``), so
it serves both execution modes: re-evaluation joins the whole window,
incremental mode each basic window once.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.bench.harness import ResultTable, speedup
from repro.core.engine import DataCellEngine
from repro.streams.generators import sensor_rows
from repro.streams.source import RateSource

N_ROWS = 20_000
WINDOW, SLIDE = 4000, 500
TABLE_SIZES = [100, 1_000, 10_000, 50_000]
MODES = ["reeval", "incremental"]

QUERY = ("SELECT d.label, count(*) n "
         f"FROM sensors [RANGE {WINDOW} SLIDE {SLIDE}] s, dim d "
         "WHERE s.sensor_id = d.key GROUP BY d.label ORDER BY d.label")


def run_hybrid(table_rows: int, indexed: bool, mode: str,
               sensors: int = 16):
    engine = DataCellEngine()
    engine.execute("CREATE STREAM sensors (sensor_id INT, room INT, "
                   "temperature FLOAT, humidity FLOAT)")
    engine.execute("CREATE TABLE dim (key INT, label VARCHAR(16))")
    # the first `sensors` keys match the stream; the rest are ballast
    # that makes the per-firing hash-table rebuild expensive
    engine.catalog.table("dim").insert_rows(
        [(k, f"label{k % 7}") for k in range(table_rows)])
    if indexed:
        engine.execute("CREATE INDEX ON dim (key)")
    query = engine.register_continuous(QUERY, mode=mode, name="q")
    engine.attach_source(
        "sensors", RateSource(sensor_rows(N_ROWS, sensors=sensors),
                              rate=1_000_000))
    engine.run_until_drained()
    assert not engine.scheduler.failed
    factory = query.factory
    return {
        "ms_per_fire": factory.busy_seconds / factory.fires * 1000,
        "fires": factory.fires,
        "rows": [rel.to_rows() for _t, rel in
                 engine.results("q").batches],
    }


def mode_table(mode: str) -> ResultTable:
    table = ResultTable(
        f"E11: hash index on the dimension side of a hybrid join "
        f"({mode})",
        ["dim_rows", "noindex_ms_per_fire", "indexed_ms_per_fire",
         "speedup"])
    for size in TABLE_SIZES:
        plain = run_hybrid(size, indexed=False, mode=mode)
        fast = run_hybrid(size, indexed=True, mode=mode)
        table.add(size, plain["ms_per_fire"], fast["ms_per_fire"],
                  speedup(plain["ms_per_fire"], fast["ms_per_fire"]))
    return table


def run_experiment() -> List[ResultTable]:
    return [mode_table(mode) for mode in MODES]


@pytest.mark.parametrize("mode", MODES)
def test_e11_report(mode):
    table = mode_table(mode)
    table.show()
    rows = table.as_dicts()
    # without the index, cost grows with the dimension size ...
    assert rows[-1]["noindex_ms_per_fire"] > \
        rows[0]["noindex_ms_per_fire"] * 2
    # ... with it, the large-table case wins clearly
    assert rows[-1]["speedup"] > 2.0
    # and the advantage grows with the table size
    assert rows[-1]["speedup"] > rows[0]["speedup"]


@pytest.mark.parametrize("mode", MODES)
def test_e11_results_identical(mode):
    plain = run_hybrid(2000, indexed=False, mode=mode)
    fast = run_hybrid(2000, indexed=True, mode=mode)
    assert plain["rows"] == fast["rows"]


@pytest.mark.parametrize("indexed", [False, True],
                         ids=["noindex", "indexed"])
def test_e11_hybrid_join(benchmark, indexed):
    benchmark(lambda: run_hybrid(10_000, indexed=indexed,
                                 mode="incremental"))

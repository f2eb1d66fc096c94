"""Quick benchmark smoke run: archive E2/E9 result tables as JSON.

Usage::

    python benchmarks/bench_smoke.py [--quick] [--outdir DIR]

Runs the experiments the stacked PRs track for regressions — E2
(standing-query scaling + recycler on/off ablation), E9 (basket
ingest/retention mechanics), E10n (network-edge loopback throughput),
E11c (chained-network recycling, recycler on/off), E14
(interpreted vs slot-compiled per-fire overhead, recycler admission
ablation), E15 (durable-log ingest throughput by write discipline,
cold-start recovery time), E16 (paged from_start replay over
log-resident history, retention truncation under live queries) and
E17 (Postgres front-end round-trip latency vs the framed protocol,
idle pg tail subscribers on the shared asyncio core) — and writes
``BENCH_E2.json``, ``BENCH_E9.json``,
``BENCH_E10.json``, ``BENCH_E11.json``,
``BENCH_E14.json``, ``BENCH_E15.json``, ``BENCH_E16.json`` and
``BENCH_E17.json`` to the repo root (or ``--outdir``). CI runs ``--quick`` so drift is caught
without a full experiment sweep;
``repro.bench.reporting.compare_runs`` diffs two archives.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from benchmarks import (bench_e2_multiquery,
                        bench_e9_baskets, bench_e10_net,
                        bench_e11_chain,
                        bench_e14_interp, bench_e15_durability,
                        bench_e16_paging, bench_e17_pg)
from repro.bench.reporting import save_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_e2(quick: bool):
    nrows = 6000 if quick else bench_e2_multiquery.RECYCLER_ROWS
    scaling = bench_e2_multiquery.run_experiment()
    ablation = bench_e2_multiquery.run_recycler_experiment(nrows)
    return [scaling, ablation]


def run_e9(quick: bool):
    if quick:
        ingest = bench_e9_baskets.ResultTable(
            "E9a: basket ingest throughput (quick)",
            ["batch_size", "tuples_per_s"])
        for batch in (16, 4096):
            ingest.add(batch, bench_e9_baskets.ingest_throughput(
                batch, nrows=20_000))
        return [ingest, bench_e9_baskets.run_retention_table()]
    return bench_e9_baskets.run_experiment()


def run_e10(quick: bool):
    nrows = 2_000 if quick else bench_e10_net.N_ROWS
    return [bench_e10_net.run_ingest_table(nrows),
            bench_e10_net.run_delivery_table(nrows)]


def run_e11(quick: bool):
    nrows = 4_000 if quick else bench_e11_chain.N_ROWS
    repeats = 1 if quick else 3
    return [bench_e11_chain.run_experiment(nrows=nrows,
                                           repeats=repeats)]


def run_e14(quick: bool):
    nrows = 8_000 if quick else bench_e14_interp.N_ROWS
    repeats = 1 if quick else 3
    return bench_e14_interp.run_experiment(nrows=nrows,
                                           repeats=repeats)


def run_e15(quick: bool):
    nrows = 20_000 if quick else bench_e15_durability.N_ROWS
    repeats = 1 if quick else 3
    sizes = [2_000, 8_000] if quick \
        else bench_e15_durability.RECOVERY_SIZES
    return [bench_e15_durability.run_ingest_table(nrows, repeats),
            bench_e15_durability.run_recovery_table(sizes)]


def run_e16(quick: bool):
    nrows = 40_000 if quick else bench_e16_paging.N_ROWS
    retention = 24_000 if quick else 40_000
    return [bench_e16_paging.run_replay_table(nrows),
            bench_e16_paging.run_retention_table(retention)]


def run_e17(quick: bool):
    iters = 100 if quick else bench_e17_pg.LATENCY_ITERS
    counts = [100, 1000] if quick else bench_e17_pg.IDLE_COUNTS
    return [bench_e17_pg.run_latency_table(iters),
            bench_e17_pg.run_idle_table(counts)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke mode)")
    parser.add_argument("--outdir", default=REPO_ROOT,
                        help="directory for BENCH_*.json")
    args = parser.parse_args(argv)

    for name, runner in (("BENCH_E2.json", run_e2),
                         ("BENCH_E9.json", run_e9),
                         ("BENCH_E10.json", run_e10),
                         ("BENCH_E11.json", run_e11),
                         ("BENCH_E14.json", run_e14),
                         ("BENCH_E15.json", run_e15),
                         ("BENCH_E16.json", run_e16),
                         ("BENCH_E17.json", run_e17)):
        tables = runner(args.quick)
        for table in tables:
            print()
            print(table.render())
        path = os.path.join(args.outdir, name)
        save_json(tables, path)
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

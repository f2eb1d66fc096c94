"""Run every experiment (E1-E16) and print the full report.

Usage::

    python benchmarks/run_experiments.py [--quick]

This is the aggregate view behind EXPERIMENTS.md: each experiment
module also runs under pytest (``pytest benchmarks/``) where the shape
assertions live; this runner just produces all tables in one place.
"""

from __future__ import annotations

import os
import sys
import time

# allow `python benchmarks/run_experiments.py` from the repo root
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from benchmarks import (bench_e1_compile, bench_e2_multiquery,
                        bench_e3_incremental, bench_e4_windows,
                        bench_e5_complex, bench_e6_hybrid,
                        bench_e7_linearroad, bench_e8_scheduler,
                        bench_e9_baskets, bench_e10_ablation,
                        bench_e10_net, bench_e11_indexing,
                        bench_e12_storefirst,
                        bench_e14_interp, bench_e15_durability,
                        bench_e16_paging)

EXPERIMENTS = [
    ("E1 — continuous-query compilation", bench_e1_compile),
    ("E2 — query-network scaling", bench_e2_multiquery),
    ("E3 — re-evaluation vs incremental", bench_e3_incremental),
    ("E4 — window-size sweeps", bench_e4_windows),
    ("E5 — complex queries (joins)", bench_e5_complex),
    ("E6 — stream + persistent paradigms", bench_e6_hybrid),
    ("E7 — scaled Linear Road", bench_e7_linearroad),
    ("E8 — scheduler time constraints", bench_e8_scheduler),
    ("E9 — basket mechanics", bench_e9_baskets),
    ("E10 — caching ablation", bench_e10_ablation),
    ("E10n — network edge loopback", bench_e10_net),
    ("E11 — indexing in a streaming setting", bench_e11_indexing),
    ("E12 — continuous vs store-first-query-later",
     bench_e12_storefirst),
    ("E14 — slot-compiled plan execution", bench_e14_interp),
    ("E15 — durable stream log", bench_e15_durability),
    ("E16 — log-resident paged windows", bench_e16_paging),
]


def main() -> int:
    total_start = time.perf_counter()
    for title, module in EXPERIMENTS:
        print()
        print("#" * 72)
        print(f"# {title}")
        print("#" * 72)
        start = time.perf_counter()
        result = module.run_experiment()
        tables = result if isinstance(result, list) else [result]
        for table in tables:
            print()
            print(table.render())
        print(f"\n[{title}: {time.perf_counter() - start:.1f}s]")
    print(f"\nall experiments: "
          f"{time.perf_counter() - total_start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

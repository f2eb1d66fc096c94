#!/usr/bin/env python3
"""E18: wire-to-wire benchmark of `repro serve`.

    python3 benchmarks/e18/run.py --workload lr_windows --seed 1 \\
        --seconds 20 --trace 0

prints the five end-to-end metrics of one workload (all four without
`--workload`), checks every delivered row against the oracle, and ends
with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
`--trace 1` prints the per-layer metrics and the stage table from a
separate traced run instead. `--selfcheck N` runs two sets of N
invocations and compares them against the bounds in BENCHMARK.json.
README.md has the design; workloads.py the frozen sizes.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro" / "cli.py").is_file():
    sys.exit(f"e18: no program to measure: {REPO / 'src' / 'repro'} "
             f"is missing")
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import harness  # noqa: E402
import provenance  # noqa: E402
from workloads import WORKLOADS, quick  # noqa: E402

ROUND_SECONDS = 4     # one [sat, paced] round on the calibration commit
SETUPS = 3            # set-ups per invocation; `setup_s` is their median
TRACE_ROUNDS = 2

# BENCHMARK.json names the metrics of each kind of run and their units
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def measure(name: str, args: argparse.Namespace) -> dict:
    w = quick(WORKLOADS[name]) if args.quick else WORKLOADS[name]
    if args.quick:
        rounds = 1
    elif args.trace:
        rounds = TRACE_ROUNDS
    else:
        rounds = max(1, round(args.seconds / ROUND_SECONDS))
    if args.trace:
        import trace_report
        result = trace_report.traced_run(w, args.seed, rounds)
    else:
        result = harness.run(w, args.seed, rounds,
                             setups=1 if args.quick else SETUPS)
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in listed}
    result["units"] = {m["name"]: m["unit"] for m in listed}
    result.update(workload=name, trace=args.trace, quick=args.quick,
                  rounds=rounds, **provenance.stamp(args.seed))
    if args.record:
        provenance.append(Path(args.record), result)
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'end to end'}) ==")
    for metric, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:32s} {shown:>12s} {result['units'][metric]}")
    if not result["trace"]:
        slices = result["slices"]
        print(f"  samples: {len(slices['setup_s'])} set-ups, "
              f"{len(slices['sat_rows_per_s'])} sat slices, "
              f"{slices['paced_samples']} latencies per paced slice")
        print(f"  delivery (pooled, diagnostic): "
              f"p99 {result['delivery']['latency_p99_ms']:.2f} ms, "
              f"max {result['delivery']['latency_max_ms']:.2f} ms; "
              f"server peak rss {result['peak_rss_mb']:.1f} MB")
        if any(slices["generator_limited"]):
            print(f"  {sum(slices['generator_limited'])} generator-limited "
                  f"paced slice(s) passed over")
        print(f"  loadgen: late p99 {max(slices['late_ms_p99']):.2f} ms, "
              f"cpu share {max(slices['loadgen_cpu_share']):.2f} "
              f"(worst slice)")
    for line in result.get("table", []):
        print("  " + line)
    if result.get("unresolved"):
        print(f"  unresolved trace targets: {result['unresolved']}")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed"
          + (f" — {result['first_mismatch']}"
             if result.get("first_mismatch") else ""))
    metrics = {k: {"value": v, "unit": result["units"][k]}
               for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round of small slices (smoke test)")
    parser.add_argument("--record", metavar="FILE",
                        help="append the full result (provenance, per-slice "
                        "values) to this JSON-lines file; the committed "
                        "baseline is results/trajectory.jsonl")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=5,
                        metavar="N", help="two sets of N invocations, "
                        "compared against BENCHMARK.json's bounds")
    args = parser.parse_args()
    # leave through `finally` and `atexit` when told to stop, so the
    # server and the spinners are reaped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.selfcheck is not None:
        import selfcheck
        return selfcheck.main(args)
    failed = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        try:
            result = measure(name, args)
        except harness.RunFailed as exc:
            print(f"e18: {name}: run failed: {exc}", file=sys.stderr)
            return 1
        report(result)
        failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

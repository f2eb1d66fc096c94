"""`--selfcheck N`: do two sets of runs of the same code agree?

Runs two sets of N invocations per workload back to back (each
invocation a fresh process with its own seed) and compares, for every
workload × end-to-end metric, the two medians against the metric's bound
in BENCHMARK.json, and each set's inter-quartile range against the same
bound — the acceptance test a later PR's numbers are held to.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import harness
import provenance

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _invoke(workload: str, seed: int, seconds: int,
            record: Path) -> Dict[str, Any]:
    """One invocation in a fresh process; its full record, per-slice
    values included, comes back through *record*."""
    record.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--record", str(record)],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"selfcheck: {workload} seed {seed} failed:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(record.read_text())
    slices = result["slices"]
    late, share = max(slices["late_ms_p99"]), max(slices["loadgen_cpu_share"])
    if late > harness.LATE_MS_LIMIT or share > harness.CPU_SHARE_LIMIT:
        print(f"  generator-limited: {workload} seed {seed}: late p99 "
              f"{late:.2f} ms, cpu share {share:.2f} in its worst slice")
    return result


def _spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(args) -> int:
    n = args.selfcheck
    workloads = [args.workload] if args.workload \
        else [w["name"] for w in SPEC["workloads"]]
    harness_work = HERE / ".work"
    harness_work.mkdir(exist_ok=True)
    record = harness_work / f"selfcheck-{os.getpid()}.jsonl"
    sets: List[Dict[str, List[Dict[str, float]]]] = []
    for s in range(2):
        runs: Dict[str, List[Dict[str, float]]] = {w: [] for w in workloads}
        for i in range(n):   # workloads interleaved within a set
            for w in workloads:
                seed = args.seed + s * n + i
                result = _invoke(w, seed, args.seconds, record)
                runs[w].append(result["metrics"])
                if args.record:
                    provenance.append(Path(args.record), result)
                print(f"  set {s + 1} run {i + 1}/{n} {w} done", flush=True)
        sets.append(runs)
    record.unlink(missing_ok=True)
    print(f"{'workload':12s} {'metric':22s} {'median 1':>11s} {'median 2':>11s}"
          f" {'iqr 1':>7s} {'iqr 2':>7s} {'iqr 1+2':>7s} {'worse by':>9s} "
          f"{'bound':>6s}")
    failures = 0
    for w in workloads:
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a, b = ([run[name] for run in s[w]] for s in sets)
            m1, m2 = statistics.median(a), statistics.median(b)
            worse = (m2 - m1) / m1 * (1 if spec["better"] == "lower" else -1)
            spreads = [_spread(v) if len(v) > 1 else 0.0 for v in (a, b)]
            pooled = _spread(a + b)
            # the builder's acceptance rule: medians within the bound for
            # every metric, spreads within it for every metric but setup_s
            ok = worse <= bound and (name == "setup_s"
                                     or max(spreads) <= bound)
            failures += not ok
            print(f"{w:12s} {name:22s} {m1:11.5g} {m2:11.5g} "
                  f"{spreads[0]:7.3f} {spreads[1]:7.3f} {pooled:7.3f} "
                  f"{worse:+9.3f} "
                  f"{bound:6.2f} {'PASS' if ok else 'FAIL'}")
    print(f"selfcheck: {failures} of "
          f"{len(workloads) * len(SPEC['end_to_end'])} pairs failed")
    return 1 if failures else 0

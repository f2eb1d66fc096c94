"""The traced run: per-layer metrics and the stage table from spans.

`traced_run` measures a workload twice with the same plan — once on the
plain server (for `trace.overhead_share` and the generator's own
numbers), once on `traced_serve.py` — and turns the second run's spans
into the per-layer metrics of BENCHMARK.json. End-to-end metrics are
never read from here.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence

import harness
from workloads import Workload

# stage -> the span names whose self time it sums; the rows of the table
STAGES = [
    ("decode", ("net.decode", "sql.parse", "pg.classify")),
    ("admit", ("receptor.offer", "receptor.pump", "net.ingest",
               "sql.execute", "sql.register")),
    ("append", ("basket.append", "basket.vacuum")),
    ("log", ("store.append", "store.flush", "store.checkpoint",
             "store.retention", "store.replay", "store.recover")),
    ("schedule wait", ("scheduler.step",)),
    ("window slice", ("windows.slice", "recycler.slice")),
    ("plan", ("factory.fire", "factory.poll", "mal.run")),
    ("recycler", ("recycler.lookup",)),
    ("emit", ("emitter.deliver",)),
    ("queue", ("emitter.enqueue", "emitter.dequeue")),
    ("encode", ("net.rows", "net.encode", "pg.encode")),
    ("edge i/o", ("net.recv", "net.send", "net.writer", "net.replay",
                  "pg.query", "pg.tail", "pg.flush")),
]

# a layer's metrics read null when one of these span names is lost
_READS = {"net": ("net.decode", "net.encode", "emitter.enqueue",
                  "emitter.dequeue"),
          "pg": ("pg.encode", "sql.parse", "emitter.enqueue",
                 "emitter.dequeue"),
          "sql": ("sql.parse", "sql.register"),
          "receptor": ("receptor.offer", "receptor.pump", "basket.append"),
          "basket": ("basket.append", "basket.vacuum"),
          "store": ("store.append", "store.checkpoint", "store.replay"),
          "scheduler": ("scheduler.step", "basket.append", "factory.fire"),
          "windows": ("windows.slice",),
          "factory": ("factory.fire", "factory.poll"), "mal": ("mal.run",),
          "recycler": ("recycler.lookup", "recycler.slice"),
          "emitter": ("emitter.deliver", "emitter.enqueue")}
# the only metrics that read `traced_serve.INTERNAL_TARGETS`
INTERNAL_READS = {
    "pg.session_us_per_row": ("pg.query", "pg.tail", "pg.flush"),
    "store.flush_ms_p50": ("store.flush",),
    "store.recovery_s": ("store.recover",),
}

ID, NAME, THREAD, START, WALL, CPU, PARENT, A, B, C = range(10)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    """A traced server's spans, indexed by name. `paced` keeps only the
    spans that began inside an open-loop slice: the server's
    `perf_counter_ns` and the generator's `perf_counter` are one clock."""

    def __init__(self, dump: Dict[str, Any],
                 paced_windows: Sequence[Sequence[float]] = ()):
        self._paced_ns = [(int(t0 * 1e9), int(t1 * 1e9))
                          for t0, t1 in paced_windows]
        self.names: List[str] = dump["names"]
        self.cpu_ns: int = dump["cpu_ns"]
        self.stats: Dict[str, Any] = dump["stats"]
        self.unresolved: List[str] = dump["unresolved"]
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        child_cpu: Dict[int, int] = defaultdict(int)
        for span in dump["spans"]:
            self.by_name[self.names[span[NAME]]].append(span)
            if span[PARENT] >= 0:
                child_cpu[span[PARENT]] += span[CPU]
        self._child_cpu = child_cpu
        for spans in self.by_name.values():
            spans.sort(key=lambda s: s[START])

    def get(self, *names: str) -> List[list]:
        return [s for n in names for s in self.by_name.get(n, ())]

    def paced(self, *names: str) -> List[list]:
        return [s for s in self.get(*names)
                if any(t0 <= s[START] <= t1 for t0, t1 in self._paced_ns)]

    def self_cpu(self, *names: str) -> int:
        return sum(max(0, s[CPU] - self._child_cpu.get(s[ID], 0))
                   for s in self.get(*names))

    def cpu(self, *names: str) -> int:
        return sum(s[CPU] for s in self.get(*names))

    def wall_ms(self, *names: str) -> List[float]:
        return [s[WALL] / 1e6 for s in self.get(*names)]


def _queue_waits_ms(spans: Spans) -> List[float]:
    """Result batch enqueued by the scheduler → dequeued by its writer."""
    put = {(s[A], s[B]): s[START] + s[WALL]
           for s in spans.get("emitter.enqueue")}
    return [(s[START] + s[WALL] - put[(s[A], s[B])]) / 1e6
            for s in spans.paced("emitter.dequeue")
            if s[B] >= 0 and (s[A], s[B]) in put]


def _admission_waits_ms(spans: Spans) -> List[float]:
    """Batch offered by the connection → appended by the scheduler's
    pump. The queue is FIFO per receptor, and a pump's `basket.append`
    children are the batches it took, in order."""
    taken = defaultdict(list)
    for s in spans.get("basket.append"):
        taken[s[PARENT]].append(s[START])
    offers = defaultdict(list)
    for s in spans.get("receptor.offer"):
        if s[C]:   # accepted
            offers[s[A]].append(s[START] + s[WALL])
    position = defaultdict(int)
    waits = []
    paced = {s[ID] for s in spans.paced("receptor.pump")}
    for pump in spans.get("receptor.pump"):
        queue, first = offers[pump[A]], position[pump[A]]
        if pump[ID] in paced:
            for offered, appended in zip(queue[first:], taken[pump[ID]]):
                waits.append(max(0.0, (appended - offered) / 1e6))
        position[pump[A]] += len(taken[pump[ID]])
    return waits


def _schedule_waits_ms(spans: Spans, w: Workload, factory: int) -> List[float]:
    """End of the append that completed a window → start of its fire."""
    appends = spans.get("basket.append")
    fires = [s for s in spans.get("factory.fire")
             if s[A] == factory and s[C]]
    if not appends:
        return []
    paced = {s[ID] for s in spans.paced("factory.fire")}
    waits = []
    if w.per_fire:
        size, slide = w.window()
        first_oids = [s[A] for s in appends]
        for k, fire in enumerate(fires):
            if fire[ID] not in paced:
                continue
            i = bisect.bisect_right(first_oids, k * slide + size - 1) - 1
            done = appends[i][START] + appends[i][WALL]
            waits.append(max(0.0, (fire[START] - done) / 1e6))
    else:
        ends = [s[START] + s[WALL] for s in appends]
        for fire in fires:
            i = bisect.bisect_right(ends, fire[START]) - 1
            if i >= 0 and fire[ID] in paced:
                waits.append((fire[START] - ends[i]) / 1e6)
    return waits


def per_layer(spans: Spans, w: Workload, factory: int) -> Dict[str, Any]:
    stats = spans.stats
    ingest = [s for s in spans.get("net.decode") if s[B] >= 0]
    results = [s for s in spans.get("net.encode") if s[B] >= 0]
    rows_in = sum(s[B] for s in spans.get("basket.append"))
    rows_out = sum(s[B] for s in results) \
        or sum(s[B] for s in spans.get("pg.encode"))
    fires = len(spans.get("factory.fire"))
    steps = spans.paced("scheduler.step")
    busy = [s for s in steps if s[A] or s[B]]
    queue_wait = _median(_queue_waits_ms(spans))
    pg = w.front == "pg"
    totals = stats.get("net", {}).get("totals", {})
    log = stats.get("log", {}).get("streams", {}).get(w.stream, {})
    recycler = stats.get("recycler", {})
    lookups = recycler.get("hits", 0) + recycler.get("misses", 0) \
        + recycler.get("slice_hits", 0) + recycler.get("slice_misses", 0)
    replay = spans.get("store.replay")
    us = 1e-3   # ns -> µs

    def p(values: List[float], q: float) -> float:
        return harness.percentile(values, q) if values else 0.0

    bytes_in = sum(s[A] for s in ingest)
    return {
        "net.decode_us_per_row": _ratio(sum(s[CPU] for s in ingest) * us,
                                        rows_in),
        "net.encode_us_per_row": _ratio(sum(s[CPU] for s in results) * us,
                                        sum(s[B] for s in results)),
        "net.bytes_in_per_row": _ratio(bytes_in, rows_in),
        "net.bytes_out_per_row": _ratio(sum(s[A] for s in results),
                                        sum(s[B] for s in results)),
        "net.queue_wait_ms_p50": 0.0 if pg else queue_wait,
        "net.evicted": totals.get("evicted", 0),
        "net.shed": totals.get("shed", 0),
        "pg.session_us_per_row": _ratio(spans.self_cpu(
            "pg.query", "pg.tail", "pg.flush", "pg.classify") * us, rows_in),
        "pg.encode_us_per_row": _ratio(spans.cpu("pg.encode") * us,
                                       rows_out if pg else 0),
        "pg.bytes_in_per_row": _ratio(
            sum(s[A] for s in spans.get("sql.parse")) if pg else 0, rows_in),
        "pg.tail_wait_ms_p50": queue_wait if pg else 0.0,
        "sql.parse_us_per_row": _ratio(spans.cpu("sql.parse") * us, rows_in),
        "sql.register_ms": sum(spans.wall_ms("sql.register")),
        "receptor.offer_us_per_row": _ratio(
            spans.self_cpu("receptor.offer") * us, rows_in),
        "receptor.admission_wait_ms_p50":
            _median(_admission_waits_ms(spans)),
        "receptor.blocked": totals.get("blocked", 0),
        "receptor.shed": totals.get("shed", 0),
        "basket.append_us_per_row": _ratio(
            spans.self_cpu("basket.append") * us, rows_in),
        "basket.vacuum_ms_total": sum(spans.wall_ms("basket.vacuum")),
        "basket.peak_rows": max((s[C] for s in spans.get("basket.append")),
                                default=0),
        "store.append_us_per_row": _ratio(spans.cpu("store.append") * us,
                                          rows_in),
        "store.flush_ms_p50": _median(spans.wall_ms("store.flush")),
        "store.checkpoint_ms_p50": _median(spans.wall_ms("store.checkpoint")),
        "store.bytes_per_row": _ratio(log.get("bytes_written", 0), bytes_in),
        "store.backlog_rows_max": max(
            (s[C] for s in spans.get("store.append")), default=0),
        "store.retention_truncations": log.get("retention_truncations", 0),
        "store.replay_rows_per_s": _ratio(sum(s[B] for s in replay),
                                          sum(s[WALL] for s in replay) / 1e9),
        "store.recovery_s": sum(spans.wall_ms("store.recover")) / 1e3,
        "scheduler.step_ms_p50": _median([s[WALL] / 1e6 for s in busy]),
        "scheduler.steps": len(steps),
        "scheduler.idle_step_share": _ratio(len(steps) - len(busy),
                                            len(steps)),
        "scheduler.wait_ms_p50": _median(
            _schedule_waits_ms(spans, w, factory)),
        "windows.slice_us_per_fire": _ratio(
            spans.self_cpu("windows.slice") * us, fires),
        "factory.fire_ms_p50": _median(spans.wall_ms("factory.fire")),
        "factory.fire_ms_p90": p(spans.wall_ms("factory.fire"), 0.90),
        "factory.fires": fires,
        "factory.rows_in_per_fire": _ratio(
            sum(s[B] for s in spans.get("factory.fire", "factory.poll")),
            fires * (w.window()[1] if w.per_fire else w.batch_rows)),
        "mal.run_ms_p50": _median(spans.wall_ms("mal.run")),
        "mal.instr_per_fire": _ratio(
            sum(s[B] for s in spans.get("mal.run")), fires),
        "recycler.hit_ratio": _ratio(
            recycler.get("hits", 0) + recycler.get("slice_hits", 0), lookups),
        "recycler.lookup_us_per_fire": _ratio(
            spans.self_cpu("recycler.lookup", "recycler.slice") * us, fires),
        "recycler.bytes": recycler.get("bytes", 0),
        "recycler.evictions": recycler.get("evictions", 0),
        "emitter.deliver_us_per_fire": _ratio(
            spans.cpu("emitter.deliver") * us, fires),
        "emitter.queue_depth_max": max(
            (s[C] for s in spans.get("emitter.enqueue")), default=0),
    }


def stage_table(spans: Spans, rows_in: int,
                waits: Dict[str, float]) -> List[str]:
    total = spans.cpu_ns
    lines = [f"{'stage':14s} {'cpu share':>10s} {'us/row':>9s} "
             f"{'wait p50 ms':>12s}"]
    covered = 0
    for stage, names in STAGES:
        cpu = spans.self_cpu(*names)
        covered += cpu
        wait = f"{waits[stage]:12.3f}" if stage in waits else " " * 12
        lines.append(f"{stage:14s} {cpu / total:10.3f} "
                     f"{_ratio(cpu / 1e3, rows_in):9.3f} {wait}")
    lines.append(f"{'(traced)':14s} {covered / total:10.3f} "
                 f"{_ratio(covered / 1e3, rows_in):9.3f}")
    lines.append(f"{'(untraced)':14s} {1 - covered / total:10.3f} "
                 f"{_ratio((total - covered) / 1e3, rows_in):9.3f}")
    return lines


def traced_run(w: Workload, seed: int, rounds: int) -> Dict[str, Any]:
    plain = harness.run(w, seed, rounds, setups=1)
    harness.WORK_ROOT.mkdir(exist_ok=True)
    path = harness.WORK_ROOT / f"spans-{os.getpid()}.json"
    try:
        traced = harness.run(w, seed, rounds, setups=1, spans=path)
        with open(path) as f:
            spans = Spans(json.load(f), traced["paced_windows"])
    finally:
        path.unlink(missing_ok=True)

    factories = {q["name"]: q["factory"]
                 for q in spans.stats.get("e18_queries", [])}
    metrics: Dict[str, Optional[float]] = per_layer(
        spans, w, factories.get(w.query, -1))
    lost = {name for name, _dotted in spans.unresolved}
    for key in metrics:
        if lost.intersection(_READS[key.split(".")[0]]
                             + INTERNAL_READS.get(key, ())):
            metrics[key] = None
    slices = plain["slices"]
    metrics.update({
        "sql.onetime_ms_p50": _median(plain["onetime_ms"]),
        "delivery.latency_p99_ms": plain["delivery"]["latency_p99_ms"],
        "delivery.latency_max_ms": plain["delivery"]["latency_max_ms"],
        "server.peak_rss_mb": plain["peak_rss_mb"],
        "loadgen.late_ms_p99": max(slices["late_ms_p99"]),
        "loadgen.cpu_share": max(slices["loadgen_cpu_share"]),
        "trace.coverage_share": sum(
            spans.self_cpu(*names) for _stage, names in STAGES)
        / spans.cpu_ns,
        "trace.overhead_share":
            1 - traced["metrics"]["throughput_rows_per_s"]
            / plain["metrics"]["throughput_rows_per_s"],
    })
    rows_in = sum(s[B] for s in spans.get("basket.append"))
    waits = {"admit": metrics["receptor.admission_wait_ms_p50"] or 0.0,
             "schedule wait": metrics["scheduler.wait_ms_p50"] or 0.0,
             "queue": (metrics["net.queue_wait_ms_p50"] or 0.0)
             + (metrics["pg.tail_wait_ms_p50"] or 0.0)}
    return {
        "metrics": metrics,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "first_mismatch": plain["first_mismatch"] or traced["first_mismatch"],
        "table": stage_table(spans, rows_in, waits),
        "unresolved": [dotted for _name, dotted in spans.unresolved],
        "untraced_rows_per_s": plain["metrics"]["throughput_rows_per_s"],
        "traced_rows_per_s": traced["metrics"]["throughput_rows_per_s"],
    }

"""The four E18 workloads: server scripts, frozen sizes, seeded inputs.

Every number here is a literal calibrated once on CALIBRATION_COMMIT and
frozen; nothing is derived from a measurement at run time, so two runs of
one commit do the same work and a later commit is measured on the work
this one did. README.md records why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.streams.generators import (ROOMS_SCHEMA, SENSOR_SCHEMA,
                                      reference_rooms, sensor_rows)
from repro.streams.linearroad import (POSITION_SCHEMA, LinearRoadConfig,
                                      LinearRoadGenerator)

CALIBRATION_COMMIT = "d81814bf66effac317c97da0d62295352ea371bf"

# virtual microseconds between the `sent` stamps of consecutive slices:
# wider than any slice, so stamps rise strictly over a whole run
SLICE_SPAN_US = 100_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    front: str                # "framed" | "pg"
    stream: str
    query: str                # the subscribed standing query
    script: str               # --script text: DDL + .register lines
    serve_args: Tuple[str, ...]
    batch_rows: int           # rows per INGEST frame / INSERT statement
    period_rows: int          # the input is this many rows, repeated
    warm_rows: int            # set-up volume, delivered and verified
    sat_rows: int             # rows per closed-loop slice
    paced_rows: int           # rows per open-loop slice
    paced_rate: int           # rows/s of the open-loop slice
    latency_limit_ms: float   # a paced result later than this has failed
    per_fire: bool            # one result frame per window fire?
    durable: bool = False     # data dir, crash in set-up, replay at the end

    def window(self) -> Tuple[int, int]:
        """(range, slide) of the subscribed query's tuple window."""
        return WINDOWS[self.name]

    def unheard(self) -> Dict[str, Tuple[int, int]]:
        """(range, slide) of the standing queries nobody subscribes to."""
        return UNHEARD.get(self.name, {})


WINDOWS: Dict[str, Tuple[int, int]] = {
    "lr_windows": (4096, 512),
    "lr_durable": (4096, 512),
    "pg_hybrid": (512, 64),
}
UNHEARD: Dict[str, Dict[str, Tuple[int, int]]] = {
    "lr_windows": {"stopped": (2048, 512), "volume": (4096, 512)},
}

def _with_sent(schema: str) -> str:
    """A generator's stream DDL with the trailing `sent INT` stamp."""
    return schema.rstrip(")") + ", sent INT);"


_LR_SCHEMA = _with_sent(POSITION_SCHEMA)
_SEGSTATS = (".register segstats SELECT xway, dir, seg, avg(speed), "
             "count(*), max(sent) FROM position [RANGE 4096 SLIDE 512] "
             "GROUP BY xway, dir, seg")
_STOPPED = (".register stopped SELECT xway, dir, seg, count(*), max(sent) "
            "FROM position [RANGE 2048 SLIDE 512] WHERE speed = 0 "
            "GROUP BY xway, dir, seg HAVING count(*) >= 4")
_VOLUME = (".register volume SELECT xway, count(*), avg(speed) "
           "FROM position [RANGE 4096 SLIDE 512] GROUP BY xway")

_ROOMS = reference_rooms(4)
ONE_TIME_SQL = ("SELECT name, min_temp FROM rooms WHERE min_temp > 14 "
                "ORDER BY name")
ONE_TIME_ROWS = sorted((name, lo) for _r, name, lo, _hi in _ROOMS if lo > 14)
ONE_TIME_EVERY = 16   # pg_hybrid: every 16th statement is the SELECT

_PG_SCRIPT = "\n".join([
    _with_sent(SENSOR_SCHEMA),
    ROOMS_SCHEMA + ";",
    "INSERT INTO rooms VALUES " + ", ".join(
        f"({r}, '{n}', {lo}, {hi})" for r, n, lo, hi in _ROOMS) + ";",
    ".register cq reeval SELECT r.name, avg(s.temperature), max(s.sent) "
    "FROM sensors [RANGE 512 SLIDE 64] s, rooms r "
    "WHERE s.room = r.room GROUP BY r.name",
]) + "\n"

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="passthrough", front="framed", stream="s", query="q",
        script=("CREATE STREAM s (k INT, v FLOAT, sent INT);\n"
                ".register q SELECT k, v, sent FROM s\n"),
        serve_args=(), batch_rows=512, period_rows=65_536,
        warm_rows=131_072, sat_rows=409_600, paced_rows=147_456,
        paced_rate=60_000, latency_limit_ms=250.0, per_fire=False),
    Workload(
        name="lr_windows", front="framed", stream="position",
        query="segstats",
        script="\n".join([_LR_SCHEMA, _SEGSTATS, _STOPPED, _VOLUME]) + "\n",
        serve_args=(), batch_rows=512, period_rows=65_536,
        warm_rows=65_536, sat_rows=245_760, paced_rows=53_248,
        paced_rate=20_000, latency_limit_ms=250.0, per_fire=True),
    Workload(
        name="lr_durable", front="framed", stream="position",
        query="segstats",
        script="\n".join([_LR_SCHEMA, _SEGSTATS]) + "\n",
        serve_args=("--durability", "async", "--segment-rows", "4096",
                    "--checkpoint-interval", "2",
                    "--retain-bytes", "4000000"),
        batch_rows=512, period_rows=65_536,
        warm_rows=65_536, sat_rows=245_760, paced_rows=53_248,
        paced_rate=20_000, latency_limit_ms=250.0, per_fire=True,
        durable=True),
    Workload(
        name="pg_hybrid", front="pg", stream="sensors", query="cq",
        script=_PG_SCRIPT, serve_args=(), batch_rows=64,
        period_rows=16_384,
        warm_rows=8_192, sat_rows=12_288, paced_rows=6_656,
        paced_rate=2_048, latency_limit_ms=250.0, per_fire=True),
)}

# --quick: one round of small slices, for the smoke test only
QUICK_SCALE = 8


def quick(w: Workload) -> Workload:
    from dataclasses import replace
    unit = w.batch_rows * 8
    cut = lambda n: max(unit, n // QUICK_SCALE // unit * unit)  # noqa: E731
    return replace(w, warm_rows=cut(w.warm_rows), sat_rows=cut(w.sat_rows),
                   paced_rows=cut(w.paced_rows))


def make_rows(w: Workload, seed: int, n: int) -> List[list]:
    """*n* input rows for *w*, without the trailing `sent` column."""
    if w.name == "passthrough":
        rng = np.random.default_rng(seed)
        k = rng.integers(0, 1000, n).tolist()
        v = np.round(rng.random(n) * 100.0, 3).tolist()
        return [list(kv) for kv in zip(k, v)]
    if w.front == "pg":
        return [list(r) for r in sensor_rows(n, seed=seed)]
    return _linear_road_rows(seed, n)


def _linear_road_rows(seed: int, n: int) -> List[list]:
    """Position reports of >= 2000 live cars (LinearRoadGenerator)."""
    cars, every = 2400, 3
    # cars enter over the first half of the run, so a tick yields
    # between 0 and `cars` reports; size the run from the mean
    ticks = 2 * n // cars + 16
    config = LinearRoadConfig(cars=cars, xways=2, segments=100,
                              duration_s=ticks * every,
                              report_every_s=every, seed=seed)
    events = LinearRoadGenerator(config).events()
    if len(events) < n:
        raise RuntimeError(f"linear road run too short: {len(events)} < {n}")
    # skip the ramp-up so every window holds >= 2000 live cars
    start = len(events) - n
    return [list(row) for _ts, row in events[start:]]


def arrival_offsets_us(seed: int, batches: int, batch_rows: int,
                       rate: int) -> List[int]:
    """Due times (µs from slice start) of an open-loop slice: batch *j*
    falls uniformly at random inside the *j*-th period of the rate.

    Random phases keep arrivals from aliasing with the server's 2 ms
    poll, as a Poisson process would; unlike one, no seed draws a much
    denser cluster than another, so the queueing tail — and with it p90 —
    is a property of the server, not of the seed. Every seed also has the
    same slice length and rate.
    """
    rng = random.Random(seed)
    period_us = batch_rows / rate * 1e6
    return [int((j + rng.random()) * period_us) for j in range(batches)]

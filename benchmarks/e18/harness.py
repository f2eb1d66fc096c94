"""One workload run: the input plan, the server process, set-up, rounds
of [sat slice, barrier, paced slice, barrier], verification, teardown.

The load generator is this process: the main thread produces on one
connection, one receiver thread subscribes on a second. The server is a
separate `python -m repro.cli serve` process.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import oracle
import wire
from workloads import (ONE_TIME_EVERY, ONE_TIME_ROWS, ONE_TIME_SQL,
                       SLICE_SPAN_US, Workload, make_rows,
                       arrival_offsets_us)

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
# data dirs, port files and server logs: the benchmark may write only
# inside its checkout, so not the system's temp dir; ignored by git, one
# fresh directory per server and removed with it
WORK_ROOT = HERE / ".work"

START_DEADLINE_S = 10.0
BARRIER_TIMEOUT_S = 30.0
SPIN_S = 0.0002           # busy-wait the last stretch before a due time
LATE_MS_LIMIT = 5.0       # a paced slice later (p99 of its sends) or busier
CPU_SHARE_LIMIT = 0.7     # than this measured the generator, not the server
CLK_TCK = os.sysconf("SC_CLK_TCK")
# In a closed loop the scheduler's pump keeps draining while the producer
# refills, so one step can ingest hundreds of batches and fire hundreds
# of windows in a burst; the default 256-batch subscriber queue then
# evicts the subscriber, which would fail the run, not measure it.
SERVE_ARGS = ("--client-queue", "4096")
# stands in for `sent` in the frame templates; no column holds it
SENT_SENTINEL = 7_777_777_777
_SENTINEL_BYTES = b"%d" % SENT_SENTINEL

_live: List[subprocess.Popen] = []


def _kill_children() -> None:
    for proc in _live:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


atexit.register(_kill_children)

# An idle vCPU of this VM is slow for a while after it wakes: a fixed
# kernel took 0.21 ms back to back and 0.21-0.39 ms, bimodally, after a
# sleep. Paced slices leave the server idle three quarters of the time,
# so their latency and CPU time moved 15-50 % between runs of one commit.
# A SCHED_IDLE spinner pinned to each CPU keeps it awake and yields at
# once to anything else runnable - what switching off deep idle states
# does on a host one controls.
_SPINNER = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:   # never outlive the benchmark
    for _ in range(100000):
        pass
"""


@contextlib.contextmanager
def keep_awake() -> Iterator[None]:
    spinners = [subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)],
                                 stdin=subprocess.DEVNULL)
                for cpu in sorted(os.sched_getaffinity(0))]
    _live.extend(spinners)
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
            proc.wait()
            _live.remove(proc)


class RunFailed(RuntimeError):
    """The run cannot produce a result (server died, barrier timed out)."""


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fires_over(rows: int, size: int, slide: int) -> int:
    """Fires of a `[RANGE size SLIDE slide]` tuple window over *rows*."""
    return 0 if rows < size else (rows - size) // slide + 1


# -- the input plan --------------------------------------------------------


class Slice:
    """A run of batches: the warm-up, a sat slice or a paced slice."""

    def __init__(self, first: int, batches: int, sents: List[int]):
        self.first = first        # global index of its first batch
        self.batches = batches
        self.sents = sents        # `sent` stamp of each batch
        self.base = sents[0]


class Plan:
    """Everything a run sends and everything it must get back, fixed by
    (workload, seed, rounds) before the server starts.

    The input stream is one generated block of `period_rows` rows
    repeated; all windows are tuple windows, so the results repeat with
    it and the oracle is run over one period. Only the trailing `sent`
    column differs between periods: the oracle is fed the batch index
    there, which `expected` maps to the real stamp.
    """

    def __init__(self, w: Workload, seed: int, rounds: int):
        self.w = w
        self.batch = w.batch_rows
        self.range, self.slide = w.window() if w.per_fire \
            else (w.batch_rows, w.batch_rows)
        block = make_rows(w, seed, w.period_rows)
        self.slices: List[Slice] = []
        self._add(w.warm_rows)
        for r in range(rounds):
            self._add(w.sat_rows)
            self._add(w.paced_rows, paced_seed=seed * 1000 + r)
        self.sents = [s for sl in self.slices for s in sl.sents]

        tail = self.range - self.slide
        local = [row + [i // self.batch]
                 for i, row in enumerate(block + block[:tail])]
        fires = oracle.expected_fires(w, local)
        self.fires_per_period = w.period_rows // self.slide
        self.batches_per_period = w.period_rows // self.batch
        if len(fires) != self.fires_per_period:
            raise RunFailed(f"oracle fired {len(fires)} times over one "
                            f"period, expected {self.fires_per_period}")
        self._local = [([list(r[:-1]) for r in rows], [r[-1] for r in rows])
                       for rows in fires]
        self._rows_per_period = sum(len(rows) for rows in fires)
        # one encoded frame per batch of the period, stamped with a
        # sentinel of the stamps' width: a slice's frames then cost a
        # byte substitution each, not a JSON encode of every row
        encode = wire.FRONTS[w.front][0].encode_batch
        self._templates = [
            encode(w.stream, [row + [SENT_SENTINEL]
                              for row in block[lo:lo + self.batch]])
            for lo in range(0, w.period_rows, self.batch)]
        self._prefix = [0]
        for rows in fires:
            self._prefix.append(self._prefix[-1] + len(rows))

    def _add(self, rows: int, paced_seed: Optional[int] = None) -> None:
        batches = rows // self.batch
        first = sum(sl.batches for sl in self.slices)
        base = (len(self.slices) + 10) * SLICE_SPAN_US   # ten digits
        if len(str(base + SLICE_SPAN_US)) != len(str(SENT_SENTINEL)):
            raise RunFailed("too many slices for fixed-width stamps")
        offsets = range(batches) if paced_seed is None else \
            arrival_offsets_us(paced_seed, batches, self.batch,
                               self.w.paced_rate)
        self.slices.append(Slice(first, batches,
                                 [base + o for o in offsets]))

    def frame(self, b: int) -> bytes:
        """Batch *b* on the wire: its period's frame, really stamped."""
        return self._templates[b % self.batches_per_period].replace(
            _SENTINEL_BYTES, b"%d" % self.sents[b])

    def fires_after(self, batches: int) -> int:
        return fires_over(batches * self.batch, self.range, self.slide)

    def result_rows_before(self, fire: int) -> int:
        periods, f = divmod(fire, self.fires_per_period)
        return periods * self._rows_per_period + self._prefix[f]

    def expected(self, fire: int) -> List[list]:
        periods, f = divmod(fire, self.fires_per_period)
        rows, local_sents = self._local[f]
        shift = periods * self.batches_per_period
        sents = self.sents
        return [row + [sents[b + shift]] for row, b in zip(rows, local_sents)]

    def last_batch(self, fire: int) -> int:
        """Global index of the batch that completes *fire*'s window."""
        return (fire * self.slide + self.range) // self.batch - 1


# -- the server process ----------------------------------------------------


class Server:
    def __init__(self, w: Workload, workdir: Path, *, data_dir: Optional[Path],
                 with_script: bool, spans: Optional[Path]):
        self.workdir = workdir
        self.port_file = workdir / f"port-{time.monotonic_ns()}"
        self.pg_port_file = Path(str(self.port_file) + "-pg")
        self.log = workdir / "server.log"
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(spans)]
        cmd += ["serve", "--port", "0", "--port-file", str(self.port_file),
                *SERVE_ARGS]
        if w.front == "pg":
            cmd += ["--pg-port", "0", "--pg-port-file", str(self.pg_port_file)]
        if with_script:
            script = workdir / "init.sql"
            script.write_text(w.script)
            cmd += ["--script", str(script)]
        if data_dir is not None:
            cmd += ["--data-dir", str(data_dir), *w.serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        # one hash seed for every server, so set and dict order is not a
        # difference between two runs
        env["PYTHONHASHSEED"] = "0"
        self._front = w.front
        self._logfile = open(self.log, "ab")
        self.proc = subprocess.Popen(cmd, env=env, cwd=str(workdir),
                                     stdin=subprocess.DEVNULL,
                                     stdout=self._logfile,
                                     stderr=subprocess.STDOUT)
        _live.append(self.proc)
        self.pid = self.proc.pid
        self.port = self.pg_port = 0

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_DEADLINE_S
        files = [self.port_file] + \
            ([self.pg_port_file] if self._front == "pg" else [])
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RunFailed(f"server exited with {self.proc.returncode} "
                                f"during start-up:\n{self.output()}")
            try:
                ports = [int(f.read_text()) for f in files]
            except (OSError, ValueError):   # not written yet, or half-written
                time.sleep(0.002)
                continue
            self.port, self.pg_port = ports[0], ports[-1]
            return
        raise RunFailed(f"server not listening after {START_DEADLINE_S} s:\n"
                        f"{self.output()}")

    @property
    def client_port(self) -> int:
        return self.pg_port if self._front == "pg" else self.port

    def output(self) -> str:
        self._logfile.flush()
        return self.log.read_text(errors="replace")[-4000:]

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RunFailed(f"server died with {self.proc.returncode}:\n"
                            f"{self.output()}")

    def cpu_s(self) -> float:
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RunFailed("no VmHWM in /proc status")

    def stop(self, sig: int = signal.SIGTERM, grace_s: float = 10.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        _live.remove(self.proc)
        self._logfile.close()


# -- one set-up and the rounds that follow it ------------------------------


class Session:
    """A server, its two client connections, and the position of the
    run in the plan (batches sent, fires verified)."""

    def __init__(self, plan: Plan, spans: Optional[Path] = None):
        self.plan = plan
        self.w = plan.w
        self.spans = spans
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{self.w.name}-",
                                             dir=WORK_ROOT))
        self.data_dir = self.workdir / "data" if self.w.durable else None
        self.server: Optional[Server] = None
        self.producer: Any = None
        self.subscriber: Any = None
        self.batches_sent = 0
        self.fires_done = 0
        self._chunk = self._offset = self._taken = 0   # row-stream cursor
        self._refire_sent = -1    # recovery re-fires carry stamps <= this
        self.refires_dropped = 0
        self.replaying = False
        self.refused_batches = 0
        self.expected_rows = self.mismatched = self.late_rows = 0
        self.settled_at = 0.0     # end of the work the last barrier awaited
        self.first_mismatch: Optional[str] = None
        self.selects = self._selects_checked = 0
        self.onetime_ms: List[float] = []

    # -- lifecycle ---------------------------------------------------------

    def _boot(self, with_script: bool) -> None:
        self.server = Server(self.w, self.workdir, data_dir=self.data_dir,
                             with_script=with_script, spans=self.spans)
        self.server.wait_ready()
        make_producer, make_subscriber = wire.FRONTS[self.w.front]
        port = self.server.client_port
        self.producer = make_producer(port, self.w.stream)
        self.subscriber = make_subscriber(port, self.w.query)
        self._chunk = self._offset = self._taken = 0

    def _hang_up(self) -> None:
        if self.producer is not None:
            self.refused_batches += self.producer.refused_batches
            if self.producer.refused_batches and not self.first_mismatch:
                self.first_mismatch = \
                    f"ingest refused: {self.producer.last_error}"
            self._check_selects()
        for conn in (self.producer, self.subscriber):
            if conn is not None:
                conn.close()
        self.producer = self.subscriber = None

    def setup(self) -> Dict[str, Any]:
        """Spawn → listen → script → both clients connected → warm-up
        delivered and verified. On a durable workload the first half of
        the warm-up is then made durable, the server killed and
        restarted on its data dir, and the second half verified after
        recovery. Times all of that."""
        frames = self.frames(self.plan.slices[0])
        started = time.perf_counter()
        self._boot(with_script=True)
        if self.w.durable:
            half = len(frames) // 2
            self._closed_loop(frames[:half])
            self.barrier()
            deadline = time.monotonic() + BARRIER_TIMEOUT_S
            while self.log_stats()["durable_offset"] < \
                    half * self.w.batch_rows:
                if time.monotonic() > deadline:
                    raise RunFailed("the warm-up never became durable")
                time.sleep(0.002)
            self._hang_up()
            self.server.stop(signal.SIGKILL)
            self._boot(with_script=False)
            # the recovered engine fires again the windows past its last
            # checkpoint; a subscriber that connects in time sees them
            self._refire_sent = self.plan.sents[half - 1]
            frames = frames[half:]
        self._closed_loop(frames)
        self.barrier()
        return {"seconds": time.perf_counter() - started}

    def close(self) -> None:
        try:
            self._hang_up()
        finally:
            if self.server is not None:
                self.server.stop()
                self.server = None
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- sending -----------------------------------------------------------

    def frames(self, sl: Slice) -> List[Tuple[bytes, bool]]:
        """The slice's pre-encoded batches as `(bytes, is_select)`; on
        pg every 16th statement is the one-time SELECT."""
        select = wire.PgConn.query_message(ONE_TIME_SQL) \
            if self.w.front == "pg" else None
        out = []
        for j in range(sl.batches):
            out.append((self.plan.frame(sl.first + j), False))
            if select and (j + 1) % (ONE_TIME_EVERY - 1) == 0:
                out.append((select, True))
        return out

    def _closed_loop(self, frames: List[Tuple[bytes, bool]]) -> None:
        """Depth 1: the next batch goes out when the last is answered."""
        producer = self.producer
        for frame, is_select in frames:
            began = time.perf_counter()
            producer.send(frame)
            producer.settle()
            if is_select:
                self.onetime_ms.append((time.perf_counter() - began) * 1e3)
                self.selects += 1
            else:
                self.batches_sent += 1

    def _open_loop(self, frames: List[Tuple[bytes, bool]], sl: Slice,
                   t0: float) -> List[float]:
        """Each batch at its due time whatever the server does; returns
        how late (s) each send began."""
        producer, late, j = self.producer, [], 0
        for frame, is_select in frames:
            if is_select:
                self.selects += 1
            else:
                due = t0 + (sl.sents[j] - sl.base) / 1e6
                j += 1
                while True:
                    wait = due - time.perf_counter()
                    if wait <= 0:
                        break
                    if wait > SPIN_S:
                        producer.poll(wait - SPIN_S)
                late.append(time.perf_counter() - due)
                self.batches_sent += 1
            producer.send(frame)
        producer.settle()
        return late

    def _check_selects(self) -> None:
        """Every one-time SELECT on this connection returned the rows."""
        got = self.producer.selected
        want = ONE_TIME_ROWS * (self.selects - self._selects_checked)
        self._selects_checked = self.selects
        self.expected_rows += len(want)
        self.mismatched += oracle.mismatched_rows(got, want, ordered=True)

    # -- receiving and verifying -------------------------------------------

    def barrier(self) -> List[Tuple[int, float]]:
        """Wait for every result the batches sent so far must produce
        and for the queries nobody subscribes to, verify each fire
        against the oracle, and return `(fire, arrival)` for the fires
        since the last barrier. `settled_at` is when the last of that
        work was done."""
        plan, sub = self.plan, self.subscriber
        upto = plan.fires_after(self.batches_sent)
        need = plan.result_rows_before(upto) \
            - plan.result_rows_before(self.fires_done)
        head = self.batches_sent * self.w.batch_rows
        deadline = time.monotonic() + BARRIER_TIMEOUT_S
        while True:
            if self._refire_sent >= 0:
                self._drop_refires()
            have = sub.rows_seen - self._taken
            if have >= need and not (self.replaying
                                     and sub.stream_end < head):
                break
            self.server.check_alive()
            if sub.errors:
                raise RunFailed("; ".join(sub.errors))
            if time.monotonic() > deadline:
                raise RunFailed(
                    f"barrier timed out with {have} of {need} result rows "
                    f"after {self.batches_sent} batches\n"
                    f"{self.server.output()}")
            time.sleep(0.001)
        self._refire_sent = -1
        quiet_at = self._await_unheard(deadline)
        arrivals = []
        for fire in range(self.fires_done, upto):
            want = plan.expected(fire)
            got, arrival = self._take(len(want))
            if got != want:
                bad = oracle.mismatched_rows(got, want,
                                             ordered=not self.w.per_fire)
                self.mismatched += bad
                if bad and self.first_mismatch is None:
                    self.first_mismatch = f"fire {fire}: got {got[:3]!r} " \
                                          f"want {want[:3]!r}"
            self.expected_rows += len(want)
            arrivals.append((fire, arrival))
        self.fires_done = upto
        self.settled_at = max([quiet_at] + [a for _f, a in arrivals[-1:]])
        return arrivals

    def _await_unheard(self, deadline: float) -> float:
        """The scheduler serves the subscribed query's backlog first; the
        other queries' fires must not run into the next slice (they were
        the first 300 ms of every paced slice of `lr_windows`) nor be left
        out of this one. STATS counts every factory's fires."""
        rows = self.batches_sent * self.w.batch_rows
        want = {name: fires_over(rows, size, slide)
                for name, (size, slide) in self.w.unheard().items()}
        while want:
            fired = self.producer.stats()["factories"]
            if all(fired[name]["fires"] >= n for name, n in want.items()):
                return time.perf_counter()
            if time.monotonic() > deadline:
                raise RunFailed(f"barrier timed out waiting for {want}: "
                                f"{ {n: fired[n]['fires'] for n in want} }")
            time.sleep(0.001)
        return 0.0

    def _take(self, n: int) -> Tuple[List[Any], float]:
        """The next *n* delivered rows and the arrival of the last."""
        chunks = self.subscriber.chunks
        out: List[Any] = []
        arrival = 0.0
        while len(out) < n:
            arrival, rows = chunks[self._chunk]
            part = rows[self._offset:self._offset + n - len(out)]
            out.extend(part)
            self._offset += len(part)
            if self._offset >= len(rows):
                chunks[self._chunk] = (arrival, ())   # verified: let it go
                self._chunk += 1
                self._offset = 0
        self._taken += n
        return out, arrival

    def _drop_refires(self) -> None:
        chunks = self.subscriber.chunks
        while self._chunk < len(chunks):
            rows = chunks[self._chunk][1]
            if max(int(r[-1]) for r in rows) > self._refire_sent:
                break
            self._chunk += 1
            self._taken += len(rows)
            self.refires_dropped += 1

    def log_stats(self) -> Dict[str, Any]:
        return self.producer.stats()["log"]["streams"][self.w.stream]

    # -- the two kinds of slice --------------------------------------------

    def sat_slice(self, sl: Slice) -> Dict[str, Any]:
        """Closed loop at depth 1; the slice ends when the barrier's work
        does."""
        frames = self.frames(sl)
        t0 = time.perf_counter()
        self._closed_loop(frames)
        self.barrier()
        return {"rows_per_s":
                sl.batches * self.w.batch_rows / (self.settled_at - t0)}

    def paced_slice(self, sl: Slice) -> Dict[str, Any]:
        """Open loop on the slice's arrival schedule; one latency sample
        per fire, from the due time of the batch that completed it."""
        frames = self.frames(sl)
        rows = sl.batches * self.w.batch_rows
        cpu0, gen0 = self.server.cpu_s(), time.process_time()
        t0 = time.perf_counter() + 0.002
        late = self._open_loop(frames, sl, t0)
        arrivals = self.barrier()
        ended = time.perf_counter()
        wall = ended - t0
        cpu1, gen1 = self.server.cpu_s(), time.process_time()
        plan = self.plan
        latency_ms = []
        for fire, arrival in arrivals:
            b = plan.last_batch(fire)
            if b < sl.first:
                continue   # completed by the previous slice's last batch
            due = t0 + (plan.sents[b] - sl.base) / 1e6
            ms = (arrival - due) * 1e3
            latency_ms.append(ms)
            if ms > self.w.latency_limit_ms:
                self.late_rows += len(plan.expected(fire))
        return {"latency_ms": latency_ms, "window": (t0, ended),
                "p50_ms": statistics.median(latency_ms),
                "p90_ms": percentile(latency_ms, 0.90),
                "cpu_s_per_mrow": (cpu1 - cpu0) / rows * 1e6,
                "late_ms_p99": percentile(late, 0.99) * 1e3,
                "loadgen_cpu_share": (gen1 - gen0) / wall}

    # -- end of run --------------------------------------------------------

    def start_replay(self) -> None:
        """lr_durable: the subscriber connection also follows the raw
        stream from offset 0 — the log is read while it is written."""
        self.subscriber.replay(self.w.stream)
        self.replaying = True

    def check_replay(self) -> Dict[str, int]:
        """Replayed offsets must rise without a duplicate from the floor
        to the head, every batch as long as its range, and every row
        passed over — below the floor at subscribe time, or dropped by
        retention under a lagging cursor later — counted by the server
        as skipped."""
        ranges = self.subscriber.ranges
        stats = self.producer.stats()
        skipped = sum(s["skipped_rows"]
                      for conn in stats["net"]["connections"]
                      for s in conn["stream_subscriptions"])
        head = self.batches_sent * self.w.batch_rows
        floor = ranges[0][0] if ranges else head
        jumped = sum(nxt[0] - hi for (_lo, hi, _n, _r), nxt
                     in zip(ranges, ranges[1:]))
        ok = bool(ranges) and ranges[-1][1] == head \
            and floor + jumped == skipped \
            and all(hi - lo == n for lo, hi, n, _r in ranges) \
            and all(nxt[0] >= hi for (_lo, hi, _n, _r), nxt
                    in zip(ranges, ranges[1:]))
        self.expected_rows += head - skipped
        if not ok:
            self.mismatched += head - skipped
            self.first_mismatch = self.first_mismatch or (
                f"replay: floor {floor}, jumped {jumped}, skipped {skipped}, "
                f"end {ranges[-1][1] if ranges else None}, head {head}")
        return {"replay_floor": floor, "replay_skipped_rows": skipped,
                "replay_history_rows":
                    sum(hi - lo for lo, hi, _n, r in ranges if r)}


# -- a whole run -----------------------------------------------------------


def run(w: Workload, seed: int, rounds: int, setups: int,
        spans: Optional[Path] = None) -> Dict[str, Any]:
    """Set up *setups* times (the last one goes on to measure), run
    *rounds* rounds, verify, tear down. With *spans* the measuring
    server is the traced one and leaves its spans in that file."""
    plan = Plan(w, seed, rounds)
    # a collection in this process while a slice runs is generator
    # lateness (tens of ms with the plan's millions of row lists alive);
    # nothing here builds reference cycles
    gc.disable()
    # the producer must get the interpreter back from the decoding
    # receiver thread well inside a millisecond (the default is 5 ms)
    sys.setswitchinterval(0.0002)
    setups_done: List[Dict[str, Any]] = []
    sat: List[Dict[str, Any]] = []
    paced: List[Dict[str, Any]] = []
    sessions: List[Session] = []
    extra: Dict[str, Any] = {}

    try:
        with keep_awake():
            for k in range(setups):
                last = k == setups - 1
                sessions.append(Session(plan, spans if last else None))
                setups_done.append(sessions[-1].setup())
                if not last:
                    sessions[-1].close()
            session = sessions[-1]
            for r in range(rounds):
                if w.durable and r == rounds - 1:
                    session.start_replay()
                sat.append(session.sat_slice(plan.slices[1 + 2 * r]))
                paced.append(session.paced_slice(plan.slices[2 + 2 * r]))
                sat[-1]["replaying"] = paced[-1]["replaying"] = \
                    session.replaying
            peak_rss_mb = session.server.peak_rss_mb()
            if session.replaying:
                extra.update(session.check_replay())
            if w.durable:
                log = session.log_stats()
                extra["retention_truncations"] = log["retention_truncations"]
    finally:
        for session in sessions:
            session.close()

    def total(name: str) -> int:
        return sum(getattr(s, name) for s in sessions)

    # Each metric is its value in the slice that was disturbed least. The
    # machine runs 1.5-1.8 times slower for seconds to minutes at a time
    # (a neighbour on the host; in CPU time as in wall time), half the
    # slices of a run in such a phase are hit, and nothing ever makes a
    # slice faster than the program is: over ten runs in one such phase the
    # median over slices spread 7-24 %, the best slice 4-16 %; in a quiet
    # phase both spread 1-11 %. Never the value reported, while another
    # remains:
    # - the round with the replaying subscriber: another regime (half the
    #   throughput, twice the latency), so the metrics are those of durable
    #   ingest alone;
    # - a paced slice that ran late or short of CPU: it measured the
    #   generator, not the server.
    for p in paced:
        p["generator_limited"] = p["late_ms_p99"] > LATE_MS_LIMIT \
            or p["loadgen_cpu_share"] > CPU_SHARE_LIMIT

    def best(records: List[Dict[str, Any]], key: str, pick=min) -> float:
        plain = [r for r in records if not r["replaying"]] or records
        kept = [r for r in plain if not r.get("generator_limited")] or plain
        return pick(r[key] for r in kept)

    def column(records: List[Dict[str, Any]], key: str) -> list:
        return [r[key] for r in records]

    batch = w.batch_rows
    latencies = [ms for p in paced for ms in p["latency_ms"]]
    return {
        "metrics": {
            "setup_s": statistics.median(column(setups_done, "seconds")),
            "throughput_rows_per_s": best(sat, "rows_per_s", max),
            "latency_p50_ms": best(paced, "p50_ms"),
            "latency_p90_ms": best(paced, "p90_ms"),
            "cpu_s_per_mrow": best(paced, "cpu_s_per_mrow"),
        },
        "peak_rss_mb": peak_rss_mb,
        "attempted": total("batches_sent") * batch + total("expected_rows"),
        "failed": total("refused_batches") * batch + total("mismatched")
        + total("late_rows"),
        "mismatched_rows": total("mismatched"),
        "late_rows": total("late_rows"),
        "refused_rows": total("refused_batches") * batch,
        "first_mismatch": next((s.first_mismatch for s in sessions
                                if s.first_mismatch), None),
        "slices": {
            "setup_s": column(setups_done, "seconds"),
            "sat_rows_per_s": column(sat, "rows_per_s"),
            "paced_p50_ms": column(paced, "p50_ms"),
            "paced_p90_ms": column(paced, "p90_ms"),
            "paced_cpu_s_per_mrow": column(paced, "cpu_s_per_mrow"),
            "paced_samples": [len(p["latency_ms"]) for p in paced],
            "late_ms_p99": column(paced, "late_ms_p99"),
            "loadgen_cpu_share": column(paced, "loadgen_cpu_share"),
            "generator_limited": column(paced, "generator_limited"),
            "replaying": column(paced, "replaying"),
        },
        "delivery": {
            "latency_p99_ms": percentile(latencies, 0.99),
            "latency_max_ms": max(latencies),
            "samples": len(latencies),
        },
        "onetime_ms": sessions[-1].onetime_ms,
        "paced_windows": column(paced, "window"),
        "refires_dropped": total("refires_dropped"),
        **extra,
    }

"""Per-stream durable log: rolling columnar segments + JSON manifest.

Layout of one stream's log directory::

    <dir>/manifest.json            schema, segment table, knobs
    <dir>/<base>.<column>          raw column bytes of segment <base>
    <dir>/<base>.__ts              int64 arrival timestamps

Log *offsets are basket oids*: the n-th tuple ever admitted to the
stream has offset n in the log and absolute oid n in the basket, so
subscriber cursors, window cursors, emit stamps and replay all share
one coordinate system.

Writes are one **group commit per scheduler step**: :meth:`append` only
stages the already-admitted column arrays (no copy — the basket's
staging buffers are immutable after admission), and :meth:`commit`,
which the scheduler calls at the end of every step, writes everything
staged as one group: one write and one flush per column file, so the
serving loop pays one syscall batch per step rather than per append.
``durability="async"`` flushes to the OS per group (survives a process
crash); ``"fsync"`` additionally fsyncs (survives power loss). A failed
write is recorded in :attr:`StreamLog.failed`; from then on every
append and :meth:`flush` raises.

Recovery (:class:`StreamLog` opened over an existing directory) trusts
the manifest's sealed segments, re-scans the unsealed tail segment, and
truncates every column file back to the *minimum complete row count*
across columns — a torn group commit leaves columns of unequal length,
and only whole rows may survive.

A roll to a new segment does not rewrite the manifest (a rewrite waits
on disk writeback, and rolls run inside the step); checkpoints,
retention, :meth:`truncate_to` and :meth:`close` do, and recovery finds
the segments rolled since by their base offsets.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StoreError
from repro.storage import types as dt
from repro.storage.schema import Schema
from repro.store import segment as seg

_FORMAT_VERSION = 1
MANIFEST = "manifest.json"
ARRIVAL_COLUMN = "__ts"
DURABILITY_MODES = ("async", "fsync")

DEFAULT_SEGMENT_ROWS = 4096


class SegmentInfo:
    """One entry of the manifest's segment table."""

    __slots__ = ("base", "rows", "sealed")

    def __init__(self, base: int, rows: int, sealed: bool):
        self.base = base
        self.rows = rows
        self.sealed = sealed

    @property
    def end(self) -> int:
        return self.base + self.rows

    def to_json(self) -> dict:
        return {"base": self.base, "rows": self.rows,
                "sealed": self.sealed}

    @classmethod
    def from_json(cls, obj: dict) -> "SegmentInfo":
        return cls(int(obj["base"]), int(obj["rows"]),
                   bool(obj["sealed"]))


class StreamLog:
    """Append-only segmented log for one stream."""

    def __init__(self, directory: str, name: str, schema: Schema,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS,
                 durability: str = "async",
                 fault: Optional[seg.FaultInjector] = None,
                 retain_ms: Optional[int] = None,
                 retain_bytes: Optional[int] = None):
        if durability not in DURABILITY_MODES:
            raise StoreError(
                f"unknown durability mode {durability!r} "
                f"(expected one of {DURABILITY_MODES})")
        if segment_rows < 1:
            raise StoreError("segment_rows must be >= 1")
        if retain_ms is not None and retain_ms < 0:
            raise StoreError("retain_ms must be >= 0")
        if retain_bytes is not None and retain_bytes < 0:
            raise StoreError("retain_bytes must be >= 0")
        if any(c.name == ARRIVAL_COLUMN for c in schema.columns):
            raise StoreError(
                f"column name {ARRIVAL_COLUMN!r} is reserved by the log")
        self.directory = directory
        self.name = name.lower()
        self.schema = schema
        self.segment_rows = int(segment_rows)
        self.durability = durability
        self.retain_ms = retain_ms
        self.retain_bytes = retain_bytes
        self._fault = fault
        # (name, dtype) for every persisted file of a segment: the
        # schema columns plus the arrival-timestamp column
        self._cols: List[Tuple[str, dt.DataType]] = \
            [(c.name, c.dtype) for c in schema.columns] + \
            [(ARRIVAL_COLUMN, dt.TIMESTAMP)]

        # appends come from the serving loop and from feeding threads;
        # replay readers snapshot the segment table from executors
        self._lock = threading.Lock()
        self._staged: List[Tuple[int, List[np.ndarray], np.ndarray]] = []
        self._staged_rows = 0
        self.failed: Optional[BaseException] = None

        self._segments: List[SegmentInfo] = []
        self._handles: Dict[str, object] = {}
        self._next = 0       # next offset to assign
        self._durable = 0    # offsets below this are persisted
        self.recovered = False
        self.torn_rows = 0
        # counters
        self.groups = 0
        self.group_rows = 0
        self.max_group_rows = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.appends = 0
        self.retention_truncations = 0
        self.retention_rows = 0
        # per-sealed-segment (bytes, last __ts) cache for retention
        self._seg_cache: Dict[int, Tuple[int, Optional[int]]] = {}

        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, MANIFEST)
        if os.path.exists(manifest_path):
            self._open_existing(manifest_path)
        else:
            self._segments = [SegmentInfo(0, 0, False)]
            self._write_manifest()
        self._open_handles()

    # -- offsets --------------------------------------------------------

    @property
    def next_offset(self) -> int:
        return self._next

    @property
    def durable_offset(self) -> int:
        """Offsets below this are on disk (flushed; also fsynced under
        ``durability="fsync"``). The basket's vacuum floor — data not
        yet durable must never be dropped from memory."""
        return self._durable

    @property
    def durable_floor(self) -> int:
        """Oldest offset the log still holds. 0 until retention has
        dropped a segment; readers asking below this either clamp
        (:meth:`read_clamped`) or fail (:meth:`read`)."""
        return self._segments[0].base if self._segments else 0

    def backlog_rows(self) -> int:
        """Rows staged and not yet committed (on a stepping engine, at
        most what the current step appended)."""
        return self._staged_rows

    # -- manifest -------------------------------------------------------

    def _manifest_json(self) -> dict:
        return {"version": _FORMAT_VERSION, "stream": self.name,
                "columns": [[c.name, c.dtype.name]
                            for c in self.schema.columns],
                "segment_rows": self.segment_rows,
                "segments": [s.to_json() for s in self._segments]}

    def _write_manifest(self) -> None:
        path = os.path.join(self.directory, MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self._manifest_json(), f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    def sync_manifest(self) -> None:
        """Persist the current segment table (checkpoint hook)."""
        with self._lock:
            self._write_manifest()

    def _col_path(self, base: int, col: str) -> str:
        return os.path.join(self.directory, f"{base:012d}.{col}")

    # -- open / recovery ------------------------------------------------

    def _open_existing(self, manifest_path: str) -> None:
        try:
            with open(manifest_path) as f:
                manifest = json.load(f)
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"cannot read log manifest {manifest_path}: "
                f"{exc}") from exc
        if manifest.get("version") != _FORMAT_VERSION:
            raise StoreError(
                f"unsupported log format {manifest.get('version')!r}")
        declared = [[str(n).lower(), str(t)]
                    for n, t in manifest["columns"]]
        ours = [[c.name, c.dtype.name] for c in self.schema.columns]
        if declared != ours:
            raise StoreError(
                f"log {self.directory} was written with columns "
                f"{declared}, stream {self.name!r} now has {ours}")
        self.recovered = True
        segments = [SegmentInfo.from_json(s)
                    for s in manifest.get("segments", [])]
        kept: List[SegmentInfo] = []
        torn = False
        for i, info in enumerate(segments):
            if info.sealed and min(self._row_counts(info)) >= info.rows:
                # trailing junk beyond a sealed segment's declared rows
                # is unreachable (reads index by the manifest), leave it
                kept.append(info)
                continue
            torn = self._scan_tail(info)
            kept.append(info)
            # anything after a truncated segment is unreachable
            for later in segments[i + 1:]:
                self._delete_segment_files(later.base)
            break
        if not kept:
            kept = [SegmentInfo(0, 0, False)]
        if kept[-1].sealed:
            kept.append(SegmentInfo(kept[-1].end, 0, False))
            torn = self._scan_tail(kept[-1])
        # segments rolled since the manifest was last written: a roll
        # follows a group that is whole in every column, so an untorn
        # tail with files at its end offset was sealed there
        while not torn and kept[-1].rows and any(
                os.path.exists(self._col_path(kept[-1].end, col))
                for col, _dtype in self._cols):
            kept[-1].sealed = True
            kept.append(SegmentInfo(kept[-1].end, 0, False))
            torn = self._scan_tail(kept[-1])
        self._segments = kept
        self._next = self._durable = kept[-1].end
        self._write_manifest()

    def _row_counts(self, info: SegmentInfo) -> List[int]:
        """Complete rows in each column file of segment *info*."""
        return [seg.complete_rows(dtype, self._col_path(info.base, col))[0]
                for col, dtype in self._cols]

    def _scan_tail(self, info: SegmentInfo) -> bool:
        """Make *info* the unsealed tail: keep only whole rows present
        in *every* column and truncate the rest. Returns whether rows
        were torn off (or a sealed segment came up short)."""
        counts = self._row_counts(info)
        complete = min(counts)
        declared_rows = info.rows if info.sealed else max(counts)
        self.torn_rows += max(0, declared_rows - complete)
        for col, dtype in self._cols:
            path = self._col_path(info.base, col)
            extent = seg.row_byte_extent(dtype, path, complete)
            if os.path.exists(path):
                if os.path.getsize(path) > extent:
                    os.truncate(path, extent)
            elif complete:
                raise StoreError(f"segment column missing: {path}")
        info.rows = complete
        info.sealed = False
        return declared_rows > complete

    def _delete_segment_files(self, base: int) -> None:
        for col, _dtype in self._cols:
            path = self._col_path(base, col)
            try:
                os.remove(path)
            except OSError:
                pass

    def _open_handles(self) -> None:
        active = self._segments[-1]
        # an empty segment starts empty on disk: files a lost roll left
        # at its base (power loss under async) are not appended to
        mode = "ab" if active.rows else "wb"
        self._handles = {
            col: open(self._col_path(active.base, col), mode)
            for col, _dtype in self._cols}

    def _close_handles(self) -> None:
        for f in self._handles.values():
            try:
                f.close()
            except OSError:
                pass
        self._handles = {}

    # -- appending ------------------------------------------------------

    def append(self, columns: Sequence[np.ndarray],
               arrival: np.ndarray) -> Tuple[int, int]:
        """Stage one admitted batch for the next :meth:`commit`; returns
        its offset range ``[lo, hi)``. *columns* are storage arrays in
        schema order — ownership stays with the caller but they must
        not be mutated (the commit encodes them later). Raises
        :class:`StoreError` once the log has failed."""
        n = len(arrival)
        with self._lock:
            self.raise_if_failed()
            lo = self._next
            if n:
                self._next += n
                self._staged.append((lo, list(columns), arrival))
                self._staged_rows += n
                self.appends += 1
        return lo, lo + n

    def commit(self) -> None:
        """Write everything staged as one group — the scheduler's
        per-step group commit. A failed write is recorded in
        :attr:`failed`, not raised, so the serving loop stays up: the
        group's rows stay non-durable (the basket keeps them in
        memory) and every later append raises."""
        with self._lock:
            if not self._staged or self.failed is not None:
                return
            group = self._staged
            self._staged, self._staged_rows = [], 0
            try:
                self._write_group(group)
            except Exception as exc:  # disk full, injected crash, ...
                self.failed = exc

    def flush(self) -> int:
        """Barrier: commit what is staged; returns the durable offset.
        Raises :class:`StoreError` when the log has failed."""
        self.commit()
        self.raise_if_failed()
        return self._durable

    def raise_if_failed(self) -> None:
        """Raise :class:`StoreError` naming this log once a write has
        failed (checked by appends, :meth:`flush` and admission)."""
        if self.failed is not None:
            raise StoreError(
                f"stream log {self.name!r} failed: {self.failed}")

    def _write_group(self, group: List[Tuple[int, List[np.ndarray],
                                             np.ndarray]]) -> None:
        """Persist one group: encode + write every batch, then one flush
        (and under ``fsync`` one fsync) per column file."""
        rows = 0
        for _lo, columns, arrival in group:
            for (col, dtype), values in zip(self._cols,
                                            list(columns) + [arrival]):
                data = seg.encode_values(dtype, values)
                self.bytes_written += len(data)
                seg.faulty_write(self._handles[col], data, self._fault)
            rows += len(arrival)
        for f in self._handles.values():
            f.flush()
            if self.durability == "fsync":
                os.fsync(f.fileno())
        if self.durability == "fsync":
            self.fsyncs += 1
        self.groups += 1
        self.group_rows += rows
        self.max_group_rows = max(self.max_group_rows, rows)
        active = self._segments[-1]
        active.rows += rows
        self._durable = active.end
        if active.rows >= self.segment_rows:
            self._seal_and_roll()

    def _seal_and_roll(self) -> None:
        self._close_handles()
        self._segments[-1].sealed = True
        self._segments.append(SegmentInfo(self._segments[-1].end, 0,
                                          False))
        self._open_handles()

    # -- reading --------------------------------------------------------

    def _empty_read(self, actual_lo: int
                    ) -> Tuple[Dict[str, np.ndarray], np.ndarray, int]:
        empty = {c.name: c.dtype.empty(0)
                 for c in self.schema.columns}
        return empty, dt.TIMESTAMP.empty(0), actual_lo

    def read_clamped(self, lo: int, hi: int
                     ) -> Tuple[Dict[str, np.ndarray], np.ndarray, int]:
        """Columns + arrivals for the *retained* part of ``[lo, hi)``.

        *hi* is clamped to the durable watermark and *lo* to the
        retention floor; the returned rows cover ``[actual_lo, hi)``
        with ``actual_lo >= lo``. ``actual_lo > lo`` means retention
        has discarded ``[lo, actual_lo)`` — the caller decides whether
        that gap is acceptable (a lagging subscriber catches up from
        the floor) or fatal (:meth:`read` raises, ``from_start``
        registration surfaces :class:`~repro.errors.ReplayGap`).
        Returns fresh owning arrays, ready for basket adoption.
        """
        lo = max(lo, 0)
        hi = min(hi, self._durable)
        if hi <= lo:
            return self._empty_read(lo)
        with self._lock:
            segments = list(self._segments)
        floor = segments[0].base if segments else 0
        actual_lo = min(max(lo, floor), hi)
        if hi <= actual_lo:
            return self._empty_read(actual_lo)
        parts: Dict[str, List[np.ndarray]] = \
            {col: [] for col, _ in self._cols}
        for info in segments:
            s_lo = max(actual_lo, info.base)
            s_hi = min(hi, info.end)
            if s_hi <= s_lo:
                continue
            start = s_lo - info.base
            count = s_hi - s_lo
            for col, dtype in self._cols:
                parts[col].append(seg.read_rows(
                    dtype, self._col_path(info.base, col), start, count))
        out: Dict[str, np.ndarray] = {}
        for col, dtype in self._cols:
            chunks = parts[col]
            if len(chunks) == 1:
                merged = chunks[0]
            else:
                merged = np.concatenate(chunks) if chunks \
                    else dtype.empty(0)
            out[col] = merged
        found = sum(len(c) for c in parts[ARRIVAL_COLUMN])
        if found != hi - actual_lo:
            raise StoreError(
                f"log {self.name!r}: read [{actual_lo},{hi}) found "
                f"{found} rows (segment table is inconsistent with "
                f"the column files)")
        arrival = out.pop(ARRIVAL_COLUMN)
        return out, arrival, actual_lo

    def read(self, lo: int, hi: int
             ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Columns + arrival timestamps for offsets ``[lo, hi)``.

        Only durable offsets are readable; *hi* is clamped to the
        durable watermark. Strict about the low end: raises
        :class:`StoreError` when ``[lo, hi)`` dips below the retention
        floor — use :meth:`read_clamped` to lag to the floor instead.
        """
        cols, arrival, actual_lo = self.read_clamped(lo, hi)
        if actual_lo > max(lo, 0):
            raise StoreError(
                f"log {self.name!r}: read [{lo},{hi}) dips below the "
                f"retention floor {actual_lo} "
                f"({actual_lo - max(lo, 0)} rows discarded)")
        return cols, arrival

    # -- truncation (recovery of regenerable output streams) ------------

    def truncate_to(self, offset: int) -> int:
        """Discard everything at or above *offset*; returns rows cut.

        Only valid while quiescent (recovery time): output-stream logs
        are rolled back to the last checkpoint so the producing query's
        re-fired windows regenerate — rather than duplicate — the tail.
        """
        with self._lock:
            if self._staged:
                raise StoreError("truncate_to with staged appends")
            offset = max(offset, 0)
            if offset >= self._next:
                return 0
            cut = self._next - offset
            self._close_handles()
            kept: List[SegmentInfo] = []
            for info in self._segments:
                if info.end <= offset:
                    kept.append(info)
                    continue
                if info.base >= offset:
                    self._delete_segment_files(info.base)
                    continue
                keep_rows = offset - info.base
                for col, dtype in self._cols:
                    path = self._col_path(info.base, col)
                    os.truncate(path, seg.row_byte_extent(
                        dtype, path, keep_rows))
                info.rows = keep_rows
                info.sealed = False
                kept.append(info)
            if not kept:
                kept = [SegmentInfo(0, 0, False)]
            if kept[-1].sealed:
                kept[-1].sealed = False
            self._segments = kept
            self._next = self._durable = kept[-1].end
            self._seg_cache.clear()
            self._write_manifest()
            self._open_handles()
            return cut

    # -- retention ------------------------------------------------------

    def segment_table(self) -> List[SegmentInfo]:
        """Snapshot of the segment table (copies, safe to hold)."""
        with self._lock:
            return [SegmentInfo(s.base, s.rows, s.sealed)
                    for s in self._segments]

    def column_path(self, base: int, col: str) -> str:
        """Path of one segment's column file (``__ts`` for arrivals)."""
        return self._col_path(base, col)

    def _segment_stats(self, info: SegmentInfo
                       ) -> Tuple[int, Optional[int]]:
        """``(bytes_on_disk, last_arrival_ts)`` of one segment; cached
        for sealed (immutable) segments."""
        cached = self._seg_cache.get(info.base)
        if cached is not None:
            return cached
        nbytes = 0
        for col, _dtype in self._cols:
            try:
                nbytes += os.path.getsize(self._col_path(info.base, col))
            except OSError:
                pass
        last_ts: Optional[int] = None
        if info.rows > 0:
            path = self._col_path(info.base, ARRIVAL_COLUMN)
            try:
                with open(path, "rb") as f:
                    f.seek((info.rows - 1) * 8)
                    raw = f.read(8)
                if len(raw) == 8:
                    last_ts = int(np.frombuffer(raw, dtype="<i8")[0])
            except OSError:
                last_ts = None
        result = (nbytes, last_ts)
        if info.sealed:
            self._seg_cache[info.base] = result
        return result

    def retained_bytes(self) -> int:
        with self._lock:
            segments = list(self._segments)
        return sum(self._segment_stats(s)[0] for s in segments)

    def apply_retention(self, now_ms: int,
                        protect_offset: Optional[int] = None) -> int:
        """Drop whole sealed segments per ``retain_ms``/``retain_bytes``.

        Only prefixes of *sealed* segments are droppable — never the
        unsealed tail, and never a segment reaching at or above
        *protect_offset* (the engine passes the minimum of the basket's
        retained floor and every checkpointed cursor, so recovery and
        paged windows always find what they still need). Age drops
        segments whose last arrival is older than ``retain_ms`` before
        *now_ms*; bytes drops oldest-first until the log fits in
        ``retain_bytes``. Returns rows discarded; the durable floor
        advances past them.

        Readers never block on this: sealed segment files are immutable
        and only ever unlinked, so an ``np.memmap`` bound before the
        unlink stays valid (POSIX keeps the inode alive until the last
        map goes away).
        """
        if self.retain_ms is None and self.retain_bytes is None:
            return 0
        with self._lock:
            segments = self._segments
            limit = len(segments) - 1  # never the active tail
            droppable = 0
            for info in segments[:limit]:
                if not info.sealed:
                    break
                if protect_offset is not None \
                        and info.end > protect_offset:
                    break
                droppable += 1
            if droppable == 0:
                return 0
            k = 0
            if self.retain_ms is not None:
                cutoff = now_ms - self.retain_ms
                while k < droppable:
                    _b, last_ts = self._segment_stats(segments[k])
                    if last_ts is None or last_ts >= cutoff:
                        break
                    k += 1
            if self.retain_bytes is not None:
                sizes = [self._segment_stats(s)[0] for s in segments]
                total = sum(sizes[k:])
                while total > self.retain_bytes and k < droppable:
                    total -= sizes[k]
                    k += 1
            if k == 0:
                return 0
            dropped = segments[:k]
            self._segments = segments[k:]
            rows = sum(s.rows for s in dropped)
            self.retention_truncations += 1
            self.retention_rows += rows
            self._write_manifest()
            for info in dropped:
                self._delete_segment_files(info.base)
                self._seg_cache.pop(info.base, None)
            return rows

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Commit what is staged, close the column files and persist a
        clean manifest. After a failed write the manifest stays as last
        written — it would declare rows durable that never landed — and
        the next open recovers through the torn-tail scan."""
        self.commit()
        with self._lock:
            self._close_handles()
            if self.failed is None:
                self._write_manifest()

    def stats(self) -> Dict[str, object]:
        return {"durability": self.durability,
                "segments": len(self._segments),
                "segment_rows": self.segment_rows,
                "next_offset": self._next,
                "durable_offset": self._durable,
                "durable_floor": self.durable_floor,
                "retain_ms": self.retain_ms,
                "retain_bytes": self.retain_bytes,
                "retention_truncations": self.retention_truncations,
                "retention_rows": self.retention_rows,
                "retained_bytes": self.retained_bytes(),
                "backlog_rows": self.backlog_rows(),
                "groups": self.groups,
                "group_rows": self.group_rows,
                "max_group_rows": self.max_group_rows,
                "fsyncs": self.fsyncs,
                "bytes_written": self.bytes_written,
                "recovered": int(self.recovered),
                "torn_rows": self.torn_rows,
                "failed": repr(self.failed) if self.failed else None}

    def __repr__(self) -> str:
        return (f"StreamLog({self.name}, next={self._next}, "
                f"durable={self._durable}, "
                f"segments={len(self._segments)})")

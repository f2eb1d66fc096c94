"""Binary Association Tables — the unit of storage of the column-store.

A MonetDB BAT conceptually maps a *head* of object identifiers (oids) to a
*tail* of values. Modern MonetDB keeps the head virtual: a dense oid range
starting at ``hseqbase``. We reproduce that: a :class:`BAT` is a growable
typed vector (:class:`VectorHeap`) plus an ``hseqbase``.

Intermediates produced by selections are *candidate lists*: sorted int64
numpy arrays of **positions** (0-based indexes into the BAT's active
region). Keeping candidates positional keeps every kernel operator a plain
numpy gather/scatter.

Baskets drain consumed tuples from the front; ``BAT.delete_head`` supports
that in O(1) amortized by moving a logical offset and compacting lazily.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import KernelError
from repro.storage import types as dt

_MIN_CAPACITY = 16
# compact the heap when the dead prefix exceeds both this many slots and
# half of the allocated capacity
_COMPACT_SLACK = 1024


class VectorHeap:
    """A growable, typed storage vector (MonetDB's tail heap).

    Appends are amortized O(1) with capacity doubling. The active region
    is ``[offset, offset + count)``; ``drop_head`` advances ``offset``.
    """

    __slots__ = ("dtype", "_data", "_offset", "_count", "reallocs")

    def __init__(self, dtype: dt.DataType, capacity: int = 0):
        self.dtype = dtype
        self._data = dtype.empty(max(capacity, 0))
        self._offset = 0
        self._count = 0
        # buffer replacements since construction; geometric growth keeps
        # this O(log n) for n appends (asserted in the tier-1 tests)
        self.reallocs = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return len(self._data)

    def view(self) -> np.ndarray:
        """Active region as a numpy view (do not mutate)."""
        return self._data[self._offset:self._offset + self._count]

    def _ensure_room(self, extra: int) -> None:
        needed = self._offset + self._count + extra
        if needed <= len(self._data):
            return
        # reclaim the dead prefix only when it is at least half the
        # allocation: each live element then moves O(1) times amortized.
        # Compacting on *any* reclaimable slack turns the steady-state
        # drop_head(1)/append(1) loop of a sliding basket into an O(n)
        # memmove per append — quadratic overall.
        if (self._offset * 2 >= len(self._data)
                and self._count + extra <= len(self._data)):
            self._compact()
            return
        # geometric (>=2x) growth keeps reallocations logarithmic
        new_cap = max(_MIN_CAPACITY, 2 * len(self._data))
        while new_cap < self._count + extra:
            new_cap *= 2
        fresh = self.dtype.empty(new_cap)
        fresh[:self._count] = self.view()
        self._data = fresh
        self._offset = 0
        self.reallocs += 1

    def _compact(self) -> None:
        if self._offset == 0:
            return
        self._data[:self._count] = self.view()
        self._offset = 0

    @classmethod
    def _adopt(cls, dtype: dt.DataType, array: np.ndarray) -> "VectorHeap":
        """Wrap a freshly-allocated storage array as the backing store —
        zero copy. The caller transfers ownership of *array*."""
        heap = cls.__new__(cls)
        heap.dtype = dtype
        heap._data = array
        heap._offset = 0
        heap._count = len(array)
        heap.reallocs = 0
        return heap

    def append(self, value: Any) -> None:
        self._ensure_room(1)
        self._data[self._offset + self._count] = value
        self._count += 1

    def extend(self, values) -> None:
        # fast path: already a storage array of the target dtype (the
        # common case after batch ingest staging) — no staging copy.
        # Contiguity does not matter: the slice assignment below gathers
        # strided sources directly into the heap
        if not (isinstance(values, np.ndarray)
                and values.dtype == self.dtype.np_dtype):
            if self.dtype.is_string:
                vals = values if isinstance(values, list) \
                    else list(values)
                values = np.empty(len(vals), dtype=object)
                values[:] = vals
            else:
                values = np.asarray(values, dtype=self.dtype.np_dtype)
        n = len(values)
        if n == 0:
            return
        self._ensure_room(n)
        start = self._offset + self._count
        self._data[start:start + n] = values
        self._count += n

    def drop_head(self, n: int) -> None:
        """Logically delete the first *n* values of the active region."""
        if n < 0 or n > self._count:
            raise KernelError(f"drop_head({n}) out of range 0..{self._count}")
        self._offset += n
        self._count -= n
        if self._offset > _COMPACT_SLACK and self._offset * 2 > len(self._data):
            self._compact()

    def clear(self) -> None:
        self._offset = 0
        self._count = 0


class BAT:
    """A Binary Association Table: virtual dense head + typed tail.

    Positions are 0-based indexes into the active region; the absolute oid
    of position ``p`` is ``hseqbase + p``. ``hseqbase`` advances when head
    tuples are deleted (as baskets drain), so oids stay stable for the
    lifetime of a tuple — exactly what sliding-window bookkeeping needs.
    """

    __slots__ = ("dtype", "_heap", "hseqbase")

    def __init__(self, dtype: dt.DataType, capacity: int = 0, hseqbase: int = 0):
        self.dtype = dtype
        self._heap = VectorHeap(dtype, capacity)
        self.hseqbase = hseqbase

    # -- construction ------------------------------------------------

    @classmethod
    def from_values(cls, dtype: dt.DataType, values: Iterable[Any],
                    coerce: bool = False) -> "BAT":
        """Build a BAT from an iterable of Python/storage values.

        With ``coerce=True`` each value goes through
        :func:`repro.storage.types.coerce_value` (None becomes nil).
        """
        bat = cls(dtype)
        if coerce:
            bat._heap.extend(dt.coerce_column(dtype, values))
            return bat
        if dtype.is_string:
            vals = list(values)
            arr = np.empty(len(vals), dtype=object)
            arr[:] = vals
            bat._heap.extend(arr)
        else:
            bat._heap.extend(np.asarray(list(values), dtype=dtype.np_dtype))
        return bat

    @classmethod
    def from_array(cls, dtype: dt.DataType, array: np.ndarray) -> "BAT":
        """Wrap an existing storage array (copied into the heap)."""
        bat = cls(dtype)
        bat._heap.extend(array)
        return bat

    @classmethod
    def adopt_array(cls, dtype: dt.DataType, array: np.ndarray,
                    hseqbase: int = 0) -> "BAT":
        """Wrap a freshly-computed storage array without copying.

        Ownership transfers to the BAT — the caller must not touch the
        array afterwards. Falls back to :meth:`from_array` (a copy) when
        the array is a view, read-only, or of the wrong dtype, so kernel
        results can use it unconditionally. *hseqbase* positions the
        virtual head — log recovery adopts a segment read at the oid
        range the tuples had before the crash.
        """
        if (isinstance(array, np.ndarray) and array.ndim == 1
                and array.dtype == dtype.np_dtype
                and array.flags.owndata and array.flags.writeable):
            bat = cls.__new__(cls)
            bat.dtype = dtype
            bat.hseqbase = hseqbase
            bat._heap = VectorHeap._adopt(dtype, array)
            return bat
        bat = cls.from_array(dtype, array)
        bat.hseqbase = hseqbase
        return bat

    @classmethod
    def adopt_view(cls, dtype: dt.DataType, array: np.ndarray,
                   hseqbase: int = 0) -> "BAT":
        """Wrap a read-only view (e.g. an ``np.memmap`` over a sealed
        log segment) without copying.

        Unlike :meth:`adopt_array` this does **not** require ownership
        or writability — the caller guarantees the backing storage is
        immutable for the BAT's lifetime. Kernels only ever read
        operand BATs, so a mapped segment window flows through plans
        untouched; anything that must mutate goes through fresh result
        arrays anyway. Falls back to a copy only on a dtype mismatch.
        """
        if (isinstance(array, np.ndarray) and array.ndim == 1
                and array.dtype == dtype.np_dtype):
            bat = cls.__new__(cls)
            bat.dtype = dtype
            bat.hseqbase = hseqbase
            bat._heap = VectorHeap._adopt(dtype, array)
            return bat
        bat = cls.from_array(dtype, array)
        bat.hseqbase = hseqbase
        return bat

    # -- basic accessors ---------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def values(self) -> np.ndarray:
        """Active tail as a numpy view; treat as read-only."""
        return self._heap.view()

    def get(self, position: int) -> Any:
        """Python value at *position* (nil -> None)."""
        if position < 0 or position >= len(self):
            raise KernelError(f"position {position} out of range")
        return dt.from_storage(self.dtype, self._heap.view()[position])

    def tolist(self) -> List[Any]:
        """Active tail as Python values (nil -> None) — the egress path
        of every result row: one ``ndarray.tolist()``, nils patched."""
        view = self._heap.view()
        if self.dtype.is_string:
            return list(view)  # nil is None in storage already
        out = (view != 0 if self.dtype is dt.BOOLEAN else view).tolist()
        for i in np.flatnonzero(dt.nil_mask(self.dtype, view)).tolist():
            out[i] = None
        return out

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tolist())

    # -- mutation ----------------------------------------------------

    def append(self, value: Any, coerce: bool = False) -> None:
        if coerce:
            value = dt.coerce_value(self.dtype, value)
        self._heap.append(value)

    def extend(self, values, coerce: bool = False) -> None:
        if coerce:
            values = dt.coerce_column(self.dtype, values)
        # VectorHeap.extend handles dtype staging (with a no-copy fast
        # path for arrays already in storage form)
        self._heap.extend(values)

    def append_bat(self, other: "BAT") -> None:
        if other.dtype != self.dtype:
            raise KernelError(
                f"cannot append {other.dtype} BAT to {self.dtype} BAT")
        self._heap.extend(other.values)

    def delete_head(self, n: int) -> None:
        """Delete the oldest *n* tuples; advances ``hseqbase`` by *n*."""
        self._heap.drop_head(n)
        self.hseqbase += n

    def clear(self) -> None:
        self.hseqbase += len(self)
        self._heap.clear()

    # -- derivation --------------------------------------------------

    def slice(self, start: int, stop: Optional[int] = None) -> "BAT":
        """New BAT holding positions ``[start, stop)`` (values copied)."""
        view = self._heap.view()[start:stop]
        out = BAT(self.dtype, hseqbase=self.hseqbase + start)
        out._heap.extend(view.copy())
        return out

    def take(self, positions: np.ndarray) -> "BAT":
        """New BAT of the values at *positions* (a candidate list)."""
        out = BAT(self.dtype)
        out._heap.extend(self._heap.view()[positions])
        return out

    def copy(self) -> "BAT":
        out = BAT(self.dtype, hseqbase=self.hseqbase)
        out._heap.extend(self._heap.view().copy())
        return out

    def nil_mask(self) -> np.ndarray:
        return dt.nil_mask(self.dtype, self.values)

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self.tolist()[:8])
        more = ", ..." if len(self) > 8 else ""
        return (f"BAT<{self.dtype.name}>@{self.hseqbase}"
                f"[{len(self)}]({head}{more})")


def empty_candidates() -> np.ndarray:
    """The empty candidate list."""
    return np.empty(0, dtype=np.int64)


def all_candidates(n: int) -> np.ndarray:
    """Candidate list selecting every position of an n-tuple BAT."""
    return np.arange(n, dtype=np.int64)


def as_candidates(positions: Sequence[int]) -> np.ndarray:
    """Normalize a position sequence into a sorted int64 candidate list."""
    cand = np.asarray(positions, dtype=np.int64)
    if cand.ndim != 1:
        raise KernelError("candidate list must be one-dimensional")
    if len(cand) > 1 and not np.all(cand[1:] >= cand[:-1]):
        cand = np.sort(cand)
    return cand

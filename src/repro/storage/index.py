"""Secondary indexes over single BATs.

The demo paper highlights "exploiting standard DBMS functionalities in a
streaming environment such as indexing"; these indexes serve the
persistent-table side of hybrid (stream ⋈ table) queries so the probe per
window slide is sub-linear in the table size.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.mal import kernel
from repro.mal.bat import BAT
from repro.storage import types as dt


class HashIndex:
    """Equality index: value -> positions. Nil values are not indexed.

    ``probes`` counts the lookups and joins served, as the ``sorted``
    index does."""

    def __init__(self, bat: BAT):
        self._bat = bat
        self._table: Dict = {}
        self.probes = 0
        self.rebuild()

    def rebuild(self) -> None:
        self._table = {}
        self.on_append(0, len(self._bat))

    def on_append(self, start: int, stop: int) -> None:
        """Index the newly appended positions ``[start, stop)``."""
        if start == 0:
            self._table = {}
        values = self._bat.values[start:stop]
        mask = dt.nil_mask(self._bat.dtype, values)
        for offset, (value, is_nil) in enumerate(zip(values, mask)):
            if is_nil:
                continue
            self._table.setdefault(value, []).append(start + offset)

    def lookup(self, value) -> np.ndarray:
        self.probes += 1
        return np.asarray(self._table.get(value, []), dtype=np.int64)

    def join(self, probe: BAT) -> Tuple[np.ndarray, np.ndarray]:
        """Equi-join *probe* against the indexed column without building
        a hash table: (probe, indexed) positions, ordered as
        :func:`~repro.mal.kernel.hashjoin` orders them."""
        self.probes += 1
        return kernel.probe_hash_table(self._table, probe)

    def __len__(self) -> int:
        return sum(len(v) for v in self._table.values())


class SortedIndex:
    """Order index: binary-searchable sorted permutation of one column.

    Rebuilt on append (amortized by rebuilding only when stale); supports
    equality and range probes. Nils sort out of the index entirely.
    """

    def __init__(self, bat: BAT):
        self._bat = bat
        self._order: Optional[np.ndarray] = None
        self._keys: Optional[np.ndarray] = None
        self._built_rows = -1
        self.probes = 0
        self.rebuild()

    def rebuild(self) -> None:
        values = self._bat.values
        mask = dt.nil_mask(self._bat.dtype, values)
        valid = np.nonzero(~mask)[0].astype(np.int64)
        if self._bat.dtype.is_string:
            order = sorted(valid, key=lambda p: values[p])
            self._order = np.asarray(order, dtype=np.int64)
            self._keys = values[self._order]
        else:
            vv = values[valid]
            perm = np.argsort(vv, kind="stable")
            self._order = valid[perm]
            self._keys = vv[perm]
        self._built_rows = len(self._bat)

    def on_append(self, start: int, stop: int) -> None:
        self._built_rows = -1  # stale; rebuilt lazily on next probe

    def _fresh(self) -> None:
        if self._built_rows != len(self._bat):
            self.rebuild()

    def lookup(self, value) -> np.ndarray:
        self._fresh()
        self.probes += 1
        lo = np.searchsorted(self._keys, value, side="left")
        hi = np.searchsorted(self._keys, value, side="right")
        return np.sort(self._order[lo:hi])

    def range(self, low, high, low_inclusive: bool = True,
              high_inclusive: bool = True) -> np.ndarray:
        self._fresh()
        self.probes += 1
        lo = 0
        hi = len(self._keys)
        if low is not None:
            lo = np.searchsorted(self._keys, low,
                                 side="left" if low_inclusive else "right")
        if high is not None:
            hi = np.searchsorted(self._keys, high,
                                 side="right" if high_inclusive else "left")
        return np.sort(self._order[lo:hi])

    def __len__(self) -> int:
        self._fresh()
        return len(self._keys)

"""Secondary indexes over single BATs.

The demo paper highlights "exploiting standard DBMS functionalities in a
streaming environment such as indexing"; these indexes serve the
persistent-table side of hybrid (stream ⋈ table) queries so the probe per
window slide is sub-linear in the table size.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mal import kernel
from repro.mal.bat import BAT, empty_candidates
from repro.storage import types as dt


def _non_nil(bat: BAT) -> Tuple[np.ndarray, np.ndarray]:
    """(values, positions) of *bat*'s non-nil rows."""
    values = bat.values
    pos = np.flatnonzero(~dt.nil_mask(bat.dtype, values))
    return values[pos], pos


class ColumnIndex:
    """The column's non-nil positions sorted into
    :class:`~repro.mal.kernel.Runs` — the structure an equi-join builds
    per execution, kept across them. It serves equality (``lookup``),
    range and join probes with binary searches; nils are not indexed.

    ``CREATE INDEX … hash`` and ``… sorted`` both build this one
    structure. An append makes the runs stale, and the next probe
    re-sorts the column once (``_built_rows`` is the length they were
    built at). ``probes`` counts the probes served.
    """

    def __init__(self, bat: BAT):
        self._bat = bat
        self.probes = 0
        self.rebuild()

    def rebuild(self) -> None:
        """Sort the column into runs (again after an in-place change)."""
        self._runs = kernel.sort_runs(*_non_nil(self._bat))
        self._built_rows = len(self._bat)

    def _fresh(self) -> kernel.Runs:
        if self._built_rows != len(self._bat):     # appended since
            self.rebuild()
        return self._runs

    def lookup(self, value) -> np.ndarray:
        runs = self._fresh()
        self.probes += 1
        if value is None:      # a nil probe: nils are not indexed
            return empty_candidates()
        run = int(np.searchsorted(runs.keys, value))
        if run == len(runs.keys) or runs.keys[run] != value:
            return empty_candidates()
        start = runs.starts[run]
        return runs.positions[start:start + runs.counts[run]].copy()

    def range(self, low, high, low_inclusive: bool = True,
              high_inclusive: bool = True) -> np.ndarray:
        runs = self._fresh()
        self.probes += 1
        lo, hi = 0, len(runs.keys)
        if low is not None:
            lo = np.searchsorted(runs.keys, low,
                                 side="left" if low_inclusive else "right")
        if high is not None:
            hi = np.searchsorted(runs.keys, high,
                                 side="right" if high_inclusive else "left")
        bounds = np.append(runs.starts, len(runs.positions))
        return np.sort(runs.positions[bounds[lo]:bounds[hi]])

    def join(self, probe: BAT) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Equi-join *probe* against the indexed column without sorting
        it: (probe, indexed) positions, ordered as
        :func:`~repro.mal.kernel.hashjoin` orders them. None when the
        probe's storage type differs (the caller joins instead, which
        compares mixed types exactly)."""
        if probe.values.dtype != self._bat.values.dtype:
            return None
        runs = self._fresh()
        self.probes += 1
        return kernel.probe_runs(runs, *_non_nil(probe))

    def __len__(self) -> int:
        return len(self._fresh().positions)

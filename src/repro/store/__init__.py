"""Durability subsystem: per-stream segmented logs + crash recovery.

``repro.store`` persists every admitted stream tuple to an append-only
columnar log (:class:`~repro.store.log.StreamLog`), one group commit
per scheduler step, and gives the engine what it needs to come back
from a crash: torn-tail truncation, zero-copy basket rebuilds, and the
offset coordinate system (log offset == basket oid) that subscriber
cursors and replay-on-subscribe ride on. The
:class:`~repro.store.paging.PagedWindowBinder` additionally binds
sealed segments as zero-copy BAT views so factories can window over
log-resident history without rehydrating it, and retention knobs
(``retain_ms``/``retain_bytes``) bound how much history the log keeps.
See ``docs/DURABILITY.md``.
"""

from repro.store.log import (ARRIVAL_COLUMN, DURABILITY_MODES,
                             DEFAULT_SEGMENT_ROWS, SegmentInfo,
                             StreamLog)
from repro.store.paging import PagedWindowBinder
from repro.store.segment import CRASH_ENV, FaultInjector

__all__ = ["ARRIVAL_COLUMN", "CRASH_ENV", "DEFAULT_SEGMENT_ROWS",
           "DURABILITY_MODES", "FaultInjector", "PagedWindowBinder",
           "SegmentInfo", "StreamLog"]

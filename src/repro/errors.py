"""Exception hierarchy for the DataCell reproduction.

Every error raised by the library derives from :class:`DataCellError`, so
applications can catch one base class. Subclasses mirror the layer that
raised them (SQL front-end, catalog, kernel, streaming runtime).
"""

from __future__ import annotations


class DataCellError(Exception):
    """Base class for all library errors."""


class SQLError(DataCellError):
    """Base class for errors raised by the SQL front-end."""


class LexerError(SQLError):
    """Raised when the tokenizer meets an unrecognizable character."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """Raised when the token stream does not match the grammar."""

    def __init__(self, message: str, token=None):
        super().__init__(message)
        self.token = token


class BindError(SQLError):
    """Raised during semantic analysis (unknown columns, type errors)."""


class TypeMismatchError(BindError):
    """Raised when an expression combines incompatible types."""


class CatalogError(DataCellError):
    """Raised for schema-object problems (missing/duplicate tables...)."""


class KernelError(DataCellError):
    """Raised by the columnar kernel (BAT/operator misuse)."""


class MALError(DataCellError):
    """Raised by the MAL program layer (unknown opcode, bad arity)."""


class StreamError(DataCellError):
    """Raised by the streaming runtime (baskets, receptors, scheduler)."""


class WindowError(StreamError):
    """Raised for invalid window specifications."""


class SchedulerError(StreamError):
    """Raised for Petri-net scheduling problems."""


class FactoryError(StreamError):
    """Raised when a continuous-query factory fails while firing."""

    def __init__(self, message: str, query_name: str = "", cause=None):
        super().__init__(message)
        self.query_name = query_name
        self.cause = cause


class PersistenceError(DataCellError):
    """Raised when snapshot save/load fails."""


class StoreError(DataCellError):
    """Raised by the durable stream log (segments, manifest, recovery)."""


class ReplayGap(StoreError):
    """Raised when a replay asks for history below the retention floor.

    A caller that registered ``from_start``/``from_offset`` believes it
    will see *all* history from the requested offset; when retention
    (or a short log) has already discarded part of that range, silently
    serving the surviving suffix would claim completeness the data
    cannot back. ``requested`` is the offset the caller asked for and
    ``floor`` the oldest offset that still exists — re-request at or
    above ``floor`` to acknowledge the gap.
    """

    def __init__(self, message: str, stream: str = "",
                 requested: int = 0, floor: int = 0):
        super().__init__(message)
        self.stream = stream
        self.requested = requested
        self.floor = floor


class InjectedCrash(Exception):
    """Raised by the segment writer's fault-injection hook.

    Deliberately *not* a :class:`DataCellError`: test harnesses that
    simulate a crash mid-write must not have the signal swallowed by a
    blanket ``except DataCellError``. The log's commit records it like
    any failed write — the partial write stays on disk as a torn tail
    for recovery to truncate.
    """


class NetError(DataCellError):
    """Raised by the network edge (wire protocol, server, client).

    ``code`` carries the machine-readable error code from an ERROR
    frame (``"shed"``, ``"evicted"``, ``"bad_frame"``, ...) when the
    error crossed the wire; it is ``""`` for local failures.
    """

    def __init__(self, message: str, code: str = ""):
        super().__init__(message)
        self.code = code

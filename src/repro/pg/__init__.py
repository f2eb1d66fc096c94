"""Postgres wire-protocol front end.

Any PostgreSQL v3 client — ``psql``, ``pg8000``, a JDBC driver — can
speak to the DataCell engine: plain SELECTs run one-shot, ``CREATE
STREAM`` / ``INSERT`` feed receptors, and the ``TAIL`` extension turns
the connection into a live result feed: a cursor into a standing
query's result queue. The one host,
:class:`~repro.net.server.DataCellServer`, forks the protocol into an
edge process of its own that reaches the engine over one channel; to
serve Postgres, run ``repro serve --pg-port 5433``.

Modules: :mod:`~repro.pg.messages` (byte-level v3 messages),
:mod:`~repro.pg.protocol` (async stream framing),
:mod:`~repro.pg.session` (per-connection state machine),
:mod:`~repro.pg.server` (:class:`~repro.pg.server.PGEdge`, the edge
process, its channel and ``pg_stats``).
"""

from repro.pg.server import PGEdge

__all__ = ["PGEdge"]

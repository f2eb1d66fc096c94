"""MonetDB/DataCell reproduction: online analytics in a streaming
column-store.

Public API highlights:

* :class:`repro.core.DataCellEngine` — the system facade (DDL, one-time
  queries, continuous queries, stream sources, the scheduler loop).
* :mod:`repro.streams` — rate-controlled sources and the built-in
  workload generators (sensors, web logs, network traffic, Linear Road).
* :mod:`repro.sql` — the SQL compiler stack, usable standalone.
* :mod:`repro.mal` — the columnar kernel (BATs, bulk operators, MAL
  programs).
* :mod:`repro.net` — the network edge: the framed wire protocol, the
  long-running :class:`~repro.net.server.DataCellServer` and the
  blocking :class:`~repro.net.client.DataCellClient`.
"""

from repro.core.engine import ContinuousQuery, DataCellEngine
from repro.core.clock import SimulatedClock, WallClock
from repro.streams.source import ListSource, RateSource

__version__ = "1.0.0"

__all__ = ["DataCellEngine", "ContinuousQuery", "SimulatedClock",
           "WallClock", "ListSource", "RateSource", "__version__"]

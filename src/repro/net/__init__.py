"""The network edge: socket receptors, subscription emitters, and a
long-running DataCell server.

The demo architecture puts "receptors and emitters, i.e., a set of
separate processes per stream and per client" at the edges of the
engine. This package is that boundary as real sockets:

* :mod:`repro.net.protocol` — the length-prefixed framed wire protocol
  (JSON codec);
* :mod:`repro.net.server` — :class:`~repro.net.server.DataCellServer`,
  the one host of a served engine: its scheduler thread, a socket
  receptor per connected producer, a cursor into a query's result
  queue per subscribed client and, optionally, the Postgres listener;
* :mod:`repro.net.client` — :class:`~repro.net.client.DataCellClient`,
  the blocking producer/subscriber client;
* :mod:`repro.net.cli` — the ``repro serve`` / ``send`` / ``tail``
  command-line trio.
"""

from repro.net.client import DataCellClient, ResultBatch
from repro.net.protocol import FrameStream, available_codecs
from repro.net.server import DataCellServer

"""A blocking DataCell network client.

One :class:`DataCellClient` is one connection: a producer
(:meth:`ingest`), a subscriber (:meth:`subscribe` + :meth:`results`),
or both. Replies are matched synchronously; RESULT frames that arrive
while waiting for a reply are buffered and surfaced by the next
:meth:`results` call, so a mixed producer/subscriber connection works.

The client is deliberately simple — blocking sockets, one thread — as
the building block for tests, benchmarks, and the ``repro send`` /
``repro tail`` CLI tools::

    with DataCellClient(port=server.port) as client:
        client.ingest("sensors", [[1, 21.5], [2, 22.0]])
        client.subscribe("hot_rooms")
        for batch in client.results(max_batches=3, timeout=5.0):
            print(batch.rows)
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetError
from repro.net import protocol


class ResultBatch:
    """One in-order result delivery from a standing query or a
    stream subscription.

    Stream-subscription batches additionally carry the tuple oid range
    ``[offset, end)`` they cover and ``replay`` (true while the server
    is still streaming history from before the subscribe); query
    batches leave those as ``None``/``False``.
    """

    __slots__ = ("query", "seq", "t", "columns", "rows",
                 "stream", "offset", "end", "replay")

    def __init__(self, query: str, seq: int, t: int,
                 columns: List[str], rows: List[Tuple[Any, ...]],
                 stream: Optional[str] = None,
                 offset: Optional[int] = None,
                 end: Optional[int] = None,
                 replay: bool = False):
        self.query = query
        self.seq = seq
        self.t = t
        self.columns = columns
        self.rows = rows
        self.stream = stream
        self.offset = offset
        self.end = end
        self.replay = replay

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        label = f"stream={self.stream}" if self.stream \
            else self.query
        return (f"ResultBatch({label}, seq={self.seq}, "
                f"t={self.t}, rows={len(self.rows)})")


class DataCellClient:
    """Blocking framed client for one :class:`DataCellServer`.

    Not thread-safe: use one client per thread (one "separate process
    per client", as the paper puts it).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout_s: float = 10.0,
                 client_name: str = "repro-client"):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.closed = False
        self.last_error: Optional[NetError] = None
        self.subscriptions: Dict[str, List[str]] = {}
        # stream-name -> next undelivered offset (resume coordinate)
        self.stream_offsets: Dict[str, int] = {}
        self._auto_ack: Dict[str, bool] = {}
        self._pending_results: List[ResultBatch] = []
        try:
            sock = socket.create_connection((host, port),
                                            timeout=timeout_s)
        except OSError as exc:
            raise NetError(f"cannot connect to {host}:{port}: {exc}",
                           code="connect") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = protocol.FrameStream(sock)
        self._stream.send(protocol.hello(client=client_name))
        reply = self._read_reply()
        self._stream.set_codec(str(reply.get("codec", "json")))
        self.server_info = reply

    # -- plumbing ------------------------------------------------------

    def _read_frame(self) -> Optional[Dict[str, Any]]:
        try:
            return self._stream.recv()
        except socket.timeout:
            raise NetError(
                f"timed out after {self.timeout_s}s waiting for the "
                f"server", code="timeout") from None

    def _read_reply(self) -> Dict[str, Any]:
        """Next non-RESULT frame; RESULTs seen on the way are buffered."""
        while True:
            message = self._read_frame()
            if message is None:
                self.closed = True
                raise NetError("server closed the connection",
                               code="closed")
            kind = message.get("type")
            if kind == protocol.RESULT:
                self._pending_results.append(self._to_batch(message))
                continue
            if kind == protocol.ERROR:
                raise NetError(str(message.get("message", "")),
                               code=str(message.get("code", "")))
            return message

    def _to_batch(self, message: Dict[str, Any]) -> ResultBatch:
        stream = message.get("stream")
        batch = ResultBatch(
            str(message.get("query", "")),
            int(message.get("seq", -1)), int(message.get("t", -1)),
            list(message.get("columns") or []),
            [tuple(r) for r in (message.get("rows") or [])],
            stream=str(stream).lower() if stream else None,
            offset=message.get("offset"),
            end=message.get("end"),
            replay=bool(message.get("replay", False)))
        if batch.stream is not None and batch.end is not None:
            self.stream_offsets[batch.stream] = int(batch.end)
            if self._auto_ack.get(batch.stream):
                self._stream.send(protocol.ack(batch.stream,
                                               int(batch.end)))
        return batch

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self.closed:
            raise NetError("client is closed", code="closed")
        self._stream.send(message)
        return self._read_reply()

    # -- producer side -------------------------------------------------

    def ingest(self, stream: str, rows: Sequence[Sequence[Any]],
               seq: Optional[int] = None) -> int:
        """Ship one batch; returns the accepted row count.

        Raises :class:`NetError` with ``code="shed"`` when the server's
        admission queue rejected the batch (shed policy), with
        ``code="overload"`` when a blocking admission timed out, and
        with ``code="bad_row"`` when a row does not fit the stream.
        """
        reply = self._request(protocol.ingest(stream, rows, seq=seq))
        return int(reply.get("accepted", 0))

    # -- subscriber side -----------------------------------------------

    def subscribe(self, query: str) -> List[str]:
        """Attach to a standing query; returns its column names."""
        reply = self._request(protocol.subscribe(query))
        columns = list(reply.get("columns") or [])
        self.subscriptions[query.lower()] = columns
        return columns

    def subscribe_stream(self, stream: str,
                         from_offset: Optional[int] = None,
                         auto_ack: bool = True) -> List[str]:
        """Attach to a raw stream; returns its column names.

        ``from_offset=None`` follows live tuples from the current
        head; an integer replays durable history from that oid first
        (clamped to what the server retains), then splices into live
        delivery — RESULT frames carry ``replay=True`` until caught
        up. With ``auto_ack`` every received batch is confirmed back
        (:func:`protocol.ack`), so :attr:`stream_offsets` is the
        resume coordinate after a reconnect.
        """
        stream = stream.lower()
        reply = self._request(protocol.subscribe(
            stream=stream, from_offset=from_offset))
        columns = list(reply.get("columns") or [])
        self.subscriptions[stream] = columns
        self.stream_offsets[stream] = int(reply.get("offset", 0))
        self._auto_ack[stream] = bool(auto_ack)
        return columns

    def ack(self, stream: str, offset: int) -> None:
        """Explicitly confirm delivery up to *offset* (no reply)."""
        self._stream.send(protocol.ack(stream.lower(), offset))

    def results(self, max_batches: Optional[int] = None,
                max_rows: Optional[int] = None,
                timeout: float = 5.0) -> List[ResultBatch]:
        """Collect in-order result batches until a limit or *timeout*.

        Stops early when the server closes the connection or sends an
        ERROR frame (e.g. ``evicted``); the error is kept on
        :attr:`last_error` so already-collected batches are not lost.
        """
        batches: List[ResultBatch] = []
        rows_seen = 0

        def done() -> bool:
            if max_batches is not None and len(batches) >= max_batches:
                return True
            return max_rows is not None and rows_seen >= max_rows

        while self._pending_results and not done():
            batch = self._pending_results.pop(0)
            batches.append(batch)
            rows_seen += batch.row_count
        deadline = time.monotonic() + timeout
        while not done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._stream.sock.settimeout(min(remaining, 0.2))
            try:
                message = self._stream.recv()
            except socket.timeout:
                continue
            finally:
                self._stream.sock.settimeout(self.timeout_s)
            if message is None:
                self.closed = True
                break
            kind = message.get("type")
            if kind == protocol.RESULT:
                batch = self._to_batch(message)
                batches.append(batch)
                rows_seen += batch.row_count
            elif kind == protocol.ERROR:
                self.last_error = NetError(
                    str(message.get("message", "")),
                    code=str(message.get("code", "")))
                break
        return batches

    # -- inspection ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The server's ``network_stats()`` (engine + edge counters)."""
        reply = self._request(protocol.stats())
        return dict(reply.get("payload") or {})

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._stream.close()

    def __enter__(self) -> "DataCellClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"DataCellClient({self.host}:{self.port}, {state})"

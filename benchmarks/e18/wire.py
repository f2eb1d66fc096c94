"""Load-generator side of the two wire protocols.

Both fronts give the harness the same four things: a producer that sends
pre-encoded batches and reads their replies, a subscriber whose receiver
thread stamps result rows as they arrive, an encoder for one batch, and
a STATS probe. The framed front uses only `repro.net.protocol` frame
functions; the pg front is a raw-socket v3 client (no driver is
installed here).
"""

from __future__ import annotations

import queue
import select
import socket
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetError
from repro.net import protocol

HOST = "127.0.0.1"
HALT_POLL_S = 0.05     # how often an idle subscriber looks at `halt`
_I32 = struct.Struct("!i")
_I16 = struct.Struct("!h")


class WireError(RuntimeError):
    """The server refused, errored or hung up."""


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection((HOST, port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks, remaining = [], n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError("server closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _readable(sock: socket.socket, timeout: float) -> bool:
    return bool(select.select([sock], [], [], max(timeout, 0.0))[0])


class Receiver(threading.Thread):
    """The subscriber thread: result rows with their arrival stamps.

    `chunks` holds `(arrival perf_counter, rows)` in arrival order and
    `rows_seen` their running total; the main thread only reads them.
    """

    sock: socket.socket

    def __init__(self) -> None:
        super().__init__(daemon=True, name="e18-subscriber")
        self.chunks: List[Tuple[float, List[Sequence[Any]]]] = []
        self.rows_seen = 0
        self.errors: List[str] = []
        self.halt = threading.Event()

    def _add(self, stamp: float, rows: List[Sequence[Any]]) -> None:
        self.chunks.append((stamp, rows))
        self.rows_seen += len(rows)

    def run(self) -> None:
        try:
            while not self.halt.is_set():
                if _readable(self.sock, HALT_POLL_S):
                    self._receive()
        except (WireError, OSError, NetError) as exc:
            if not self.halt.is_set():
                self.errors.append(f"subscriber: {exc}")

    def _receive(self) -> None:
        raise NotImplementedError


class Producer:
    """What both fronts' producers share: batches go out pre-encoded,
    replies are counted, refusals remembered. A front adds `sock`,
    `encode_batch` and `_read_replies` (block for at least one reply)."""

    sock: socket.socket

    def __init__(self) -> None:
        self.unanswered = 0
        self.refused_batches = 0
        self.last_error = ""
        self.selected: List[List[Optional[str]]] = []   # one-time SELECT rows

    def _read_replies(self) -> None:
        raise NotImplementedError

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)
        self.unanswered += 1

    def poll(self, timeout: float) -> None:
        """Wait up to *timeout* seconds; take the replies that arrive."""
        if not self.unanswered:
            time.sleep(timeout)
        while self.unanswered and _readable(self.sock, timeout):
            self._read_replies()
            timeout = 0.0

    def settle(self) -> None:
        while self.unanswered:
            self._read_replies()


# -- framed protocol -----------------------------------------------------


class FramedConn:
    """One framed connection: HELLO done, raw frames in and out."""

    def __init__(self, port: int):
        self.sock = _connect(port)
        self.stream = protocol.FrameStream(self.sock)
        self.stream.send(protocol.hello(client="e18"))
        self.expect_ok(self.recv())

    def recv_raw(self) -> Tuple[bytes, bytes]:
        # not FrameStream.recv: the subscriber stamps a frame's arrival
        # before it pays for decoding it
        header = _recv_exact(self.sock, protocol.HEADER.size)
        length, _codec = protocol.HEADER.unpack(header)
        return header, _recv_exact(self.sock, length) if length else b""

    def recv(self) -> Dict[str, Any]:
        return protocol.decode_frame(*self.recv_raw())

    @staticmethod
    def expect_ok(message: Dict[str, Any]) -> Dict[str, Any]:
        if message.get("type") == protocol.ERROR:
            raise WireError(f"{message.get('code')}: "
                            f"{message.get('message')}")
        return message

    def close(self) -> None:
        self.stream.close()


class FramedProducer(FramedConn, Producer):
    def __init__(self, port: int, stream: str):
        FramedConn.__init__(self, port)
        Producer.__init__(self)

    @staticmethod
    def encode_batch(stream: str, rows: List[list]) -> bytes:
        return protocol.encode_frame(protocol.ingest(stream, rows))

    def _read_replies(self) -> None:
        reply = self.recv()
        self.unanswered -= 1
        if reply.get("type") == protocol.ERROR:   # shed / overload
            self.refused_batches += 1
            self.last_error = f"{reply.get('code')}: {reply.get('message')}"

    def stats(self) -> Dict[str, Any]:
        self.settle()
        self.stream.send(protocol.stats())
        return dict(self.expect_ok(self.recv()).get("payload") or {})


class FramedSubscriber(Receiver):
    """Query results as row chunks; a stream replay as offset ranges,
    ACKed one frame at a time."""

    def __init__(self, port: int, query: str):
        super().__init__()
        self.conn = FramedConn(port)
        self.sock = self.conn.sock
        self.replies: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self.ranges: List[Tuple[int, int, int, bool]] = []
        self.stream_end = 0
        self.start()
        self.request(protocol.subscribe(query))

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.conn.stream.send(message)
        try:
            return FramedConn.expect_ok(self.replies.get(timeout=10.0))
        except queue.Empty:
            raise WireError(f"no reply to {message['type']}: "
                            f"{self.errors}") from None

    def replay(self, stream: str) -> int:
        """Subscribe to *stream* from offset 0; returns the server's
        starting offset."""
        reply = self.request(protocol.subscribe(stream=stream,
                                                from_offset=0))
        return int(reply.get("offset", 0))

    def _receive(self) -> None:
        header, payload = self.conn.recv_raw()
        stamp = time.perf_counter()
        message = protocol.decode_frame(header, payload)
        kind = message.get("type")
        if kind != protocol.RESULT:
            if kind == protocol.ERROR and message.get("code") == "evicted":
                self.errors.append(f"subscriber: {message.get('message')}")
            self.replies.put(message)
        elif message.get("stream"):
            lo, hi = int(message["offset"]), int(message["end"])
            self.ranges.append((lo, hi, len(message["rows"]),
                                bool(message.get("replay"))))
            self.stream_end = hi
            self.conn.stream.send(protocol.ack(message["stream"], hi))
        else:
            self._add(stamp, message["rows"])

    def close(self) -> None:
        self.halt.set()
        self.join(2.0)
        self.conn.close()


# -- Postgres wire protocol ----------------------------------------------


class PgConn:
    """Just enough of protocol v3: startup, simple Query, typed
    messages parsed out of a receive buffer."""

    def __init__(self, port: int):
        self.sock = _connect(port)
        body = _I32.pack(196608) + b"user\x00e18\x00\x00"
        self.sock.sendall(_I32.pack(len(body) + 4) + body)
        self._buf = bytearray()
        self.read_until_ready()

    @staticmethod
    def query_message(sql: str) -> bytes:
        payload = sql.encode("utf-8") + b"\x00"
        return b"Q" + _I32.pack(len(payload) + 4) + payload

    def fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise WireError("server closed the connection")
        self._buf += chunk

    def messages(self) -> List[Tuple[bytes, bytes]]:
        """Every complete message buffered so far."""
        out, buf, pos = [], self._buf, 0
        while len(buf) - pos >= 5:
            (length,) = _I32.unpack_from(buf, pos + 1)
            if len(buf) - pos < 1 + length:
                break
            out.append((bytes(buf[pos:pos + 1]),
                        bytes(buf[pos + 5:pos + 1 + length])))
            pos += 1 + length
        del buf[:pos]
        return out

    def read_until_ready(self) -> List[Tuple[bytes, bytes]]:
        seen: List[Tuple[bytes, bytes]] = []
        while not seen or seen[-1][0] != b"Z":
            self.fill()
            seen.extend(self.messages())
        return seen

    def close(self) -> None:
        try:
            self.sock.sendall(b"X" + _I32.pack(4))
        except OSError:
            pass
        self.sock.close()


def pg_fields(payload: bytes) -> List[Optional[str]]:
    """Text fields of one DataRow (None = NULL)."""
    (count,) = _I16.unpack_from(payload, 0)
    pos, out = 2, []
    for _ in range(count):
        (length,) = _I32.unpack_from(payload, pos)
        pos += 4
        if length < 0:
            out.append(None)
        else:
            out.append(payload[pos:pos + length].decode("utf-8"))
            pos += length
    return out


def pg_error(payload: bytes) -> str:
    fields = dict((part[:1], part[1:].decode("utf-8", "replace"))
                  for part in payload.split(b"\x00") if part)
    return f"{fields.get(b'C', '?')}: {fields.get(b'M', '?')}"


def sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class PgProducer(PgConn, Producer):
    """INSERT statements in, replies counted; SELECT rows kept."""

    def __init__(self, port: int, stream: str):
        PgConn.__init__(self, port)
        Producer.__init__(self)

    @staticmethod
    def encode_batch(stream: str, rows: List[list]) -> bytes:
        values = ", ".join(
            "(" + ", ".join(sql_literal(v) for v in row) + ")"
            for row in rows)
        return PgConn.query_message(f"INSERT INTO {stream} VALUES {values}")

    def _read_replies(self) -> None:
        self.fill()
        for kind, payload in self.messages():
            if kind == b"Z":
                self.unanswered -= 1
            elif kind == b"D":
                self.selected.append(pg_fields(payload))
            elif kind == b"E":
                self.refused_batches += 1
                self.last_error = pg_error(payload)


class PgSubscriber(Receiver):
    """`TAIL <query>`: DataRows stamped per received chunk."""

    def __init__(self, port: int, query: str):
        super().__init__()
        self.conn = PgConn(port)
        self.sock = self.conn.sock
        self.sock.sendall(PgConn.query_message(f"TAIL {query}"))
        self.start()

    def _receive(self) -> None:
        self.conn.fill()
        stamp = time.perf_counter()
        rows = []
        for kind, payload in self.conn.messages():
            if kind == b"D":
                rows.append(pg_fields(payload))
            elif kind == b"E":
                self.errors.append(f"tail: {pg_error(payload)}")
        if rows:
            self._add(stamp, rows)

    def close(self) -> None:
        self.halt.set()
        self.join(2.0)
        self.conn.sock.close()   # the server ends the TAIL on EOF


FRONTS = {"framed": (FramedProducer, FramedSubscriber),
          "pg": (PgProducer, PgSubscriber)}

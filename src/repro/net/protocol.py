"""The DataCell wire protocol: length-prefixed frames of codec-encoded
messages.

Frame layout (everything big-endian)::

    +----------------+-----------+------------------------+
    | length: uint32 | codec: u8 | payload (length bytes) |
    +----------------+-----------+------------------------+

``length`` counts the payload only; ``codec`` selects the payload
encoding (0 = JSON, 1 = msgpack when the optional dependency is
installed). Every frame carries its codec byte, so a connection can
negotiate in the HELLO exchange without a chicken-and-egg problem: the
client sends HELLO in JSON, asks for a codec, and the server answers
with whatever it actually supports.

A message is a flat dict with a ``"type"`` field — one of
:data:`FRAME_TYPES`:

=============  =====================================================
``hello``      client -> server: open a session, propose a codec
``ok``         server -> client: positive reply (hello/ingest/subscribe)
``ingest``     client -> server: one batch of rows for a stream
``subscribe``  client -> server: attach to a standing query's emitter
               (``query`` field) or to a raw stream with optional
               historical replay (``stream`` + ``from`` fields)
``result``     server -> client: one in-order result batch; stream
               subscriptions carry ``offset``/``end`` (the batch's oid
               range) and ``replay`` (true while catching up)
``ack``        client -> server: confirm delivery of a stream
               subscription up to ``offset`` (resume bookkeeping)
``error``      either direction: failure, with a machine-readable code
``stats``      request (client) and reply (server): engine+edge counters
=============  =====================================================

Row values travel as plain lists; NULL is ``null``/``None``. The JSON
codec serializes numpy scalars via ``.item()`` so engine counters and
column values need no special casing.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import NetError

try:  # optional accelerator; the container may not ship it
    import msgpack as _msgpack
except ImportError:  # pragma: no cover - depends on environment
    _msgpack = None

PROTOCOL_VERSION = 1
HEADER = struct.Struct("!IB")  # payload length, codec id
# a frame larger than this is a corrupt stream or an abusive peer
MAX_FRAME_BYTES = 64 * 1024 * 1024

HELLO = "hello"
OK = "ok"
INGEST = "ingest"
SUBSCRIBE = "subscribe"
RESULT = "result"
ACK = "ack"
ERROR = "error"
STATS = "stats"
FRAME_TYPES = (HELLO, OK, INGEST, SUBSCRIBE, RESULT, ACK, ERROR, STATS)


def _json_default(value: Any):
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        return item()
    raise TypeError(f"cannot serialize {type(value).__name__} "
                    f"on the wire")


class JSONCodec:
    """Codec 0: always available, human-debuggable."""

    id = 0
    name = "json"

    @staticmethod
    def encode(message: Dict[str, Any]) -> bytes:
        return json.dumps(message, separators=(",", ":"),
                          default=_json_default).encode("utf-8")

    @staticmethod
    def decode(payload: bytes) -> Dict[str, Any]:
        return json.loads(payload.decode("utf-8"))


class MsgpackCodec:
    """Codec 1: compact binary framing (optional dependency)."""

    id = 1
    name = "msgpack"

    @staticmethod
    def encode(message: Dict[str, Any]) -> bytes:
        return _msgpack.packb(message, use_bin_type=True,
                              default=_json_default)

    @staticmethod
    def decode(payload: bytes) -> Dict[str, Any]:
        return _msgpack.unpackb(payload, raw=False)


_CODECS_BY_NAME = {JSONCodec.name: JSONCodec}
_CODECS_BY_ID = {JSONCodec.id: JSONCodec}
if _msgpack is not None:
    _CODECS_BY_NAME[MsgpackCodec.name] = MsgpackCodec
    _CODECS_BY_ID[MsgpackCodec.id] = MsgpackCodec


def available_codecs() -> List[str]:
    """Codec names this process can encode/decode."""
    return sorted(_CODECS_BY_NAME)


def get_codec(name: str):
    """Codec class by name; falls back to JSON for unknown/unavailable
    names (the negotiation contract: the reply states what was used)."""
    return _CODECS_BY_NAME.get(name.lower(), JSONCodec)


def encode_frame(message: Dict[str, Any], codec=JSONCodec) -> bytes:
    """One complete wire frame (header + payload) for *message*."""
    payload = codec.encode(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise NetError(f"frame of {len(payload)} bytes exceeds the "
                       f"{MAX_FRAME_BYTES}-byte limit", code="too_large")
    return HEADER.pack(len(payload), codec.id) + payload


def decode_frame(header: bytes, payload: bytes) -> Dict[str, Any]:
    """Decode one frame already split into header + payload."""
    _length, codec_id = HEADER.unpack(header)
    codec = _CODECS_BY_ID.get(codec_id)
    if codec is None:
        raise NetError(f"unknown codec id {codec_id} on the wire",
                       code="bad_frame")
    try:
        message = codec.decode(payload)
    except Exception as exc:
        raise NetError(f"undecodable {codec.name} payload: {exc}",
                       code="bad_frame") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise NetError("frame payload is not a typed message",
                       code="bad_frame")
    return message


class FrameStream:
    """Blocking framed messaging over one connected socket.

    ``send`` is serialized by a lock (the server's scheduler-side
    writer threads and the connection's reply path share one socket);
    ``recv`` is single-reader by construction.
    """

    def __init__(self, sock: socket.socket, codec=JSONCodec):
        self.sock = sock
        self.codec = codec
        self._send_lock = threading.Lock()

    def set_codec(self, name: str) -> str:
        """Switch the outgoing codec; returns the name actually used."""
        self.codec = get_codec(name)
        return self.codec.name

    def send(self, message: Dict[str, Any]) -> None:
        frame = encode_frame(message, self.codec)
        try:
            with self._send_lock:
                self.sock.sendall(frame)
        except OSError as exc:
            raise NetError(f"send failed: {exc}", code="io") from exc

    def _recv_exact(self, nbytes: int) -> Optional[bytes]:
        chunks = []
        remaining = nbytes
        while remaining:
            try:
                chunk = self.sock.recv(remaining)
            except socket.timeout:
                raise
            except OSError as exc:
                raise NetError(f"recv failed: {exc}", code="io") from exc
            if not chunk:
                if chunks:
                    raise NetError("connection closed mid-frame",
                                   code="io")
                return None  # clean EOF on a frame boundary
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` on orderly EOF. Raises
        ``socket.timeout`` when the socket has a timeout set."""
        header = self._recv_exact(HEADER.size)
        if header is None:
            return None
        length, _codec_id = HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise NetError(f"peer announced a {length}-byte frame "
                           f"(limit {MAX_FRAME_BYTES})", code="too_large")
        payload = self._recv_exact(length) if length else b""
        if payload is None:
            raise NetError("connection closed mid-frame", code="io")
        return decode_frame(header, payload)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# -- message constructors (both sides use these) -----------------------


def hello(codec: str = "json", client: str = "repro") -> Dict[str, Any]:
    return {"type": HELLO, "version": PROTOCOL_VERSION,
            "codec": codec, "client": client}


def ok(**fields: Any) -> Dict[str, Any]:
    message: Dict[str, Any] = {"type": OK}
    message.update(fields)
    return message


def ingest(stream: str, rows: List[List[Any]],
           seq: Optional[int] = None) -> Dict[str, Any]:
    message: Dict[str, Any] = {"type": INGEST, "stream": stream,
                               "rows": [list(r) for r in rows]}
    if seq is not None:
        message["seq"] = seq
    return message


def subscribe(query: Optional[str] = None,
              stream: Optional[str] = None,
              from_offset: Optional[int] = None) -> Dict[str, Any]:
    """Query subscription (``query``) or raw-stream subscription
    (``stream``); ``from_offset`` asks the server to replay durable
    history starting at that oid before splicing into live tuples
    (``None`` = live only, from the current head)."""
    if stream is not None:
        message: Dict[str, Any] = {"type": SUBSCRIBE, "stream": stream}
        if from_offset is not None:
            message["from"] = int(from_offset)
        return message
    return {"type": SUBSCRIBE, "query": query}


def result(query: str, seq: int, t: int, columns: List[str],
           rows: Sequence[Sequence[Any]],
           stream: Optional[str] = None,
           offset: Optional[int] = None,
           end: Optional[int] = None,
           replay: bool = False) -> Dict[str, Any]:
    message: Dict[str, Any] = {"type": RESULT, "query": query,
                               "seq": seq, "t": t,
                               "columns": columns, "rows": rows}
    if stream is not None:
        message.update({"stream": stream, "offset": offset,
                        "end": end, "replay": replay})
    return message


def ack(stream: str, offset: int) -> Dict[str, Any]:
    """Fire-and-forget delivery confirmation for a stream
    subscription (no reply frame)."""
    return {"type": ACK, "stream": stream, "offset": int(offset)}


def error(code: str, message: str, **fields: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"type": ERROR, "code": code,
                           "message": message}
    out.update(fields)
    return out


def stats(payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    message: Dict[str, Any] = {"type": STATS}
    if payload is not None:
        message["payload"] = payload
    return message

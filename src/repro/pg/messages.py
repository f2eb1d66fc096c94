"""PostgreSQL v3 wire-protocol messages: byte-level build and parse.

Everything here is pure bytes — no sockets, no asyncio — so the
encoders/decoders are unit-testable and reusable by both the server
session and the test suite's miniature client.

A backend (server→client) message is ``type(1) + length(int32,
including itself) + payload``; frontend messages are the same except
the *first* packet of a connection (startup/SSLRequest/CancelRequest),
which has no type byte. Only the message set DataCell needs is
implemented; see ``docs/PGWIRE.md`` for the support matrix.

Type mapping (text format only): every value travels as its text
rendering, tagged with the OID a Postgres client uses to pick a
decoder. Our storage types map onto

=============  =====  =======================================
``INT``        20     int8 (our ints are 64-bit)
``FLOAT``      701    float8
``STRING``     25     text
``BOOLEAN``    16     bool (``t``/``f`` on the wire)
``TIMESTAMP``  20     int8 — DataCell timestamps are integer
                      milliseconds, not calendar datetimes
=============  =====  =======================================

NULL is the ``-1`` column-length sentinel; nil sentinels never cross
the wire (rows are materialized through ``nil -> None`` conversion
before encoding).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.storage import types as dt

# -- protocol constants ------------------------------------------------

PROTOCOL_3_0 = 196608          # (3 << 16)
SSL_REQUEST_CODE = 80877103
GSSENC_REQUEST_CODE = 80877104
CANCEL_REQUEST_CODE = 80877102

# backend message type bytes
AUTHENTICATION = b"R"
PARAMETER_STATUS = b"S"
BACKEND_KEY_DATA = b"K"
READY_FOR_QUERY = b"Z"
ROW_DESCRIPTION = b"T"
DATA_ROW = b"D"
COMMAND_COMPLETE = b"C"
EMPTY_QUERY_RESPONSE = b"I"
ERROR_RESPONSE = b"E"
NOTICE_RESPONSE = b"N"
PARSE_COMPLETE = b"1"
BIND_COMPLETE = b"2"
CLOSE_COMPLETE = b"3"
NO_DATA = b"n"
PARAMETER_DESCRIPTION = b"t"
PORTAL_SUSPENDED = b"s"

# frontend message type bytes
QUERY = b"Q"
PARSE = b"P"
BIND = b"B"
DESCRIBE = b"D"
EXECUTE = b"E"
SYNC = b"S"
FLUSH = b"H"
CLOSE = b"C"
TERMINATE = b"X"

OID_BOOL = 16
OID_INT8 = 20
OID_FLOAT8 = 701
OID_TEXT = 25

# DataType -> (oid, typlen); -1 typlen = variable
PG_TYPES: Dict[str, Tuple[int, int]] = {
    "INT": (OID_INT8, 8),
    "FLOAT": (OID_FLOAT8, 8),
    "STRING": (OID_TEXT, -1),
    "BOOLEAN": (OID_BOOL, 1),
    "TIMESTAMP": (OID_INT8, 8),
}

_I16 = struct.Struct("!h")
_I32 = struct.Struct("!i")


def pg_type_of(dtype: dt.DataType) -> Tuple[int, int]:
    """``(oid, typlen)`` for a storage type (text format)."""
    return PG_TYPES[dtype.name]


def text_of(value: Any) -> Optional[bytes]:
    """Text-format rendering of one Python cell value (None = NULL).

    Rows must already be nil->None converted (``Relation.to_rows``);
    bools render ``t``/``f``, floats with ``repr`` (shortest
    round-trip), everything else with ``str``.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return b"t" if value else b"f"
    if isinstance(value, float):
        return repr(value).encode("utf-8")
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")


# -- message framing ---------------------------------------------------

def message(type_byte: bytes, payload: bytes = b"") -> bytes:
    """One complete typed message: type + length(self-inclusive) +
    payload."""
    return type_byte + _I32.pack(len(payload) + 4) + payload


def cstr(text: str) -> bytes:
    return text.encode("utf-8") + b"\x00"


# -- backend (server -> client) messages -------------------------------

def authentication_ok() -> bytes:
    return message(AUTHENTICATION, _I32.pack(0))


def parameter_status(name: str, value: str) -> bytes:
    return message(PARAMETER_STATUS, cstr(name) + cstr(value))


def backend_key_data(pid: int, secret: int) -> bytes:
    return message(BACKEND_KEY_DATA,
                   _I32.pack(pid & 0x7FFFFFFF)
                   + _I32.pack(secret & 0x7FFFFFFF))


def ready_for_query(status: bytes = b"I") -> bytes:
    return message(READY_FOR_QUERY, status)


def row_description(columns: Sequence[Tuple[str, dt.DataType]]
                    ) -> bytes:
    """RowDescription for named, typed columns (all text format)."""
    out = bytearray(_I16.pack(len(columns)))
    for name, dtype in columns:
        oid, typlen = pg_type_of(dtype)
        out += cstr(name)
        out += _I32.pack(0)       # table oid (none)
        out += _I16.pack(0)       # column attribute number
        out += _I32.pack(oid)
        out += _I16.pack(typlen)
        out += _I32.pack(-1)      # typmod
        out += _I16.pack(0)       # format: text
    return message(ROW_DESCRIPTION, bytes(out))


def data_row(values: Sequence[Any]) -> bytes:
    """DataRow from Python cell values (None -> NULL)."""
    out = bytearray(_I16.pack(len(values)))
    for value in values:
        text = text_of(value)
        if text is None:
            out += _I32.pack(-1)
        else:
            out += _I32.pack(len(text))
            out += text
    return message(DATA_ROW, bytes(out))


def command_complete(tag: str) -> bytes:
    return message(COMMAND_COMPLETE, cstr(tag))


def empty_query_response() -> bytes:
    return message(EMPTY_QUERY_RESPONSE)


def parse_complete() -> bytes:
    return message(PARSE_COMPLETE)


def bind_complete() -> bytes:
    return message(BIND_COMPLETE)


def close_complete() -> bytes:
    return message(CLOSE_COMPLETE)


def no_data() -> bytes:
    return message(NO_DATA)


def parameter_description(oids: Sequence[int] = ()) -> bytes:
    out = bytearray(_I16.pack(len(oids)))
    for oid in oids:
        out += _I32.pack(oid)
    return message(PARAMETER_DESCRIPTION, bytes(out))


def error_response(sqlstate: str, text: str,
                   severity: str = "ERROR",
                   detail: Optional[str] = None,
                   hint: Optional[str] = None) -> bytes:
    """ErrorResponse with the standard field set (S/V/C/M [+D +H])."""
    fields = bytearray()
    fields += b"S" + cstr(severity)
    fields += b"V" + cstr(severity)
    fields += b"C" + cstr(sqlstate)
    fields += b"M" + cstr(text)
    if detail:
        fields += b"D" + cstr(detail)
    if hint:
        fields += b"H" + cstr(hint)
    fields += b"\x00"
    return message(ERROR_RESPONSE, bytes(fields))


# -- frontend payload parsers (server side + test client) --------------

def parse_startup_payload(payload: bytes) -> Dict[str, str]:
    """Key/value pairs of a 3.0 StartupMessage (code already read)."""
    params: Dict[str, str] = {}
    parts = payload.split(b"\x00")
    it = iter(parts)
    for key in it:
        if not key:
            break
        value = next(it, b"")
        params[key.decode("utf-8", "replace")] = \
            value.decode("utf-8", "replace")
    return params


def read_cstr(payload: bytes, offset: int) -> Tuple[str, int]:
    end = payload.index(b"\x00", offset)
    return payload[offset:end].decode("utf-8"), end + 1


def parse_parse(payload: bytes) -> Tuple[str, str, List[int]]:
    """Parse message -> (statement_name, sql, param_type_oids)."""
    name, off = read_cstr(payload, 0)
    sql, off = read_cstr(payload, off)
    (n,) = _I16.unpack_from(payload, off)
    off += 2
    oids = []
    for _ in range(n):
        (oid,) = _I32.unpack_from(payload, off)
        off += 4
        oids.append(oid)
    return name, sql, oids


def parse_bind(payload: bytes
               ) -> Tuple[str, str, List[bytes], List[int]]:
    """Bind message -> (portal, statement, params, result_formats).

    Parameter *values* are returned raw (text-format bytes or None);
    the session rejects non-empty parameter lists anyway.
    """
    portal, off = read_cstr(payload, 0)
    statement, off = read_cstr(payload, off)
    (nfmt,) = _I16.unpack_from(payload, off)
    off += 2 + 2 * nfmt  # per-parameter format codes (unused)
    (nparams,) = _I16.unpack_from(payload, off)
    off += 2
    params: List[bytes] = []
    for _ in range(nparams):
        (ln,) = _I32.unpack_from(payload, off)
        off += 4
        if ln >= 0:
            params.append(payload[off:off + ln])
            off += ln
        else:
            params.append(None)  # type: ignore[arg-type]
    (nres,) = _I16.unpack_from(payload, off)
    off += 2
    result_formats = []
    for _ in range(nres):
        (fmt,) = _I16.unpack_from(payload, off)
        off += 2
        result_formats.append(fmt)
    return portal, statement, params, result_formats


def parse_describe(payload: bytes) -> Tuple[str, str]:
    """Describe -> (kind 'S'|'P', name)."""
    kind = payload[0:1].decode("ascii")
    name, _ = read_cstr(payload, 1)
    return kind, name


def parse_execute(payload: bytes) -> Tuple[str, int]:
    """Execute -> (portal, max_rows)."""
    portal, off = read_cstr(payload, 0)
    (max_rows,) = _I32.unpack_from(payload, off)
    return portal, max_rows


def parse_close(payload: bytes) -> Tuple[str, str]:
    return parse_describe(payload)

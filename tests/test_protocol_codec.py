"""The framed JSON codec against the stdlib ``json`` module.

``protocol.JSONCodec`` runs on ``orjson`` but must mean what ``json``
means: every payload ``json.loads`` accepts decodes to the same value,
and every message round-trips to what a ``json.dumps``/``json.loads``
round trip gives. ``orjson`` alone differs on non-finite floats, lone
surrogates and integers beyond 64 bits; these tests pin each case."""

import json
import math
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import WallClock
from repro.core.engine import DataCellEngine
from repro.errors import NetError
from repro.net import protocol
from repro.net.client import DataCellClient
from repro.net.server import DataCellServer

codec = protocol.JSONCodec


def same(a, b) -> bool:
    """Equal values of equal types; NaN equals NaN, -0.0 is not 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def assert_decodes_like_json(payload: bytes) -> None:
    expected = json.loads(payload.decode("utf-8"))
    assert same(codec.decode(payload), expected), payload


EDGES = [2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1, 2 ** 64,
         -2 ** 64, 10 ** 30, -10 ** 30, 0]

# -- decode --------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "NaN", "Infinity", "-Infinity", "[1, NaN, -Infinity]",
    '"\\ud800"', '"a\\udfffb"', '["\\ud83d\\ude00", "\\ud83d"]',
    '"\\u00e9\\u4e2d\\ud83d\\ude00"', '"\\u0000"',
    "-0.0", "-0", "5e-324", "2.2250738585072014e-308", "4.9e-324",
    "1e400", "-1e400", "1.7976931348623157e308",
    "123456789012345678901234567890", "-9223372036854775809",
    "18446744073709551616", "18446744073709551615",
    "-9223372036854775808", "9223372036854775807",
    '{"rows": [[-9223372036854775809, 1.5]], "seq": 1}',
    '{"a": 1, "a": 2}', " [1 , 2 ] ",
])
def test_decode_edge_payloads(text):
    assert_decodes_like_json(text.encode("utf-8"))


@pytest.mark.parametrize("value", EDGES)
def test_decode_integer_edges(value):
    assert_decodes_like_json(json.dumps({"type": "ingest",
                                         "rows": [[value]]}).encode())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
    | st.sampled_from(EDGES)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=-1e-300, max_value=1e-300)   # subnormals
    | st.text(),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=30)


@settings(max_examples=250, deadline=None)
@given(json_values, st.booleans())
def test_decode_matches_json_on_dumped_values(value, ascii_only):
    text = json.dumps(value, ensure_ascii=ascii_only)
    try:
        payload = text.encode("utf-8")
    except UnicodeEncodeError:   # a lone surrogate: escape it
        payload = json.dumps(value).encode("utf-8")
    assert_decodes_like_json(payload)


# a JSON number as text: long mantissas, wide integers, huge and tiny
# exponents that no float's repr would write
number_texts = st.from_regex(
    r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?",
    fullmatch=True)


@settings(max_examples=250, deadline=None)
@given(st.lists(number_texts, min_size=1, max_size=8))
def test_decode_matches_json_on_number_literals(numbers):
    assert_decodes_like_json(("[" + ",".join(numbers) + "]").encode())


# -- encode --------------------------------------------------------------


def roundtrip(message):
    return codec.decode(codec.encode(message))


def json_roundtrip(message):
    return json.loads(json.dumps(message, separators=(",", ":"),
                                 default=protocol._json_default))


numpy_scalars = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(0, 2 ** 64 - 1).map(np.uint64),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.booleans().map(np.bool_))
message_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from(EDGES + [math.inf, -math.inf])
    | st.floats(allow_nan=False) | st.text() | numpy_scalars,
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=6).map(tuple)
    | st.dictionaries(st.text(max_size=8) | st.integers(-2 ** 63,
                                                        2 ** 63 - 1),
                      children, max_size=6),
    max_leaves=30)


@settings(max_examples=250, deadline=None)
@given(st.dictionaries(st.text(max_size=8), message_values, max_size=6))
def test_encode_roundtrips_like_json(payload):
    message = {"type": "stats", "payload": payload}
    assert same(roundtrip(message), json_roundtrip(message))


@pytest.mark.parametrize("message", [
    protocol.result("q", 3, 5, ["v"], [(1.5,), (math.inf,), (None,)]),
    protocol.result("q", 0, 0, ["v"], [(-math.inf,)]),
    protocol.stats({"ratio": math.nan, "peak": np.float64(math.inf)}),
    protocol.stats({1: "int key", "lag": np.int64(4),
                    "share": np.float32(0.1)}),
    protocol.ok(seq=2 ** 64, accepted=(1, 2)),
    protocol.error("bad_row", "lone \ud800 surrogate"),
])
def test_encode_fallbacks(message):
    assert same(roundtrip(message), json_roundtrip(message))


def test_infinity_is_written_as_json_writes_it():
    frame = codec.encode(protocol.result("q", 0, 0, ["v"],
                                         [(math.inf,), (-math.inf,)]))
    assert b"Infinity" in frame and b"-Infinity" in frame
    assert b"null" not in frame


# -- a served round trip -----------------------------------------------


def test_served_roundtrip_is_exact():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    engine.register_continuous("SELECT k, v FROM s", name="q")
    rows = [[2 ** 63 - 1, math.inf], [-(2 ** 63 - 1), -math.inf],
            [0, -0.0], [1, 5e-324]]
    server = DataCellServer(engine).start()
    try:
        with DataCellClient(port=server.port) as client:
            client.subscribe("q")
            producer = protocol.FrameStream(
                socket.create_connection((server.host, server.port)))
            try:
                producer.send(protocol.hello())
                assert producer.recv()["type"] == protocol.OK
                seq = 2 ** 63 - 1
                producer.send(protocol.ingest("s", rows, seq=seq))
                reply = producer.recv()
            finally:
                producer.close()
            assert reply["type"] == protocol.OK
            assert same(reply["seq"], seq)
            batches = client.results(max_rows=len(rows), timeout=5.0)
            got = [list(r) for b in batches for r in b.rows]
            assert same(got, rows)
    finally:
        server.stop()
        engine.close()


def test_served_integer_beyond_int64_is_refused():
    engine = DataCellEngine(clock=WallClock())
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    server = DataCellServer(engine).start()
    try:
        with DataCellClient(port=server.port) as client:
            # orjson alone reads it as the float -2**63: the INT nil
            with pytest.raises(NetError) as exc:
                client.ingest("s", [[-2 ** 63 - 1, 1.0]])
            assert exc.value.code == "bad_row"
            assert client.stats()["baskets"]["s"]["total_in"] == 0
    finally:
        server.stop()
        engine.close()

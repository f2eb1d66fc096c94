"""Column-at-a-time egress: ``BAT.tolist`` against the per-cell
reference it replaced, and the bytes both wire front ends make of it.

The reference is ``[dt.from_storage(dtype, v) for v in bat.values]`` —
one Python call per cell. Everything that leaves the engine
(``Relation.to_rows``, RESULT frames, pg DataRows) must be unchanged
down to the Python type of every value, since JSON and the pg text
format both print ``1`` and ``1.0``, ``True`` and ``1`` differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mal.bat import BAT
from repro.mal.relation import Relation
from repro.net import protocol
from repro.pg import messages as msg
from repro.storage import types as dt

_CELLS = {
    dt.INT: st.none() | st.integers(-2**62, 2**62),
    dt.TIMESTAMP: st.none() | st.integers(0, 2**50),
    dt.FLOAT: st.none() | st.floats(allow_nan=False),
    dt.BOOLEAN: st.none() | st.booleans(),
    dt.STRING: st.none() | st.text(max_size=6),
}


def _reference(bat):
    return [dt.from_storage(bat.dtype, v) for v in bat.values]


def _typed(values):
    return [(type(v), v) for v in values]


@st.composite
def columns(draw):
    dtype = draw(st.sampled_from(list(_CELLS)))
    return dtype, draw(st.lists(_CELLS[dtype], max_size=40))


class TestTolist:
    @settings(max_examples=200, deadline=None)
    @given(columns(), st.integers(0, 40), st.integers(0, 40))
    def test_equals_per_cell_reference(self, column, start, stop):
        dtype, values = column
        bat = BAT.from_values(dtype, values, coerce=True)
        for b in (bat, bat.slice(start, stop)):
            assert _typed(b.tolist()) == _typed(_reference(b))
        bat.delete_head(min(start, len(bat)))  # a drained basket column
        assert _typed(bat.tolist()) == _typed(_reference(bat))

    @pytest.mark.parametrize("dtype", list(_CELLS), ids=str)
    def test_empty(self, dtype):
        assert BAT(dtype).tolist() == []

    @pytest.mark.parametrize("dtype,values", [
        (dt.INT, [1, None, -7, 2**40]),
        (dt.TIMESTAMP, [0, None, 1700000000000]),
        (dt.FLOAT, [0.5, None, -1e300, float("inf")]),
        (dt.BOOLEAN, [True, None, False]),
    ], ids=str)
    def test_memmap_backed_view(self, tmp_path, dtype, values):
        """Sealed log segments reach plans as read-only ``np.memmap``
        windows (``BAT.adopt_view``)."""
        path = tmp_path / "segment.bin"
        dt.coerce_column(dtype, values).tofile(path)
        mapped = np.memmap(path, dtype=dtype.np_dtype, mode="r")
        bat = BAT.adopt_view(dtype, mapped, hseqbase=100)
        assert isinstance(bat.values, np.memmap)
        assert _typed(bat.tolist()) == _typed(values)
        assert _typed(bat.tolist()) == _typed(_reference(bat))


def _relation():
    return Relation([
        ("k", BAT.from_values(dt.INT, [1, None, 3], coerce=True)),
        ("v", BAT.from_values(dt.FLOAT, [0.5, 2.0, None], coerce=True)),
        ("tag", BAT.from_values(dt.STRING, ["a", None, "ü"], coerce=True)),
        ("ok", BAT.from_values(dt.BOOLEAN, [True, False, None],
                               coerce=True)),
        ("at", BAT.from_values(dt.TIMESTAMP, [None, 17, 18], coerce=True)),
    ])


def _old_rows(rel):
    """The row path this PR replaced: per-cell conversion, then a
    second per-row copy into lists."""
    cols = [_reference(bat) for _name, bat in rel.columns()]
    return [list(r) for r in zip(*cols)]


class TestWireBytes:
    @pytest.mark.parametrize("codec", protocol.available_codecs())
    def test_result_frame_bytes_unchanged(self, codec):
        rel = _relation()
        old, new = (protocol.encode_frame(
            protocol.result("q", 7, 1234, rel.names, rows),
            protocol.get_codec(codec))
            for rows in (_old_rows(rel), rel.to_rows()))
        assert new == old
        assert b"null" in new or codec != "json"  # nils are in there

    def test_pg_data_row_bytes_unchanged(self):
        rel = _relation()
        old = [msg.data_row(tuple(row)) for row in _old_rows(rel)]
        assert [msg.data_row(row) for row in rel.to_rows()] == old

"""Unit tests for secondary indexes over BATs."""

import pytest

from repro.mal.bat import BAT
from repro.storage import types as dt
from repro.storage.index import ColumnIndex


@pytest.fixture
def bat():
    return BAT.from_values(dt.INT, [5, 2, 5, None, 9], coerce=True)


class TestHashIndex:
    def test_lookup(self, bat):
        index = ColumnIndex(bat)
        assert index.lookup(5).tolist() == [0, 2]
        assert index.lookup(9).tolist() == [4]

    def test_lookup_missing(self, bat):
        assert ColumnIndex(bat).lookup(77).tolist() == []

    def test_nil_not_indexed(self, bat):
        index = ColumnIndex(bat)
        assert len(index) == 4

    def test_incremental_append(self, bat):
        index = ColumnIndex(bat)
        bat.extend([5], coerce=True)
        assert index.lookup(5).tolist() == [0, 2, 5]

    def test_rebuild(self, bat):
        index = ColumnIndex(bat)
        index.rebuild()
        assert index.lookup(2).tolist() == [1]

    def test_string_index(self):
        bat = BAT.from_values(dt.STRING, ["b", "a", "b"], coerce=True)
        index = ColumnIndex(bat)
        assert index.lookup("b").tolist() == [0, 2]


class TestSortedIndex:
    def test_lookup(self, bat):
        index = ColumnIndex(bat)
        assert index.lookup(5).tolist() == [0, 2]

    def test_range_inclusive(self, bat):
        index = ColumnIndex(bat)
        assert index.range(2, 5).tolist() == [0, 1, 2]

    def test_range_exclusive(self, bat):
        index = ColumnIndex(bat)
        assert index.range(2, 5, low_inclusive=False,
                           high_inclusive=False).tolist() == []
        assert index.range(2, 9, high_inclusive=False).tolist() == \
            [0, 1, 2]

    def test_range_open_ended(self, bat):
        index = ColumnIndex(bat)
        assert index.range(None, 5).tolist() == [0, 1, 2]
        assert index.range(6, None).tolist() == [4]

    def test_lazily_refreshed_after_append(self, bat):
        index = ColumnIndex(bat)
        bat.extend([3], coerce=True)
        assert index.range(3, 3).tolist() == [5]

    def test_nil_excluded(self, bat):
        index = ColumnIndex(bat)
        assert len(index) == 4

    def test_string_sorted(self):
        bat = BAT.from_values(dt.STRING, ["pear", "fig", None, "apple"],
                              coerce=True)
        index = ColumnIndex(bat)
        assert index.range("apple", "fig").tolist() == [1, 3]

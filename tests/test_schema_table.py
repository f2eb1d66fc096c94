"""Unit tests for schemas and persistent tables."""

import numpy as np
import pytest

from repro.errors import CatalogError, KernelError
from repro.mal.relation import Relation
from repro.storage import types as dt
from repro.storage.schema import ColumnDef, Schema
from repro.storage.table import Table


class TestSchema:
    def test_of(self):
        schema = Schema.of(("a", dt.INT), ("b", dt.STRING))
        assert schema.names == ["a", "b"]

    def test_parse(self):
        schema = Schema.parse([("a", "integer"), ("b", "varchar")])
        assert schema.types == [dt.INT, dt.STRING]

    def test_duplicate_rejected(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", dt.INT), ("A", dt.INT))

    def test_lookup(self):
        schema = Schema.of(("a", dt.INT))
        assert schema.has("A")
        assert schema.index_of("a") == 0
        assert schema.type_of("a") is dt.INT

    def test_unknown_column(self):
        schema = Schema.of(("a", dt.INT))
        with pytest.raises(CatalogError):
            schema.index_of("b")

    def test_rename(self):
        schema = Schema.of(("a", dt.INT)).rename(["z"])
        assert schema.names == ["z"]
        assert schema.types == [dt.INT]

    def test_rename_wrong_count(self):
        with pytest.raises(CatalogError):
            Schema.of(("a", dt.INT)).rename(["x", "y"])

    def test_empty_column_name_rejected(self):
        with pytest.raises(CatalogError):
            ColumnDef("", dt.INT)

    def test_equality(self):
        assert Schema.of(("a", dt.INT)) == Schema.of(("a", dt.INT))
        assert Schema.of(("a", dt.INT)) != Schema.of(("a", dt.FLOAT))


@pytest.fixture
def table():
    t = Table("t", Schema.parse([("a", "INT"), ("s", "STRING")]))
    t.insert_rows([(1, "x"), (2, "y"), (3, None)])
    return t


class TestTable:
    def test_len(self, table):
        assert len(table) == 3 and table.row_count == 3

    def test_insert_row(self, table):
        table.insert_row((4, "w"))
        assert table.to_rows()[-1] == (4, "w")

    def test_insert_wrong_width(self, table):
        with pytest.raises(CatalogError):
            table.insert_row((1,))

    def test_insert_coerces(self, table):
        table.insert_row((4.0, None))
        assert table.to_rows()[-1] == (4, None)

    def test_unknown_column(self, table):
        with pytest.raises(CatalogError):
            table.column("zz")

    def test_scan_shares_columns(self, table):
        rel = table.scan()
        assert rel.to_rows() == table.to_rows()

    def test_insert_relation(self, table):
        rel = Relation.from_rows(table.schema, [(9, "q")])
        table.insert_relation(rel)
        assert table.to_rows()[-1] == (9, "q")

    def test_insert_relation_type_mismatch(self, table):
        bad = Relation.from_rows(
            Schema.parse([("a", "FLOAT"), ("s", "STRING")]), [(1.5, "x")])
        with pytest.raises(KernelError):
            table.insert_relation(bad)

    def test_delete_positions(self, table):
        deleted = table.delete_positions(np.array([0, 2], dtype=np.int64))
        assert deleted == 2
        assert table.to_rows() == [(2, "y")]

    def test_delete_empty(self, table):
        assert table.delete_positions(np.array([], dtype=np.int64)) == 0

    def test_truncate(self, table):
        table.truncate()
        assert len(table) == 0
        table.insert_row((1, "a"))
        assert len(table) == 1


class TestTableIndexes:
    def test_create_duplicate_index(self, table):
        table.create_index("a")
        with pytest.raises(CatalogError):
            table.create_index("a")

    def test_hash_lookup(self, table):
        table.create_index("a")
        assert table.index_lookup("a", 2).tolist() == [1]

    def test_lookup_without_index(self, table):
        assert table.index_lookup("a", 2) is None

    def test_index_maintained_on_insert(self, table):
        table.create_index("a")
        table.insert_row((2, "dup"))
        assert table.index_lookup("a", 2).tolist() == [1, 3]

    def test_index_rebuilt_on_delete(self, table):
        table.create_index("a")
        table.delete_positions(np.array([0], dtype=np.int64))
        assert table.index_lookup("a", 2).tolist() == [0]

    def test_sorted_range(self, table):
        table.create_index("a")
        assert table.index_range("a", 2, None).tolist() == [1, 2]

    def test_hash_index_serves_range(self, table):
        # the one sorted-runs index serves ranges too
        table.create_index("a")
        assert table.index_range("a", 1, 2).tolist() == [0, 1]

    def test_range_without_index(self, table):
        assert table.index_range("a", 1, 2) is None

    def test_drop_index(self, table):
        table.create_index("a")
        table.drop_index("a")
        assert table.index_lookup("a", 1) is None

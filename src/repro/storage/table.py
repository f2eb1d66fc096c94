"""Persistent tables: one BAT per attribute, MonetDB style."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import CatalogError, KernelError, TypeMismatchError
from repro.mal.bat import BAT
from repro.mal.relation import Relation
from repro.storage import types as dt
from repro.storage.index import ColumnIndex
from repro.storage.schema import Schema

# comparison -> (low, high, low_inclusive, high_inclusive) of a range probe
_RANGE_BOUNDS = {
    "<": lambda v: (None, v, True, False),
    "<=": lambda v: (None, v, True, True),
    ">": lambda v: (v, None, False, True),
    ">=": lambda v: (v, None, True, True),
}


class Table:
    """A persistent relational table stored as a collection of BATs.

    Inserts append to every column BAT; deletes are positional and
    compact immediately (the reproduction does not need MVCC — DataCell's
    stream side goes through baskets, not tables).
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name.lower()
        self.schema = schema
        self._bats: Dict[str, BAT] = {
            c.name: BAT(c.dtype) for c in schema.columns}
        self._indexes: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._bats[self.schema.names[0]]) if len(self.schema) else 0

    @property
    def row_count(self) -> int:
        return len(self)

    def column(self, name: str) -> BAT:
        try:
            return self._bats[name.lower()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}") from None

    # -- mutation ------------------------------------------------------

    def insert_row(self, values: Sequence[Any]) -> None:
        self.insert_rows([values])

    def insert_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        rows = list(rows)
        if not rows:
            return
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise CatalogError(
                    f"insert into {self.name}: expected {width} values, "
                    f"got {len(row)}")
        # same batch staging as Basket.append_rows: one vectorized
        # conversion per column, not a Python loop per row
        staged = [dt.coerce_column(coldef.dtype, [row[i] for row in rows])
                  for i, coldef in enumerate(self.schema.columns)]
        for coldef, column in zip(self.schema.columns, staged):
            self._bats[coldef.name].extend(column)

    def insert_relation(self, rel: Relation) -> None:
        """Append a compatible relation (used by INSERT ... SELECT)."""
        if rel.names != self.schema.names:
            rel = rel.renamed(self.schema.names)
        for coldef in self.schema.columns:
            src = rel.column(coldef.name)
            if src.dtype != coldef.dtype:
                raise KernelError(
                    f"insert into {self.name}.{coldef.name}: type "
                    f"{src.dtype} does not match {coldef.dtype}")
            self._bats[coldef.name].append_bat(src)

    def delete_positions(self, positions: np.ndarray) -> int:
        """Delete rows at *positions*; returns number deleted."""
        positions = np.unique(np.asarray(positions, dtype=np.int64))
        if len(positions) == 0:
            return 0
        keep = np.ones(len(self), dtype=bool)
        keep[positions] = False
        keep_pos = np.nonzero(keep)[0].astype(np.int64)
        for name, bat in self._bats.items():
            self._bats[name] = bat.take(keep_pos)
        self._reindex()
        return len(positions)

    def update_column(self, column: str, positions: np.ndarray,
                      values: BAT) -> int:
        """Overwrite *column* at *positions* with *values* (row-aligned
        with the positions). Indexes on the column are rebuilt."""
        column = column.lower()
        bat = self.column(column)
        if values.dtype != bat.dtype:
            raise KernelError(
                f"update {self.name}.{column}: type {values.dtype} "
                f"does not match {bat.dtype}")
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) != len(values):
            raise KernelError("update: positions/values length mismatch")
        target = bat.values
        if bat.dtype.is_string:
            src = values.values
            for i, pos in enumerate(positions):
                target[pos] = src[i]
        else:
            target[positions] = values.values
        index = self._indexes.get(column)
        if index is not None:
            index.rebuild()
        return len(positions)

    def truncate(self) -> None:
        for coldef in self.schema.columns:
            self._bats[coldef.name] = BAT(coldef.dtype)
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild indexes against the (replaced) column BATs."""
        for column in self._indexes:
            self._indexes[column] = ColumnIndex(self.column(column))

    # -- reading -------------------------------------------------------

    def scan(self) -> Relation:
        """The whole table as a relation (columns shared, not copied)."""
        return Relation((c.name, self._bats[c.name])
                        for c in self.schema.columns)

    def to_rows(self) -> List[tuple]:
        return self.scan().to_rows()

    # -- indexing ------------------------------------------------------

    def create_index(self, column: str) -> None:
        """Create a secondary :class:`ColumnIndex` on *column*."""
        column = column.lower()
        bat = self.column(column)
        if column in self._indexes:
            raise CatalogError(
                f"index on {self.name}.{column} already exists")
        self._indexes[column] = ColumnIndex(bat)

    def drop_index(self, column: str) -> None:
        self._indexes.pop(column.lower(), None)

    def index_on(self, column: str):
        return self._indexes.get(column.lower())

    def index_lookup(self, column: str, value) -> Optional[np.ndarray]:
        """Equality probe via an index, or None when not indexed."""
        index = self._indexes.get(column.lower())
        if index is None:
            return None
        return index.lookup(dt.coerce_value(
            self.schema.type_of(column), value))

    def index_range(self, column: str, low, high,
                    low_inclusive: bool = True, high_inclusive: bool = True
                    ) -> Optional[np.ndarray]:
        """Range probe via an index, or None when not indexed."""
        index = self._indexes.get(column.lower())
        if index is None:
            return None
        return index.range(low, high, low_inclusive, high_inclusive)

    def index_select(self, column: str, op: str, value
                     ) -> Optional[np.ndarray]:
        """Positions where ``column op value`` holds, probed through an
        index on *column*; None when no index serves *op* (or *value*
        does not fit the column), so the caller scans instead."""
        if op == "==":
            try:
                return self.index_lookup(column, value)
            except TypeMismatchError:
                return None
        bounds = _RANGE_BOUNDS.get(op)
        if bounds is None:
            return None
        low, high, low_inclusive, high_inclusive = bounds(value)
        return self.index_range(column, low, high, low_inclusive,
                                high_inclusive)

    def index_join(self, column: str, probe: BAT):
        """(probe, table) positions of the equi-join of *probe* with
        *column* through an index on it; None without one (or for a
        probe of another storage type)."""
        index = self._indexes.get(column.lower())
        if index is None:
            return None
        return index.join(probe)

    def __repr__(self) -> str:
        return f"Table({self.name}, {self.schema!r}, rows={len(self)})"

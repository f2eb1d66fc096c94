"""Data types and nil semantics for the columnar kernel.

MonetDB represents SQL NULL with in-band *nil* sentinels per type rather
than with validity bitmaps; we mirror that design because the whole bulk
kernel then works on plain numpy arrays:

* ``INT`` / ``TIMESTAMP`` — ``numpy.iinfo(int64).min``
* ``FLOAT`` — ``NaN``
* ``BOOLEAN`` — stored as ``int8`` with nil ``-1`` (0 false, 1 true)
* ``STRING`` — Python ``None`` inside an object array

:class:`DataType` instances are singletons; compare with ``is`` or ``==``.
"""

from __future__ import annotations

import math
from typing import Any, Optional

import numpy as np

from repro.errors import TypeMismatchError

INT_NIL = np.iinfo(np.int64).min
INT_MAX = np.iinfo(np.int64).max
FLOAT_NIL = float("nan")
BOOL_NIL = np.int8(-1)


class DataType:
    """A column type: SQL name, numpy storage dtype and nil sentinel."""

    _registry: dict = {}

    def __init__(self, name: str, np_dtype, nil, python_type):
        self.name = name
        self.np_dtype = np.dtype(np_dtype)
        self.nil = nil
        self.python_type = python_type
        DataType._registry[name] = self

    def __repr__(self) -> str:
        return f"DataType({self.name})"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, DataType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __reduce__(self):
        # unpickled as the registered instance: `dtype is INT` holds
        return DataType.by_name, (self.name,)

    @property
    def is_numeric(self) -> bool:
        return self.name in ("INT", "FLOAT")

    @property
    def is_string(self) -> bool:
        return self.name == "STRING"

    def empty(self, capacity: int = 0) -> np.ndarray:
        """Return an empty storage array of this type."""
        return np.empty(capacity, dtype=self.np_dtype)

    @staticmethod
    def by_name(name: str) -> "DataType":
        key = _TYPE_ALIASES.get(name.upper(), name.upper())
        try:
            return DataType._registry[key]
        except KeyError:
            raise TypeMismatchError(f"unknown type: {name!r}") from None


INT = DataType("INT", np.int64, INT_NIL, int)
FLOAT = DataType("FLOAT", np.float64, FLOAT_NIL, float)
STRING = DataType("STRING", object, None, str)
BOOLEAN = DataType("BOOLEAN", np.int8, BOOL_NIL, bool)
TIMESTAMP = DataType("TIMESTAMP", np.int64, INT_NIL, int)

_TYPE_ALIASES = {
    "INTEGER": "INT",
    "BIGINT": "INT",
    "SMALLINT": "INT",
    "TINYINT": "INT",
    "DOUBLE": "FLOAT",
    "REAL": "FLOAT",
    "DECIMAL": "FLOAT",
    "NUMERIC": "FLOAT",
    "VARCHAR": "STRING",
    "CHAR": "STRING",
    "TEXT": "STRING",
    "CLOB": "STRING",
    "BOOL": "BOOLEAN",
}


def is_nil(dtype: DataType, value: Any) -> bool:
    """True when *value* is the nil sentinel (or Python None) for *dtype*."""
    if value is None:
        return True
    if dtype is FLOAT:
        try:
            return math.isnan(value)
        except TypeError:
            return False
    if dtype is INT or dtype is TIMESTAMP:
        return value == INT_NIL
    if dtype is BOOLEAN:
        return value == -1
    return False


def nil_mask(dtype: DataType, values: np.ndarray) -> np.ndarray:
    """Boolean mask of nil positions for a storage array of *dtype*."""
    if dtype is FLOAT:
        return np.isnan(values)
    if dtype is INT or dtype is TIMESTAMP:
        return values == INT_NIL
    if dtype is BOOLEAN:
        return values == -1
    return np.array([v is None for v in values], dtype=bool)


def coerce_value(dtype: DataType, value: Any):
    """Coerce a Python value to *dtype* storage, mapping None to nil.

    Raises :class:`TypeMismatchError` for impossible conversions.
    """
    if value is None:
        return dtype.nil
    try:
        if dtype is INT or dtype is TIMESTAMP:
            if isinstance(value, float) and math.isnan(value):
                return INT_NIL
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and value != int(value):
                raise TypeMismatchError(
                    f"cannot store non-integral {value!r} in {dtype.name}")
            out = int(value)
            if not INT_NIL <= out <= INT_MAX:
                raise TypeMismatchError(
                    f"{value!r} is out of range for {dtype.name}")
            return out
        if dtype is FLOAT:
            return float(value)
        if dtype is BOOLEAN:
            if isinstance(value, (bool, np.bool_)):
                return np.int8(1 if value else 0)
            if value in (0, 1, -1):
                return np.int8(value)
            raise TypeMismatchError(f"cannot store {value!r} in BOOLEAN")
        if dtype is STRING:
            if isinstance(value, str):
                return value
            raise TypeMismatchError(f"cannot store {value!r} in STRING")
    except (ValueError, TypeError, OverflowError) as exc:
        raise TypeMismatchError(
            f"cannot store {value!r} in {dtype.name}") from exc
    raise TypeMismatchError(f"unsupported type {dtype!r}")


def coerce_column(dtype: DataType, values) -> np.ndarray:
    """Batch-coerce a sequence of Python values to a storage array.

    Semantically identical to ``[coerce_value(dtype, v) for v in
    values]`` (same :class:`TypeMismatchError` on impossible
    conversions, ``None`` becomes nil) but with a vectorized fast path
    for the ingest-hot case of clean homogeneous columns: one C-level
    type scan plus one array build, instead of a Python-level coercion
    call per value.
    """
    if isinstance(values, np.ndarray) and \
            values.dtype == dtype.np_dtype and not dtype.is_string:
        return values
    if not isinstance(values, (list, tuple)):
        values = list(values)
    n = len(values)
    kinds = set(map(type, values))
    try:
        if dtype is INT or dtype is TIMESTAMP:
            if kinds <= {int}:
                return np.fromiter(values, dtype=np.int64, count=n)
        elif dtype is FLOAT:
            if kinds <= {float, int}:
                return np.fromiter(values, dtype=np.float64, count=n)
            if kinds <= {float, int, type(None)}:  # None is NaN, the nil
                return np.array(values, dtype=np.float64)
    except OverflowError:
        pass    # a value out of range: the slow path names it
    if dtype is STRING and kinds <= {str, type(None)}:
        arr = np.empty(n, dtype=object)
        arr[:] = values
        return arr
    # slow path: per-value coercion with full type checking
    coerced = [coerce_value(dtype, v) for v in values]
    if dtype.is_string:
        arr = np.empty(n, dtype=object)
        arr[:] = coerced
        return arr
    return np.asarray(coerced, dtype=dtype.np_dtype)


def literal_value(value: Any) -> Any:
    """The value a SQL literal (int, float, str, bool or None) denotes
    when stored without binding: an integer must fit int64, and
    ``-9223372036854775808`` (the INT nil) is NULL — what a bound
    literal gives through :func:`coerce_value` and :func:`from_storage`."""
    if type(value) is int:
        if INT_NIL < value <= INT_MAX:
            return value
        if value == INT_NIL:
            return None
        raise TypeMismatchError(f"integer literal {value} is out of range")
    return value


def from_storage(dtype: DataType, value: Any) -> Optional[Any]:
    """Convert a storage cell back to a Python value (nil -> None)."""
    if is_nil(dtype, value):
        return None
    if dtype is BOOLEAN:
        return bool(value)
    if dtype is INT or dtype is TIMESTAMP:
        return int(value)
    if dtype is FLOAT:
        return float(value)
    return value


def common_type(a: DataType, b: DataType) -> DataType:
    """Least common type for binary operations (INT widens to FLOAT)."""
    if a == b:
        return a
    pair = {a.name, b.name}
    if pair == {"INT", "FLOAT"}:
        return FLOAT
    if pair == {"INT", "TIMESTAMP"} or pair == {"FLOAT", "TIMESTAMP"}:
        # timestamps are int64 instants; arithmetic mixes freely with INT
        return TIMESTAMP if "FLOAT" not in pair else FLOAT
    raise TypeMismatchError(f"no common type for {a.name} and {b.name}")


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python literal."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, np.integer)):
        return INT
    if isinstance(value, (float, np.floating)):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if value is None:
        return STRING  # caller refines; NULL literal is typed lazily
    raise TypeMismatchError(f"cannot infer SQL type of {value!r}")

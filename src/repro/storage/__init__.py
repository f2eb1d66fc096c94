"""Persistent storage: types, schemas, tables, catalog, persistence.

Submodules are re-exported lazily (PEP 562) because the BAT layer imports
``repro.storage.types`` while the table layer imports the BAT layer; eager
re-exports here would create an import cycle.
"""

from repro.storage.types import (BOOLEAN, FLOAT, INT, STRING, TIMESTAMP,
                                 DataType)

__all__ = [
    "BOOLEAN", "FLOAT", "INT", "STRING", "TIMESTAMP", "DataType",
    "Catalog", "StreamDef", "ColumnDef", "Schema", "Table",
    "ColumnIndex",
]

_LAZY = {
    "Catalog": ("repro.storage.catalog", "Catalog"),
    "StreamDef": ("repro.storage.catalog", "StreamDef"),
    "ColumnDef": ("repro.storage.schema", "ColumnDef"),
    "Schema": ("repro.storage.schema", "Schema"),
    "Table": ("repro.storage.table", "Table"),
    "ColumnIndex": ("repro.storage.index", "ColumnIndex"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value

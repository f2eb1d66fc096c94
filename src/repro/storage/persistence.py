"""Checkpoint persistence: save/load a catalog and the standing-query
definitions to a directory (the engine's ``data_dir`` checkpoint).

Layout::

    <dir>/catalog.json            table & stream definitions
    <dir>/<table>/<column>.npy    one npy file per column

String columns are stored as pickled object arrays; numeric columns as
raw npy. This reproduces the "new data may also enter the data warehouse
and be stored as normal" part of the paper's motivating paradigm.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from repro.errors import PersistenceError
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema

_FORMAT_VERSION = 1


def save_catalog(catalog: Catalog, directory: str) -> None:
    """Write every table (data) and stream (schema) under *directory*."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"version": _FORMAT_VERSION, "tables": [], "streams": []}
    for table in catalog.tables():
        entry = {
            "name": table.name,
            "columns": [[c.name, c.dtype.name] for c in table.schema],
            "rows": len(table),
        }
        manifest["tables"].append(entry)
        tdir = os.path.join(directory, table.name)
        os.makedirs(tdir, exist_ok=True)
        for coldef in table.schema:
            path = os.path.join(tdir, coldef.name + ".npy")
            values = table.column(coldef.name).values
            np.save(path, values, allow_pickle=coldef.dtype.is_string)
    for stream in catalog.streams():
        manifest["streams"].append({
            "name": stream.name,
            "columns": [[c.name, c.dtype.name] for c in stream.schema],
        })
    with open(os.path.join(directory, "catalog.json"), "w") as f:
        json.dump(manifest, f, indent=2)


def save_queries(queries: list, directory: str) -> None:
    """Persist continuous-query definitions (registration order matters:
    chained output-stream networks must re-register upstream first).

    Each entry is a plain dict — ``name``, ``sql``, ``output_stream``
    and the registration knobs — written atomically so a crash
    mid-checkpoint leaves the previous definition file intact.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "queries.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"version": _FORMAT_VERSION, "queries": queries}, f,
                  indent=2)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def load_queries(directory: str) -> list:
    """Read definitions written by :func:`save_queries` (empty list when
    none were ever persisted)."""
    path = os.path.join(directory, "queries.json")
    if not os.path.exists(path):
        return []
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"cannot read query definitions: {exc}") from exc
    if manifest.get("version") != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported queries version {manifest.get('version')!r}")
    return list(manifest.get("queries", []))


def load_catalog(directory: str,
                 into: Optional[Catalog] = None) -> Catalog:
    """Read a snapshot written by :func:`save_catalog`."""
    path = os.path.join(directory, "catalog.json")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot: {exc}") from exc
    if manifest.get("version") != _FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported snapshot version {manifest.get('version')!r}")
    catalog = into if into is not None else Catalog()
    for entry in manifest["tables"]:
        schema = Schema.parse([(n, t) for n, t in entry["columns"]])
        table = catalog.create_table(entry["name"], schema)
        for coldef in schema:
            col_path = os.path.join(directory, entry["name"],
                                    coldef.name + ".npy")
            try:
                values = np.load(col_path,
                                 allow_pickle=coldef.dtype.is_string)
            except OSError as exc:
                raise PersistenceError(
                    f"missing column file {col_path}") from exc
            if len(values) != entry["rows"]:
                raise PersistenceError(
                    f"{col_path}: expected {entry['rows']} rows, "
                    f"found {len(values)}")
            table.column(coldef.name).extend(values)
    for entry in manifest["streams"]:
        schema = Schema.parse([(n, t) for n, t in entry["columns"]])
        catalog.create_stream(entry["name"], schema)
    return catalog

"""Shared fixtures: a populated catalog, an engine factory, and the
thread- and process-hygiene check every test runs under."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core.engine import DataCellEngine
from repro.storage import Schema
from repro.storage.catalog import Catalog


def _datacell_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("datacell-")}


def live_children(pid: int) -> set:
    """Pids of *pid*'s children that are still running (a zombie has
    exited); empty where there is no ``/proc``."""
    out = set()
    if not os.path.isdir("/proc"):
        return out
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # gone between the listing and the read
        state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
        if int(ppid) == pid and state != "Z":
            out.add(int(entry))
    return out


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail any test that leaves a ``datacell-*`` thread alive — a
    serving loop, an I/O loop or a live receptor — or a child process
    running — a pg edge — after it returns. Each gets a second to
    finish the exit it was already told to."""
    before = _datacell_threads()
    children = live_children(os.getpid())
    yield
    deadline = time.monotonic() + 1.0
    leaked = _datacell_threads() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.01)
        leaked = {t for t in leaked if t.is_alive()}
    if leaked:
        pytest.fail("test left threads alive: "
                    + ", ".join(sorted(t.name for t in leaked)))
    orphans = live_children(os.getpid()) - children
    while orphans and time.monotonic() < deadline:
        time.sleep(0.01)
        orphans = live_children(os.getpid()) - children
    if orphans:
        pytest.fail("test left child processes running: "
                    + ", ".join(map(str, sorted(orphans))))


@pytest.fixture
def recycler_verify(monkeypatch):
    """Every engine the test builds re-executes each recycler hit and
    checks the recycled value against the fresh one."""
    init = DataCellEngine.__init__

    def verifying(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.recycler.verify = True

    monkeypatch.setattr(DataCellEngine, "__init__", verifying)


@pytest.fixture
def emp_catalog() -> Catalog:
    """Catalog with the emp/dept pair used across SQL-layer tests."""
    catalog = Catalog()
    emp = catalog.create_table("emp", Schema.parse(
        [("id", "INT"), ("dept", "STRING"), ("salary", "FLOAT")]))
    emp.insert_rows([
        (1, "a", 100.0),
        (2, "a", 200.0),
        (3, "b", 50.0),
        (4, None, None),
        (5, "b", 150.0),
    ])
    dept = catalog.create_table("dept", Schema.parse(
        [("name", "STRING"), ("city", "STRING"), ("budget", "INT")]))
    dept.insert_rows([("a", "ams", 1000), ("b", "rot", 500),
                      ("c", "utr", 250)])
    return catalog


@pytest.fixture
def engine() -> DataCellEngine:
    """A fresh engine with one sensors stream and a rooms table."""
    eng = DataCellEngine()
    eng.execute("CREATE STREAM sensors (sid INT, temp FLOAT)")
    eng.execute("CREATE TABLE rooms (sid INT, room VARCHAR(16))")
    eng.execute("INSERT INTO rooms VALUES (0,'lab'), (1,'office'), "
                "(2,'hall')")
    return eng


def run_select(catalog: Catalog, sql: str):
    """Compile + run a one-time SELECT over a catalog on the reference
    tree executor; returns rows."""
    from repro.sql import compile_select
    from tests.tree_executor import ExecutionContext, PlanExecutor

    plan = compile_select(sql, catalog)
    return PlanExecutor(ExecutionContext(catalog)).execute(plan).to_rows()


def run_mal(catalog: Catalog, sql: str):
    """Compile + run a one-time SELECT over a catalog the way the engine
    does, as a MAL program; returns rows."""
    from repro.mal.compiler import compile_plan
    from repro.mal.interpreter import MALContext, execute
    from repro.sql import compile_select

    program = compile_plan(compile_select(sql, catalog))
    return execute(program, MALContext(catalog)).to_rows()

"""ROADMAP's single oracle: the same script and the same input on a
`DataCellEngine` with a simulated clock, re-evaluation, the interpreter
and no recycler — and the comparison of delivered rows against it."""

from __future__ import annotations

import math
from typing import Any, List, Sequence

from repro.cli import DataCellShell
from repro.core.clock import SimulatedClock
from repro.core.engine import DataCellEngine

from workloads import Workload

FLOAT_REL = 1e-9


def expected_fires(w: Workload, rows: Sequence[list]) -> List[List[tuple]]:
    """Result rows of the subscribed query, one list per fire, for
    *rows* (stamped) fed in `batch_rows` batches."""
    engine = DataCellEngine(clock=SimulatedClock(), compile_plans=False,
                            recycler_enabled=False)
    shell = DataCellShell(engine=engine, out=_Discard())
    for line in w.script.splitlines():
        if line.startswith(".register"):
            name, sql = line.split(None, 2)[1:]
            mode, _, rest = sql.partition(" ")
            if mode.lower() in ("reeval", "incremental", "delta", "auto"):
                sql = rest   # the oracle always re-evaluates
            if name == w.query:   # only the subscribed query is delivered
                engine.register_continuous(sql, name=name, mode="reeval")
        else:
            shell.handle_line(line)
    sink = engine.results(w.query)
    for i in range(0, len(rows), w.batch_rows):
        engine.feed(w.stream, rows[i:i + w.batch_rows])
        engine.step(advance_ms=1)
    if engine.scheduler.failed:
        raise RuntimeError(f"oracle failed: {engine.scheduler.failed}")
    fires = [rel.to_rows() for _now, rel in sink.batches]
    engine.close()
    return fires


class _Discard:
    def write(self, _text: str) -> None:
        pass


def _typed(rows: Sequence[Sequence[Any]],
           want: Sequence[Sequence[Any]]) -> List[tuple]:
    """Delivered rows with each pg text field as the oracle's type for
    its column (the framed protocol delivers typed values already)."""
    kinds = [next((type(row[c]) for row in want if row[c] is not None), str)
             for c in range(len(want[0]))] if want else []

    def cell(value: Any, kind: type) -> Any:
        if isinstance(value, str) and kind is not str:
            try:
                return kind(value)
            except ValueError:
                return value
        return value

    return [tuple(cell(v, k) for v, k in zip(row, kinds))
            + tuple(row[len(kinds):]) for row in rows]


def _same(got: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return got == want or math.isclose(got, want, rel_tol=FLOAT_REL,
                                           abs_tol=0.0)
    return got == want


def _sort_key(row: Sequence[Any]):
    return tuple((v is None, 0 if v is None else v) for v in row)


def mismatched_rows(got: Sequence[Sequence[Any]],
                    want: Sequence[Sequence[Any]],
                    ordered: bool) -> int:
    """How many of *want*'s rows *got* fails to deliver: rows compared
    in order (`ordered`) or as a multiset, floats to 1e-9 relative."""
    got, want = _typed(got, want), [tuple(row) for row in want]
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    bad = abs(len(got) - len(want))
    for g, w in zip(got, want):
        if len(g) != len(w) or not all(_same(a, b) for a, b in zip(g, w)):
            bad += 1
    return bad

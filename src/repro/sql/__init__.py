"""SQL front-end: lexer, parser, binder, planner, optimizer.

Plans execute as MAL (:mod:`repro.mal.compiler`); there is no plan
executor here."""

from __future__ import annotations

from repro.sql.parser import parse, parse_script
from repro.sql.planner import Planner
from repro.sql.optimizer import Optimizer


def compile_select(text: str, catalog, optimize: bool = True):
    """Parse, bind, plan and (optionally) optimize one SELECT (or
    UNION) statement."""
    from repro.sql import ast

    stmt = parse(text)
    if not isinstance(stmt, (ast.SelectStmt, ast.UnionStmt)):
        raise TypeError("compile_select expects a SELECT statement")
    plan = Planner(catalog).plan(stmt)
    if optimize:
        plan = Optimizer().optimize(plan)
    return plan


__all__ = ["parse", "parse_script", "Planner", "Optimizer",
           "compile_select"]

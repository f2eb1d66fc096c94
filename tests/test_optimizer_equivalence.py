"""Optimizer soundness: rewritten plans return the same rows.

Every corpus query runs twice through the tree executor — optimized and
unoptimized — and through the MAL interpreter on the optimized plan.
Any rule that changes results fails here.
"""

import pytest

from repro.sql import compile_select
from tests.conftest import run_mal
from tests.tree_executor import ExecutionContext, PlanExecutor
from tests.test_mal import QUERY_CORPUS

EXTRA = [
    # pushdown around a LEFT JOIN must not filter the preserved side
    "SELECT e.id FROM emp e LEFT JOIN dept d ON e.dept = d.name "
    "WHERE d.budget > 600 ORDER BY e.id",
    "SELECT e.id FROM emp e LEFT JOIN dept d ON e.dept = d.name "
    "WHERE e.salary > 120 ORDER BY e.id",
    # join-key extraction from a comma join + extra residual
    "SELECT e.id FROM emp e, dept d WHERE e.dept = d.name "
    "AND e.id > d.budget / 1000 ORDER BY e.id",
    # constant folding inside every clause
    "SELECT id + (2 * 3) FROM emp WHERE salary > 25 * 4 "
    "ORDER BY id LIMIT 3",
    # pruning with expressions over several columns
    "SELECT id * salary FROM emp WHERE dept LIKE 'a%' OR id IN (5)",
]


@pytest.mark.parametrize("sql", QUERY_CORPUS + EXTRA)
def test_optimizer_preserves_results(emp_catalog, sql):
    optimized = compile_select(sql, emp_catalog, optimize=True)
    raw = compile_select(sql, emp_catalog, optimize=False)
    opt_rows = PlanExecutor(
        ExecutionContext(emp_catalog)).execute(optimized).to_rows()
    raw_rows = PlanExecutor(
        ExecutionContext(emp_catalog)).execute(raw).to_rows()
    assert opt_rows == raw_rows


@pytest.mark.parametrize("sql", QUERY_CORPUS[:8])
def test_optimizer_idempotent(emp_catalog, sql):
    """Optimizing an already-optimized plan changes nothing."""
    from repro.sql.optimizer import Optimizer

    plan = compile_select(sql, emp_catalog, optimize=True)
    before = plan.pretty()
    again = Optimizer().optimize(plan)
    assert again.pretty() == before


def test_indexes_do_not_change_results(emp_catalog):
    queries = [
        "SELECT id FROM emp WHERE id >= 3 ORDER BY id",
        "SELECT e.id, d.city FROM emp e, dept d "
        "WHERE e.dept = d.name ORDER BY e.id",
        "SELECT id FROM emp WHERE dept = 'b' AND salary > 60",
    ]
    plain = [run_mal(emp_catalog, q) for q in queries]
    emp_catalog.table("emp").create_index("id")
    emp_catalog.table("emp").create_index("dept")
    emp_catalog.table("dept").create_index("name")
    indexed = [run_mal(emp_catalog, q) for q in queries]
    assert plain == indexed
    assert all(emp_catalog.table(t).index_on(c).probes
               for t, c in (("emp", "id"), ("emp", "dept"),
                            ("dept", "name")))

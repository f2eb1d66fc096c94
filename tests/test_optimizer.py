"""Unit tests for the optimizer rules."""

import pytest

from repro.sql.expressions import BoundLiteral
from repro.sql.optimizer import Optimizer
from repro.sql.optimizer.rules import (extract_join_keys, fold_constants,
                                       prune_columns, push_down_filters)
from repro.sql.parser import parse
from repro.sql.plan import (FilterNode, JoinNode, ScanNode,
                            walk_plan)
from repro.sql.planner import Planner
from repro.storage import Schema


@pytest.fixture
def catalog(emp_catalog):
    emp_catalog.create_stream("s", Schema.parse(
        [("k", "INT"), ("v", "FLOAT")]))
    return emp_catalog


def raw_plan(catalog, sql):
    return Planner(catalog).plan_select(parse(sql))


class TestConstantFolding:
    def test_fold_arithmetic(self, catalog):
        plan = raw_plan(catalog, "SELECT id + (1 + 2) FROM emp")
        plan = fold_constants(plan)
        project = plan
        assert "3" in project.exprs[0].sql()

    def test_fold_whole_constant_expr(self, catalog):
        plan = raw_plan(catalog, "SELECT 2 * 21 FROM emp")
        plan = fold_constants(plan)
        expr = plan.exprs[0]
        assert isinstance(expr, BoundLiteral) and expr.value == 42

    def test_fold_in_filter(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT id FROM emp WHERE salary > 10 * 10")
        plan = fold_constants(plan)
        filt = [n for n in walk_plan(plan)
                if isinstance(n, FilterNode)][0]
        assert "100" in filt.predicate.sql()

    def test_fold_division_by_zero_to_null(self, catalog):
        plan = raw_plan(catalog, "SELECT 1 / 0 FROM emp")
        plan = fold_constants(plan)
        assert plan.exprs[0].value is None

    def test_aggregates_never_folded(self, catalog):
        plan = raw_plan(catalog, "SELECT count(*) FROM emp")
        fold_constants(plan)  # must not blow up on BoundAgg


class TestFilterPushdown:
    def test_single_side_conjunct_moves_below_join(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT e.id FROM emp e, dept d "
                        "WHERE e.dept = d.name AND e.salary > 100")
        plan = push_down_filters(plan)
        join = [n for n in walk_plan(plan) if isinstance(n, JoinNode)][0]
        left_filters = [n for n in walk_plan(join.left)
                        if isinstance(n, FilterNode)]
        assert any("e.salary" in f.predicate.sql() for f in left_filters)

    def test_cross_side_conjunct_joins_residual(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT e.id FROM emp e, dept d "
                        "WHERE e.dept = d.name")
        plan = push_down_filters(plan)
        join = [n for n in walk_plan(plan) if isinstance(n, JoinNode)][0]
        assert join.residual is not None
        # the filter above the join disappeared entirely
        assert not isinstance(plan.child, FilterNode) or \
            "dept" not in plan.child.predicate.sql()

    def test_filter_above_single_scan_untouched(self, catalog):
        plan = raw_plan(catalog, "SELECT id FROM emp WHERE salary > 1")
        plan = push_down_filters(plan)
        assert isinstance(plan.child, FilterNode)


class TestJoinKeyExtraction:
    def test_residual_equality_promoted(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT e.id FROM emp e, dept d "
                        "WHERE e.dept = d.name")
        plan = push_down_filters(plan)
        plan = extract_join_keys(plan)
        join = [n for n in walk_plan(plan) if isinstance(n, JoinNode)][0]
        assert join.left_key is not None
        assert join.residual is None

    def test_extra_conditions_stay_residual(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT e.id FROM emp e, dept d "
                        "WHERE e.dept = d.name AND e.id > d.budget")
        plan = push_down_filters(plan)
        plan = extract_join_keys(plan)
        join = [n for n in walk_plan(plan) if isinstance(n, JoinNode)][0]
        assert join.left_key is not None
        assert join.residual is not None

    def test_existing_key_not_replaced(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT e.id FROM emp e JOIN dept d "
                        "ON e.dept = d.name")
        join_before = [n for n in walk_plan(plan)
                       if isinstance(n, JoinNode)][0]
        key_before = join_before.left_key
        extract_join_keys(plan)
        assert join_before.left_key is key_before


class TestColumnPruning:
    def test_scan_needed_columns(self, catalog):
        plan = raw_plan(catalog, "SELECT id FROM emp WHERE salary > 1")
        plan = prune_columns(plan)
        scan = [n for n in walk_plan(plan) if isinstance(n, ScanNode)][0]
        assert sorted(scan.needed) == ["emp.id", "emp.salary"]

    def test_join_keys_counted(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT e.id FROM emp e JOIN dept d "
                        "ON e.dept = d.name")
        plan = prune_columns(plan)
        escan = [n for n in walk_plan(plan) if isinstance(n, ScanNode)
                 and n.alias == "e"][0]
        assert "e.dept" in escan.needed

    def test_aggregate_args_counted(self, catalog):
        plan = raw_plan(catalog,
                        "SELECT dept, sum(salary) FROM emp GROUP BY dept")
        plan = prune_columns(plan)
        scan = [n for n in walk_plan(plan) if isinstance(n, ScanNode)][0]
        assert sorted(scan.needed) == ["emp.dept", "emp.salary"]

    def test_star_keeps_all(self, catalog):
        plan = raw_plan(catalog, "SELECT * FROM emp")
        plan = prune_columns(plan)
        scan = [n for n in walk_plan(plan) if isinstance(n, ScanNode)][0]
        assert len(scan.needed) == 3


class TestPipeline:
    def test_default_rules_applied_in_order(self, catalog):
        opt = Optimizer()
        opt.optimize(raw_plan(catalog, "SELECT id FROM emp"))
        assert opt.applied == ["fold_constants", "push_down_filters",
                               "extract_join_keys", "prune_columns"]

    def test_custom_rules(self, catalog):
        opt = Optimizer(rules=[fold_constants])
        opt.optimize(raw_plan(catalog, "SELECT id FROM emp"))
        assert opt.applied == ["fold_constants"]

    def test_optimized_plan_still_executes(self, catalog):
        from tests.tree_executor import ExecutionContext, PlanExecutor

        plan = Optimizer().optimize(raw_plan(
            catalog, "SELECT e.id FROM emp e, dept d "
                     "WHERE e.dept = d.name AND e.salary >= 100 "
                     "ORDER BY e.id"))
        rows = PlanExecutor(ExecutionContext(catalog)).execute(plan)
        assert rows.to_rows() == [(1,), (2,), (5,)]

"""Unit tests for MAL programs, the compiler and the interpreter."""

import pytest

from repro.errors import MALError
from repro.mal.compiler import compile_plan
from repro.mal.interpreter import MALContext, execute
from repro.mal.program import Const, Instruction, MALProgram, Var
from repro.sql import compile_select
from repro.storage import Schema
from tests.tree_executor import ExecutionContext, PlanExecutor

QUERY_CORPUS = [
    "SELECT id FROM emp",
    "SELECT id, salary FROM emp WHERE salary > 60",
    "SELECT id FROM emp WHERE salary > 60 AND dept = 'a'",
    "SELECT id FROM emp WHERE dept IS NULL",
    "SELECT id FROM emp WHERE dept LIKE 'a%' OR id IN (3, 5)",
    "SELECT id * 2 + 1, salary / 2 FROM emp",
    "SELECT upper(dept), abs(-id) FROM emp WHERE dept IS NOT NULL",
    "SELECT CASE WHEN salary > 100 THEN 'hi' ELSE 'lo' END FROM emp "
    "WHERE salary IS NOT NULL",
    "SELECT dept, count(*), sum(salary), avg(salary), min(id), "
    "max(salary) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT count(*), sum(id) FROM emp",
    "SELECT count(DISTINCT dept) FROM emp",
    "SELECT dept, count(*) FROM emp GROUP BY dept "
    "HAVING count(*) > 1 ORDER BY count(*) DESC",
    "SELECT e.id, d.city FROM emp e, dept d WHERE e.dept = d.name "
    "ORDER BY e.id",
    "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name "
    "AND d.budget > 600",
    "SELECT e.id, d.name FROM emp e CROSS JOIN dept d "
    "ORDER BY e.id, d.name LIMIT 4",
    "SELECT DISTINCT dept FROM emp",
    "SELECT id FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1",
    "SELECT CAST(salary AS INT) FROM emp WHERE id = 1",
    "SELECT e.id, d.city FROM emp e LEFT JOIN dept d "
    "ON e.dept = d.name ORDER BY e.id",
    "SELECT id FROM emp WHERE dept IN (SELECT name FROM dept) "
    "ORDER BY id",
    "SELECT id FROM emp WHERE dept NOT IN "
    "(SELECT name FROM dept WHERE city = 'ams') ORDER BY id",
    "SELECT dept FROM emp UNION SELECT name FROM dept ORDER BY 1",
    "SELECT id FROM emp WHERE id < 3 UNION ALL "
    "SELECT budget FROM dept ORDER BY 1 LIMIT 4",
    "SELECT dept, stddev(salary), variance(salary) FROM emp "
    "GROUP BY dept ORDER BY dept",
]


class TestProgramModel:
    def test_instruction_render_single(self):
        instr = Instruction(["X_1"], "sql.bind", [Const("t"), Const("a")])
        assert instr.render() == 'X_1 := sql.bind("t", "a");'

    def test_instruction_render_multi(self):
        instr = Instruction(["X_1", "X_2"], "algebra.join",
                            [Var("A"), Var("B")])
        assert instr.render() == "(X_1, X_2) := algebra.join(A, B);"

    def test_instruction_render_no_result(self):
        instr = Instruction([], "basket.lock", [Const("s")])
        assert instr.render() == 'basket.lock("s");'

    def test_comment_rendered(self):
        instr = Instruction([], "basket.lock", [Const("s")], comment="c")
        assert instr.render().endswith("# c")

    def test_opcode_must_be_dotted(self):
        with pytest.raises(MALError):
            Instruction([], "nodot", [])

    def test_fresh_variables_unique(self):
        prog = MALProgram()
        assert prog.fresh().name != prog.fresh().name

    def test_pretty_has_function_wrapper(self):
        prog = MALProgram("user.q")
        prog.emit("sql.bind", Const("t"), Const("a"))
        text = prog.pretty()
        assert text.startswith("function user.q();")
        assert text.endswith("end user.q;")

    def test_factory_kind_renders_factory(self):
        prog = MALProgram("datacell.q", kind="factory")
        assert prog.pretty().startswith("factory datacell.q();")

    def test_copy_independent(self):
        prog = MALProgram()
        prog.emit("sql.bind", Const("t"), Const("a"))
        clone = prog.copy()
        clone.emit("sql.bind", Const("t"), Const("b"))
        assert len(prog) == 1 and len(clone) == 2

    def test_count_module(self):
        prog = MALProgram()
        prog.emit("sql.bind", Const("t"), Const("a"))
        prog.emit("algebra.thetaselect", Var("X_1"), Const(1), Const(">"))
        assert prog.count_module("sql") == 1
        assert prog.count_module("algebra") == 1

    def test_const_repr(self):
        assert repr(Const("x")) == '"x"'
        assert repr(Const(None)) == "nil"
        assert repr(Const(True)) == "true"
        assert repr(Const(3)) == "3"


class TestCompilerOutput:
    def test_select_compiles_to_thetaselect(self, emp_catalog):
        emp_catalog.create_stream("s", Schema.parse([("k", "INT")]))
        plan = compile_select("SELECT k FROM s WHERE k > 60", emp_catalog)
        prog = compile_plan(plan)
        assert "algebra.thetaselect" in prog.opcodes()
        assert "algebra.projection" in prog.opcodes()
        assert prog.opcodes()[-1] == "sql.resultSet"
        # over a stored column the select probes an index when one exists
        plan = compile_select("SELECT id FROM emp WHERE salary > 60",
                              emp_catalog)
        assert "algebra.indexselect" in compile_plan(plan).opcodes()

    def test_complex_predicate_uses_mask(self, emp_catalog):
        plan = compile_select(
            "SELECT id FROM emp WHERE salary > id", emp_catalog)
        prog = compile_plan(plan)
        assert "algebra.maskselect" in prog.opcodes()

    def test_join_opcode(self, emp_catalog):
        plan = compile_select(
            "SELECT e.id FROM emp e, dept d WHERE e.dept = d.name "
            "AND d.budget > 300", emp_catalog)
        prog = compile_plan(plan)
        assert "algebra.join" in prog.opcodes()
        # a bare stored column on the build side may be index-probed
        plan = compile_select(
            "SELECT e.id FROM emp e, dept d WHERE e.dept = d.name",
            emp_catalog)
        assert "algebra.indexjoin" in compile_plan(plan).opcodes()

    def test_group_aggregate_opcodes(self, emp_catalog):
        plan = compile_select(
            "SELECT dept, sum(salary) FROM emp GROUP BY dept",
            emp_catalog)
        ops = compile_plan(plan).opcodes()
        assert "group.subgroup" in ops and "aggr.subsum" in ops


class TestInterpreter:
    def test_unknown_opcode(self, emp_catalog):
        prog = MALProgram()
        prog.emit("bogus.op")
        with pytest.raises(MALError, match="unknown opcode"):
            execute(prog, MALContext(emp_catalog))

    def test_unbound_variable(self, emp_catalog):
        prog = MALProgram()
        prog.append(Instruction(["Y"], "algebra.projection",
                                [Var("MISSING"), Var("ALSO")]))
        with pytest.raises(MALError, match="unbound"):
            execute(prog, MALContext(emp_catalog))

    def test_result_arity_mismatch(self, emp_catalog):
        prog = MALProgram()
        x = prog.emit("sql.bind", Const("emp"), Const("id"))
        prog.append(Instruction(["A", "B"], "sql.bind",
                                [Const("emp"), Const("id")]))
        with pytest.raises(MALError, match="results"):
            execute(prog, MALContext(emp_catalog))

    def test_resolve_unknown_source(self, emp_catalog):
        prog = MALProgram()
        prog.emit("sql.bind", Const("nope"), Const("x"))
        with pytest.raises(MALError):
            execute(prog, MALContext(emp_catalog))


class TestEquivalence:
    """The MAL path must agree with the tree executor on every query."""

    @pytest.mark.parametrize("sql", QUERY_CORPUS)
    def test_corpus(self, emp_catalog, sql):
        plan = compile_select(sql, emp_catalog)
        tree = PlanExecutor(
            ExecutionContext(emp_catalog)).execute(plan).to_rows()
        mal = execute(compile_plan(plan),
                      MALContext(emp_catalog)).to_rows()
        assert tree == mal

    @pytest.mark.parametrize("sql", QUERY_CORPUS[:6])
    def test_unoptimized_plans_agree_too(self, emp_catalog, sql):
        plan = compile_select(sql, emp_catalog, optimize=False)
        tree = PlanExecutor(
            ExecutionContext(emp_catalog)).execute(plan).to_rows()
        mal = execute(compile_plan(plan),
                      MALContext(emp_catalog)).to_rows()
        assert tree == mal

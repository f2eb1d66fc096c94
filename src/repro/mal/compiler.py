"""Logical plan -> MAL program compiler.

Mirrors MonetDB's SQL-to-MAL code generation closely enough for the
DataCell story: scans become ``sql.bind`` (or ``basket.bind`` for
streams), selections become ``algebra.thetaselect`` / ``algebra.select``
with candidate lists, late reconstruction is explicit
``algebra.projection`` instructions, and the program ends in
``sql.resultSet``. The DataCell rewriter then edits this program.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import MALError
from repro.mal.program import Const, MALProgram, Var
from repro.sql.expressions import (BoundAgg, BoundArith, BoundCase,
                                   BoundCast, BoundColumn, BoundCompare,
                                   BoundExpr, BoundFunc, BoundInList,
                                   BoundIsNull, BoundLike, BoundLiteral,
                                   BoundLogical, BoundNeg, BoundNot)
from repro.sql.plan import (AggregateNode, DistinctNode, FilterNode,
                            JoinNode, LimitNode, PlanNode, ProjectNode,
                            ScanNode, SortNode, StreamScanNode,
                            UnionNode)
from repro.sql.planner import split_conjuncts

_CMP_NAMES = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le",
              ">": "gt", ">=": "ge"}
_ARITH_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod"}


class _Cols:
    """Aligned column environment for one plan subtree."""

    def __init__(self, mapping: Dict[str, Var]):
        self.mapping = dict(mapping)

    def var(self, key: str) -> Var:
        try:
            return self.mapping[key]
        except KeyError:
            raise MALError(f"MAL compile: no column {key!r}; have "
                           f"{sorted(self.mapping)}") from None

    def anchor(self) -> Var:
        if not self.mapping:
            raise MALError("MAL compile: empty column environment")
        return next(iter(self.mapping.values()))

    def items(self):
        return self.mapping.items()


class MALCompiler:
    """Compiles optimized logical plans to :class:`MALProgram`."""

    def __init__(self):
        self.program: Optional[MALProgram] = None
        self.inputs: Dict[int, Tuple[str, Sequence[str]]] = {}

    def compile(self, plan: PlanNode, name: str = "user.s0",
                inputs: Optional[Dict[int, Tuple[str, Sequence[str]]]]
                = None, all_columns: bool = False) -> MALProgram:
        """Compile *plan*; the result set holds ``plan.schema.names``.

        *inputs* maps ``id(node)`` of chosen subtrees to ``(source,
        column keys)``: such a subtree is not compiled, its columns are
        bound by ``sql.bind(source, key)`` from the context's
        ``stream_reader`` — how incremental mode feeds a plan fragment
        its cached pieces. With *all_columns* the result set holds every
        column the root produces instead (a pruned scan produces fewer
        than its schema names).
        """
        self.program = MALProgram(name, kind="query")
        self.inputs = inputs or {}
        cols = self._node(plan)
        names = list(cols.mapping) if all_columns else plan.schema.names
        args: List = [Const(tuple(names))]
        args.extend(cols.var(n) for n in names)
        self.program.emit("sql.resultSet", *args, results=0,
                          comment="deliver result to client")
        return self.program

    # -- plan dispatch ---------------------------------------------------

    def _node(self, node: PlanNode) -> _Cols:
        bound = self.inputs.get(id(node))
        if bound is not None:
            source, keys = bound
            return _Cols({key: self.program.emit(
                "sql.bind", Const(source), Const(key),
                comment=f"{key} from {source}") for key in keys})
        if isinstance(node, ScanNode):
            return self._scan(node, "sql.bind", node.table_name)
        if isinstance(node, StreamScanNode):
            return self._scan(node, "sql.bind", node.stream_name,
                              comment="stream read as one-time query")
        if isinstance(node, FilterNode):
            return self._filter(node)
        if isinstance(node, ProjectNode):
            return self._project(node)
        if isinstance(node, JoinNode):
            return self._join(node)
        if isinstance(node, AggregateNode):
            return self._aggregate(node)
        if isinstance(node, SortNode):
            return self._sort(node)
        if isinstance(node, LimitNode):
            return self._limit(node)
        if isinstance(node, DistinctNode):
            return self._distinct(node)
        if isinstance(node, UnionNode):
            return self._union(node)
        raise MALError(f"cannot compile plan node {node!r}")

    def _union(self, node: UnionNode) -> _Cols:
        branch_cols = [self._node(child) for child in node.children]
        names = node.schema.names
        mapping: Dict[str, Var] = {}
        for i, name in enumerate(names):
            merged = branch_cols[0].var(node.children[0].schema.names[i])
            for child, cols in zip(node.children[1:], branch_cols[1:]):
                other = cols.var(child.schema.names[i])
                merged = self.program.emit(
                    "bat.concat", merged, other,
                    comment=f"union all column {name}")
            mapping[name] = merged
        return _Cols(mapping)

    def _scan(self, node, opcode: str, source: str,
              comment: str = "") -> _Cols:
        keys = node.needed if node.needed is not None \
            else node.schema.names
        if not keys:  # always bind at least one column as the row anchor
            keys = [node.schema.names[0]]
        mapping = {}
        for key in keys:
            bare = key.split(".", 1)[1]
            mapping[key] = self.program.emit(
                opcode, Const(source), Const(bare), comment=comment)
        return _Cols(mapping)

    # -- filter -----------------------------------------------------------

    def _filter(self, node: FilterNode) -> _Cols:
        cols = self._node(node.child)
        cand = None
        rest: List[BoundExpr] = []
        for conj in split_conjuncts(node.predicate):
            simple = self._simple_theta(conj)
            if simple is not None:
                key, op, value = simple
                args = [cols.var(key)]
                if cand is not None:
                    args.append(cand)
                args.extend([Const(value), Const(op)])
                column = self._table_column(node.child, key)
                if column is None:
                    cand = self.program.emit(
                        "algebra.thetaselect", *args,
                        comment=f"select {conj.sql()}")
                else:
                    cand = self.program.emit(
                        "algebra.indexselect", *map(Const, column),
                        *args, comment=f"select {conj.sql()} "
                                       f"(index probe when indexed)")
            else:
                rest.append(conj)
        if rest:
            current = _Cols(dict(cols.items()))
            if cand is not None:
                current = self._reconstruct(current, cand)
                cols = current
                cand = None
            mask = None
            for conj in rest:
                mask = self._expr(conj, cols)
                cand = self.program.emit(
                    "algebra.maskselect", mask,
                    *( [cand] if cand is not None else [] ),
                    comment=f"select {conj.sql()}")
                cols = self._reconstruct(cols, cand)
                cand = None
            return cols
        if cand is None:
            return cols
        return self._reconstruct(cols, cand)

    @staticmethod
    def _simple_theta(conj: BoundExpr
                      ) -> Optional[Tuple[str, str, object]]:
        if (isinstance(conj, BoundCompare)
                and isinstance(conj.left, BoundColumn)
                and isinstance(conj.right, BoundLiteral)
                and conj.right.value is not None):
            return (conj.left.key, conj.op, conj.right.value)
        if (isinstance(conj, BoundCompare)
                and isinstance(conj.right, BoundColumn)
                and isinstance(conj.left, BoundLiteral)
                and conj.left.value is not None):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                    "==": "==", "!=": "!="}
            return (conj.right.key, flip[conj.op], conj.left.value)
        return None

    def _table_column(self, node: PlanNode, key: str
                      ) -> Optional[Tuple[str, str]]:
        """``(table, column)`` when column *key* comes straight from a
        table scan — a bare stored column an index may serve."""
        if not isinstance(node, ScanNode) or id(node) in self.inputs:
            return None
        prefix = node.alias + "."
        if not key.startswith(prefix):
            return None
        return node.table_name, key[len(prefix):]

    def _reconstruct(self, cols: _Cols, cand: Var) -> _Cols:
        """Late tuple reconstruction of every live column."""
        mapping = {}
        for key, var in cols.items():
            mapping[key] = self.program.emit(
                "algebra.projection", cand, var,
                comment=f"reconstruct {key}")
        return _Cols(mapping)

    # -- project ------------------------------------------------------------

    def _project(self, node: ProjectNode) -> _Cols:
        cols = self._node(node.child)
        mapping = {}
        for expr, name in zip(node.exprs, node.names):
            mapping[name] = self._expr(expr, cols)
        return _Cols(mapping)

    # -- join -----------------------------------------------------------------

    def _join(self, node: JoinNode) -> _Cols:
        left = self._node(node.left)
        right = self._node(node.right)
        if node.join_type in ("semi", "anti"):
            lkey = self._expr(node.left_key, left)
            rkey = self._expr(node.right_key, right)
            cand = self.program.emit(
                f"algebra.{node.join_type}join", lkey, rkey,
                comment=f"{node.join_type} join on "
                        f"{node.left_key.sql()} = {node.right_key.sql()}")
            return self._reconstruct(left, cand)
        outer = node.join_type == "left"
        if node.left_key is None:
            lcand, rcand = self.program.emit(
                "algebra.crossproduct", left.anchor(), right.anchor(),
                results=2, comment="cross product")
        else:
            lkey = self._expr(node.left_key, left)
            rkey = self._expr(node.right_key, right)
            on = f"{node.left_key.sql()} = {node.right_key.sql()}"
            column = None
            if node.join_type == "inner" \
                    and isinstance(node.right_key, BoundColumn):
                column = self._table_column(node.right, node.right_key.key)
            if column is not None:
                lcand, rcand = self.program.emit(
                    "algebra.indexjoin", lkey, rkey, *map(Const, column),
                    results=2, comment=f"join on {on} (index probe when "
                                       f"indexed)")
            else:
                opcode = "algebra.leftjoin" if outer else "algebra.join"
                lcand, rcand = self.program.emit(
                    opcode, lkey, rkey, results=2,
                    comment=f"{'left outer' if outer else 'hash'} join "
                            f"on {on}")
        mapping = {}
        for key, var in left.items():
            mapping[key] = self.program.emit(
                "algebra.projection", lcand, var,
                comment=f"fetch {key} (left)")
        right_fetch = "algebra.outerprojection" if outer \
            else "algebra.projection"
        for key, var in right.items():
            mapping[key] = self.program.emit(
                right_fetch, rcand, var,
                comment=f"fetch {key} (right)")
        cols = _Cols(mapping)
        if node.residual is not None:
            mask = self._expr(node.residual, cols)
            cand = self.program.emit(
                "algebra.maskselect", mask,
                comment=f"residual {node.residual.sql()}")
            cols = self._reconstruct(cols, cand)
        return cols

    # -- aggregate ----------------------------------------------------------------

    def _aggregate(self, node: AggregateNode) -> _Cols:
        cols = self._node(node.child)
        mapping: Dict[str, Var] = {}
        if node.group_exprs:
            gids = None
            reps = None
            ngroups = None
            group_vars = [self._expr(e, cols) for e in node.group_exprs]
            for gv, ge in zip(group_vars, node.group_exprs):
                args = [gv] + ([gids] if gids is not None else [])
                gids, reps, ngroups = self.program.emit(
                    "group.subgroup", *args, results=3,
                    comment=f"group by {ge.sql()}")
            for name, gv in zip(node.group_names, group_vars):
                mapping[name] = self.program.emit(
                    "algebra.projection", reps, gv,
                    comment=f"group key {name}")
            for name, agg in zip(node.agg_names, node.aggs):
                mapping[name] = self._grouped_agg(agg, cols, gids,
                                                  ngroups, name)
        else:
            for name, agg in zip(node.agg_names, node.aggs):
                mapping[name] = self._scalar_agg(agg, cols, name)
        return _Cols(mapping)

    def _grouped_agg(self, agg: BoundAgg, cols: _Cols, gids: Var,
                     ngroups: Var, name: str) -> Var:
        if agg.op == "count" and agg.arg is None:
            return self.program.emit("aggr.subcount", gids, ngroups,
                                     comment=f"{name} := count(*)")
        arg = self._expr(agg.arg, cols)
        if agg.distinct:
            return self.program.emit(
                "aggr.subdistinct", Const(agg.op), arg, gids, ngroups,
                comment=f"{name} := {agg.sql()}")
        opcode = "aggr.subcountcol" if agg.op == "count" \
            else f"aggr.sub{agg.op}"
        return self.program.emit(
            opcode, arg, gids, ngroups,
            comment=f"{name} := {agg.sql()}")

    def _scalar_agg(self, agg: BoundAgg, cols: _Cols, name: str) -> Var:
        if agg.op == "count" and agg.arg is None:
            scalar = self.program.emit("aggr.count_rows", cols.anchor(),
                                       comment=f"{name} := count(*)")
            return self.program.emit("bat.single", Const("INT"), scalar)
        arg = self._expr(agg.arg, cols)
        if agg.distinct:
            scalar = self.program.emit("aggr.distinct_scalar",
                                       Const(agg.op), arg,
                                       comment=f"{name} := {agg.sql()}")
        else:
            scalar = self.program.emit(f"aggr.{agg.op}", arg,
                                       comment=f"{name} := {agg.sql()}")
        return self.program.emit("bat.single", Const(agg.dtype.name),
                                 scalar)

    # -- sort / limit / distinct ---------------------------------------------------

    def _sort(self, node: SortNode) -> _Cols:
        cols = self._node(node.child)
        args: List = [Const(len(node.keys))]
        for expr, desc in node.keys:
            args.append(self._expr(expr, cols))
            args.append(Const(bool(desc)))
        order = self.program.emit("algebra.sortmulti", *args,
                                  comment="order by")
        return self._reconstruct(cols, order)

    def _limit(self, node: LimitNode) -> _Cols:
        cols = self._node(node.child)
        cand = self.program.emit(
            "algebra.slicecand", cols.anchor(), Const(node.offset),
            Const(node.limit), comment="limit/offset")
        return self._reconstruct(cols, cand)

    def _distinct(self, node: DistinctNode) -> _Cols:
        cols = self._node(node.child)
        args = [var for _key, var in cols.items()]
        cand = self.program.emit("algebra.distinctcand", *args,
                                 comment="distinct")
        return self._reconstruct(cols, cand)

    # -- expressions ------------------------------------------------------------------

    def _expr(self, expr: BoundExpr, cols: _Cols) -> Var:
        if isinstance(expr, BoundColumn):
            return cols.var(expr.key)
        if isinstance(expr, BoundLiteral):
            return self.program.emit(
                "batcalc.const", Const(expr.dtype.name),
                Const(expr.value), cols.anchor())
        if isinstance(expr, BoundArith):
            op = "+" if expr.op == "||" else expr.op
            left = expr.left
            right = expr.right
            lv = self._expr(left, cols)
            rv = self._expr(right, cols)
            if expr.op == "||" or (op == "+" and expr.dtype.is_string):
                lv = self.program.emit("batcalc.cast", Const("STRING"), lv)
                rv = self.program.emit("batcalc.cast", Const("STRING"), rv)
            return self.program.emit(f"batcalc.{_ARITH_NAMES[op]}", lv, rv)
        if isinstance(expr, BoundNeg):
            return self.program.emit("batcalc.neg",
                                     self._expr(expr.operand, cols))
        if isinstance(expr, BoundCompare):
            return self.program.emit(
                f"batcalc.{_CMP_NAMES[expr.op]}",
                self._expr(expr.left, cols), self._expr(expr.right, cols))
        if isinstance(expr, BoundLogical):
            return self.program.emit(
                f"batcalc.{expr.op}", self._expr(expr.left, cols),
                self._expr(expr.right, cols))
        if isinstance(expr, BoundNot):
            return self.program.emit("batcalc.not",
                                     self._expr(expr.operand, cols))
        if isinstance(expr, BoundIsNull):
            var = self.program.emit("batcalc.isnil",
                                    self._expr(expr.operand, cols))
            if expr.negated:
                var = self.program.emit("batcalc.not", var)
            return var
        if isinstance(expr, BoundCast):
            return self.program.emit(
                "batcalc.cast", Const(expr.dtype.name),
                self._expr(expr.operand, cols))
        if isinstance(expr, BoundFunc):
            args = [self._expr(a, cols) for a in expr.args]
            return self.program.emit(f"calc.{expr.name}", *args)
        if isinstance(expr, BoundInList):
            return self.program.emit(
                "calc.inlist", self._expr(expr.operand, cols),
                Const(tuple(expr.values)), Const(expr.negated))
        if isinstance(expr, BoundLike):
            return self.program.emit(
                "calc.like", self._expr(expr.operand, cols),
                Const(expr.pattern), Const(expr.negated))
        if isinstance(expr, BoundCase):
            args: List = [Const(expr.dtype.name), Const(len(expr.whens))]
            for cond, value in expr.whens:
                args.append(self._expr(cond, cols))
                args.append(self._expr(value, cols))
            if expr.else_ is not None:
                args.append(self._expr(expr.else_, cols))
            return self.program.emit("calc.case", *args)
        if isinstance(expr, BoundAgg):
            raise MALError("aggregate outside Aggregate node")
        raise MALError(f"cannot compile expression {expr!r}")


def compile_plan(plan: PlanNode, name: str = "user.s0",
                 **options) -> MALProgram:
    """Convenience wrapper around :meth:`MALCompiler.compile`."""
    return MALCompiler().compile(plan, name, **options)


# ---------------------------------------------------------------------
# slot compilation: MALProgram -> CompiledProgram
# ---------------------------------------------------------------------
#
# A factory's MAL program fires thousands of times unchanged, yet the
# straight-line interpreter re-pays full dynamic dispatch on every
# firing: a dict probe per instruction, an isinstance() per argument
# and a dict-keyed environment read/write per variable. Analytic
# column stores separate *plan preparation* from vectorized execution;
# we do the same here. At registration each instruction is compiled
# once into a pre-bound thunk:
#
# * the opcode implementation is resolved exactly once (including the
#   lazy ``calc.*`` registrations) — a miss fails at compile time,
#   naming the opcode and plan line;
# * constants are folded into the thunk (inline literals, or a closed-
#   over tuple for non-literal payloads);
# * SSA variable names are renumbered into integer *slots* over one
#   flat register list, so the per-fire loop is
#   ``for thunk in thunks: thunk(ctx, regs)`` with each thunk doing
#   ``regs[dst] = impl(ctx, regs[a], regs[b])`` — zero dict lookups,
#   zero per-argument type tests.
#
# Structurally identical programs (the 32-standing-queries scenario)
# compile to identical slot programs, so compilations are shared
# through a canonical-form memo: each registration after the first is
# a cache hit, and the per-instruction fingerprints riding on the
# compiled steps are shared too.

import time as _time

from repro.errors import MALError as _MALError
from repro.mal.fingerprint import cached_fingerprints
from repro.mal.interpreter import lookup_opcode
from repro.mal.program import Instruction as _Instruction
from repro.storage import types as _dt


class CompiledStep:
    """One pre-bound instruction: the thunk plus recycling metadata."""

    __slots__ = ("thunk", "opcode", "line", "info", "dst", "dsts")

    def __init__(self, thunk, opcode: str, line: int, info,
                 dst: Optional[int], dsts: Optional[Tuple[int, ...]]):
        self.thunk = thunk
        self.opcode = opcode
        self.line = line
        self.info = info      # InstructionFP or None (side effects)
        self.dst = dst        # single-result slot, or None
        self.dsts = dsts      # multi-result slots, or None


class CompiledProgram:
    """A slot-compiled MAL plan: fire with :meth:`run` (and friends).

    ``thunks`` is the bare hot path; ``steps`` carries the per-
    instruction fingerprints the recycled path consults. Compiled
    programs hold no run state (registers are allocated per call), so
    one compilation is safely shared by every factory whose program is
    structurally identical.
    """

    __slots__ = ("name", "nslots", "steps", "thunks")

    def __init__(self, name: str, nslots: int,
                 steps: List[CompiledStep]):
        self.name = name
        self.nslots = nslots
        self.steps = steps
        self.thunks = [step.thunk for step in steps]

    def __len__(self) -> int:
        return len(self.steps)

    def run(self, ctx) -> Any:
        """One firing, no recycling: the specialized inner loop."""
        regs: List[Any] = [None] * self.nslots
        for thunk in self.thunks:
            thunk(ctx, regs)
        return ctx.result

    # -- recycled execution -------------------------------------------

    @staticmethod
    def _value_of(step: CompiledStep, regs: List[Any]) -> Any:
        if step.dst is not None:
            return regs[step.dst]
        return tuple(regs[d] for d in step.dsts)

    @staticmethod
    def _bind(step: CompiledStep, value: Any, regs: List[Any]) -> None:
        if step.dst is not None:
            regs[step.dst] = value
        else:
            for d, v in zip(step.dsts, value):
                regs[d] = v

    def _recycled_step(self, step: CompiledStep, ctx, regs,
                       recycler, window_ranges) -> None:
        info = step.info
        try:
            ranges = [(s,) + window_ranges[s] for s in info.streams]
        except KeyError:
            # a lineage stream this run has no window for — execute
            # without caching
            step.thunk(ctx, regs)
            return
        key = recycler.instruction_key(info.fp, ranges)
        found, value = recycler.lookup(key)
        if found:
            if recycler.verify:
                self._verify_hit(step, ctx, regs, value)
            self._bind(step, value, regs)
            return
        started = _time.perf_counter()
        step.thunk(ctx, regs)
        cost_ms = (_time.perf_counter() - started) * 1000.0
        recycler.store(key, self._value_of(step, regs), cost_ms=cost_ms)

    def _verify_hit(self, step: CompiledStep, ctx, regs,
                    cached: Any) -> None:
        from repro.core.recycler import payloads_equal

        step.thunk(ctx, regs)
        fresh = self._value_of(step, regs)
        if not payloads_equal(cached, fresh):
            raise _MALError(
                f"recycler verify failed for {step.opcode} "
                f"(line {step.line} of {self.name}): cached "
                f"{cached!r} != fresh {fresh!r}")

    def run_recycled(self, ctx, recycler,
                     window_ranges: Dict[str, tuple],
                     modes: Optional[tuple] = None) -> Any:
        """One firing consulting the recycler by slot: admitted steps
        look up their (fingerprint, window-ranges) key before invoking
        the thunk; misses execute, bind and publish.

        *modes* is the per-step admission mask (:meth:`attempt_modes`)
        the factory snapshots once per recycler ``census_version``;
        without one it is taken afresh for this firing."""
        regs: List[Any] = [None] * self.nslots
        if modes is None:
            modes = self.attempt_modes(recycler)
        for step, mode in zip(self.steps, modes):
            if mode:
                self._recycled_step(step, ctx, regs, recycler,
                                    window_ranges)
            else:
                step.thunk(ctx, regs)
        return ctx.result

    def attempt_modes(self, recycler) -> tuple:
        """Per-step admission mask for :meth:`run_recycled`, valid
        until the recycler's ``census_version`` changes."""
        return tuple(
            step.info is not None and step.info.recyclable
            and recycler.should_attempt(step.info.fp)
            for step in self.steps)

    def run_profiled(self, ctx, profile: Dict[str, List[float]],
                     recycler=None,
                     window_ranges: Optional[Dict[str, tuple]] = None,
                     modes: Optional[tuple] = None) -> Any:
        """One firing with per-opcode wall-time accounting.

        *profile* maps opcode -> ``[calls, cumulative_ms]`` and is
        owned by the calling factory (its firing lock serializes
        updates, so no extra locking here)."""
        regs: List[Any] = [None] * self.nslots
        perf = _time.perf_counter
        if recycler is None:
            modes = (False,) * len(self.steps)
        elif modes is None:
            modes = self.attempt_modes(recycler)
        for step, mode in zip(self.steps, modes):
            started = perf()
            if mode:
                self._recycled_step(step, ctx, regs, recycler,
                                    window_ranges)
            else:
                step.thunk(ctx, regs)
            elapsed_ms = (perf() - started) * 1000.0
            cell = profile.get(step.opcode)
            if cell is None:
                profile[step.opcode] = [1, elapsed_ms]
            else:
                cell[0] += 1
                cell[1] += elapsed_ms
        return ctx.result

    def __repr__(self) -> str:
        return (f"CompiledProgram({self.name}, {len(self.steps)} ops, "
                f"{self.nslots} slots)")


# literal constant types safe to inline into generated source (repr
# round-trips exactly); everything else rides in the closed-over tuple
_INLINE_TYPES = (int, float, bool, str, type(None))


def _is_literal(value) -> bool:
    if type(value) in _INLINE_TYPES:
        return True
    if type(value) in (tuple, list):
        return all(_is_literal(v) for v in value)
    return False


def _const_source(value, consts: List[Any]) -> str:
    if _is_literal(value):
        return repr(value)
    consts.append(value)
    return f"C[{len(consts) - 1}]"


# arithmetic/comparison kernels broadcast bare scalars natively, so a
# literal column whose every consumer is one of these never needs to be
# materialized
_SCALAR_FOLD_CONSUMERS = frozenset((
    "batcalc.add", "batcalc.sub", "batcalc.mul", "batcalc.div",
    "batcalc.mod", "batcalc.eq", "batcalc.ne", "batcalc.lt",
    "batcalc.le", "batcalc.gt", "batcalc.ge"))


def _fold_scalar_consts(program: MALProgram) -> Dict[str, Any]:
    """Map of ``batcalc.const`` result names safe to keep as bare scalars.

    ``batcalc.const`` materializes one literal into an n-row column on
    every firing — pure per-fire overhead when each consumer is an
    arithmetic/comparison kernel that broadcasts scalars itself. Folds
    only INT/FLOAT (and NULL) literals; a name is dropped when any
    consumer needs a real BAT (anchors, emits, grouping), when it is
    rebound, or when folding would leave a kernel with no BAT operand
    to take the row count from.
    """
    candidates: Dict[str, Any] = {}
    defined: set = set()
    for instr in program.instructions:
        for name in instr.results:
            if name in defined:
                candidates.pop(name, None)
            defined.add(name)
        if (instr.opcode != "batcalc.const" or len(instr.results) != 1
                or len(instr.args) != 3
                or not isinstance(instr.args[0], Const)
                or not isinstance(instr.args[1], Const)):
            continue
        try:
            dtype = _dt.DataType.by_name(str(instr.args[0].value))
        except Exception:
            continue
        value = instr.args[1].value
        if value is None:
            scalar: Any = None
        elif (type(value) in (int, float) and dtype is _dt.INT):
            scalar = int(value)
        elif (type(value) in (int, float) and dtype is _dt.FLOAT):
            scalar = float(value)
        else:
            continue
        candidates[instr.results[0]] = scalar
    if not candidates:
        return candidates
    for instr in program.instructions:
        used = [a.name for a in instr.args
                if isinstance(a, Var) and a.name in candidates]
        if not used:
            continue
        if instr.opcode not in _SCALAR_FOLD_CONSUMERS:
            for name in used:
                candidates.pop(name, None)
            continue
        unfolded_vars = [a for a in instr.args if isinstance(a, Var)
                         and a.name not in candidates]
        if not unfolded_vars:
            # every operand would fold away: the kernel would have no
            # BAT to broadcast against — keep these as columns
            for name in used:
                candidates.pop(name, None)
    return candidates


def _compile_fold(scalar, name: str, slot_of: Dict[str, int],
                  nslots: int):
    """Thunk for a folded literal: one register store, no kernel."""
    slot = slot_of.get(name)
    if slot is None:
        slot = slot_of[name] = nslots
        nslots += 1
    source = f"def _thunk(ctx, R):\n    R[{slot}] = {scalar!r}"
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<mal:fold:{name}>", "exec"), namespace)
    key_part = ("fold.const",
                (("c", type(scalar).__name__, repr(scalar)),), slot)
    return namespace["_thunk"], key_part, slot, nslots


def _compile_instruction(program_name: str, line: int,
                         instr: _Instruction, slot_of: Dict[str, int],
                         nslots: int):
    """Build one thunk; returns ``(thunk, key_part, dst, dsts, nslots)``.

    ``key_part`` is the instruction's contribution to the canonical
    form the compilation memo is keyed on: opcode, per-argument
    slot-or-constant tokens, and result slots — everything that shapes
    the generated code.
    """
    impl = lookup_opcode(instr.opcode, line, program_name)
    consts: List[Any] = []
    arg_src: List[str] = []
    key_args: List[tuple] = []
    for arg in instr.args:
        if isinstance(arg, Var):
            slot = slot_of.get(arg.name)
            if slot is None:
                raise MALError(
                    f"unbound variable {arg.name} in {instr.opcode} "
                    f"(line {line} of {program_name})")
            arg_src.append(f"R[{slot}]")
            key_args.append(("s", slot))
        else:
            value = arg.value if isinstance(arg, Const) else arg
            arg_src.append(_const_source(value, consts))
            if _is_literal(value):
                key_args.append(
                    ("c", type(value).__name__, repr(value)))
            else:
                # non-literal payloads (arrays, objects) have no safe
                # canonical token — a unique marker keeps this program
                # out of the sharing memo rather than risking a false
                # repr-collision hit
                key_args.append(("c*", object()))
    call = f"F(ctx, {', '.join(arg_src)})" if arg_src else "F(ctx)"

    dst = dsts = None
    results = instr.results
    if len(results) == 0:
        body = [f"    {call}"]
    elif len(results) == 1:
        name = results[0]
        slot = slot_of.get(name)
        if slot is None:
            slot = slot_of[name] = nslots
            nslots += 1
        dst = slot
        body = [f"    R[{slot}] = {call}"]
    else:
        slots = []
        for name in results:
            slot = slot_of.get(name)
            if slot is None:
                slot = slot_of[name] = nslots
                nslots += 1
            slots.append(slot)
        dsts = tuple(slots)
        body = [f"    out = {call}",
                f"    if type(out) is not tuple "
                f"or len(out) != {len(dsts)}:",
                f"        raise MALError("
                f"'{instr.opcode}: expected {len(dsts)} results')"]
        body.extend(f"    R[{slot}] = out[{i}]"
                    for i, slot in enumerate(dsts))

    source = "def _thunk(ctx, R, F=F, C=C):\n" + "\n".join(body)
    namespace = {"F": impl, "C": tuple(consts), "MALError": MALError}
    exec(compile(source, f"<mal:{program_name}:{line}>", "exec"),
         namespace)
    key_part = (instr.opcode, tuple(key_args),
                dst if dsts is None else dsts)
    return namespace["_thunk"], key_part, dst, dsts, nslots


# canonical-form memo: structurally identical programs share one
# CompiledProgram (bounded; cleared wholesale when it overflows)
_COMPILE_CACHE: Dict[tuple, CompiledProgram] = {}
_COMPILE_CACHE_MAX = 512
_COMPILE_STATS = {"compiles": 0, "cache_hits": 0, "fallbacks": 0,
                  "const_folds": 0}


def compile_or_interpret(program: MALProgram,
                         compiled: bool = True) -> Optional[CompiledProgram]:
    """Slot-compile *program* once, at registration; ``None`` means it
    runs on the interpreter. A compile failure (open opcode table,
    externally injected bindings) falls back to the interpreter rather
    than rejecting the query, and is counted."""
    if not compiled:
        return None
    try:
        return compile_program(program)
    except MALError:
        _COMPILE_STATS["fallbacks"] += 1
        return None


def compile_stats() -> Dict[str, int]:
    """Process-wide slot-compiler counters (monitor ``.interp``
    pane)."""
    return {"compiles": _COMPILE_STATS["compiles"],
            "compile_cache_hits": _COMPILE_STATS["cache_hits"],
            "compile_fallbacks": _COMPILE_STATS["fallbacks"],
            "compile_const_folds": _COMPILE_STATS["const_folds"],
            "compile_cache_entries": len(_COMPILE_CACHE)}


def compile_program(program: MALProgram) -> CompiledProgram:
    """Slot-compile *program* (memoized on its canonical form).

    Raises :class:`MALError` at compile time for unknown opcodes or
    unbound variables — callers that tolerate open-table programs
    should catch it and fall back to the interpreter.
    """
    infos = cached_fingerprints(program)
    folded = _fold_scalar_consts(program)
    fold_lines: set = set()
    slot_of: Dict[str, int] = {}
    nslots = 0
    compiled: List[tuple] = []
    key_parts: List[tuple] = []
    for line, instr in enumerate(program.instructions):
        if (instr.opcode == "batcalc.const"
                and len(instr.results) == 1
                and instr.results[0] in folded):
            thunk, key_part, dst, nslots = _compile_fold(
                folded[instr.results[0]], instr.results[0],
                slot_of, nslots)
            compiled.append((thunk, instr.opcode, line, dst, None))
            key_parts.append(key_part)
            fold_lines.add(line)
            _COMPILE_STATS["const_folds"] += 1
            continue
        thunk, key_part, dst, dsts, nslots = _compile_instruction(
            program.name, line, instr, slot_of, nslots)
        compiled.append((thunk, instr.opcode, line, dst, dsts))
        key_parts.append(key_part)
    key: Optional[tuple] = (nslots, tuple(key_parts))
    try:
        hash(key)
    except TypeError:
        key = None  # unhashable raw args: compile fresh, skip the memo
    if key is not None:
        cached = _COMPILE_CACHE.get(key)
        if cached is not None:
            _COMPILE_STATS["cache_hits"] += 1
            return cached
    steps = [CompiledStep(thunk, opcode, line,
                          None if line in fold_lines else infos[line],
                          dst, dsts)
             for thunk, opcode, line, dst, dsts in compiled]
    result = CompiledProgram(program.name, nslots, steps)
    _COMPILE_STATS["compiles"] += 1
    if key is not None:
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
            _COMPILE_CACHE.clear()
        _COMPILE_CACHE[key] = result
    return result

"""MAL program interpreter.

Executes :class:`~repro.mal.program.MALProgram` instructions against the
bulk kernel. Every plan runs as MAL: one-time queries here, standing
queries of both modes on their slot-compiled form
(:mod:`repro.mal.compiler`) — or here, when compilation is off or
fails.

The opcode table is open: the DataCell runtime registers the ``basket.*``
opcodes that bind, lock and drain stream baskets.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import MALError
from repro.mal import kernel
from repro.mal.bat import BAT, all_candidates
from repro.mal.program import Const, Instruction, MALProgram, Var
from repro.mal.relation import Relation
from repro.storage import types as dt


class MALContext:
    """Runtime bindings for one program execution.

    ``stream_reader`` resolves a stream name to the Relation the program
    should see (a full basket for one-time queries; the current window
    slice inside a factory). ``basket_hooks`` receives lock/drain/unlock
    notifications from rewritten continuous plans.
    """

    def __init__(self, catalog, stream_reader=None, basket_hooks=None):
        self.catalog = catalog
        self.stream_reader = stream_reader
        self.basket_hooks = basket_hooks
        self.result: Optional[Relation] = None
        self.emitted: List[Relation] = []

    def resolve_column(self, source: str, column: str) -> BAT:
        if self.catalog is not None and self.catalog.has_table(source):
            return self.catalog.table(source).column(column)
        if self.stream_reader is not None:
            return self.stream_reader(source).column(column)
        raise MALError(f"cannot resolve column {source}.{column}")


OpImpl = Callable[..., Any]
_OPCODES: Dict[str, OpImpl] = {}


def opcode(name: str):
    """Register an opcode implementation: ``fn(ctx, *args)``."""

    def deco(fn: OpImpl) -> OpImpl:
        _OPCODES[name] = fn
        return fn

    return deco


def lookup_opcode(name: str, line: Optional[int] = None,
                  plan: str = "") -> OpImpl:
    """Resolve *name* to its implementation, exactly once.

    ``calc.*`` opcodes are lazily backed by the scalar-function
    registry (:func:`resolve_opcode`); everything else must already be
    registered. A miss raises :class:`MALError` naming the opcode and,
    when known, the plan line it came from — both the interpreter and
    the slot compiler (:mod:`repro.mal.compiler`) resolve through
    here.
    """
    impl = _OPCODES.get(name)
    if impl is None and name.startswith("calc."):
        impl = resolve_opcode(name)
    if impl is None:
        where = f" (line {line}" + (f" of {plan})" if plan else ")") \
            if line is not None else (f" (plan {plan})" if plan else "")
        raise MALError(f"unknown opcode {name!r}{where}")
    return impl


class MALInterpreter:
    """Straight-line interpreter with a variable environment per run.

    The reference executor: it never consults the recycler, so the
    compiled (and recycled) paths are checked against it."""

    def __init__(self, ctx: MALContext):
        self.ctx = ctx

    def run(self, program: MALProgram,
            env: Optional[Dict[str, Any]] = None) -> Optional[Relation]:
        env = env if env is not None else {}
        for i, instr in enumerate(program.instructions):
            self._step(instr, env, i)
        return self.ctx.result

    def _step(self, instr: Instruction, env: Dict[str, Any],
              line: Optional[int] = None) -> None:
        self._bind(instr, self._execute(instr, env, line), env)

    def _execute(self, instr: Instruction, env: Dict[str, Any],
                 line: Optional[int] = None) -> Any:
        impl = lookup_opcode(instr.opcode, line)
        args = [self._value(a, env) for a in instr.args]
        return impl(self.ctx, *args)

    @staticmethod
    def _bind(instr: Instruction, out: Any, env: Dict[str, Any]) -> None:
        if len(instr.results) == 0:
            return
        if len(instr.results) == 1:
            env[instr.results[0]] = out
            return
        if not isinstance(out, tuple) or len(out) != len(instr.results):
            raise MALError(
                f"{instr.opcode}: expected {len(instr.results)} results")
        for name, value in zip(instr.results, out):
            env[name] = value

    @staticmethod
    def _value(arg: Any, env: Dict[str, Any]) -> Any:
        if isinstance(arg, Var):
            try:
                return env[arg.name]
            except KeyError:
                raise MALError(f"unbound variable {arg.name}") from None
        if isinstance(arg, Const):
            return arg.value
        return arg


def execute(program: MALProgram, ctx: MALContext) -> Optional[Relation]:
    """Run *program* under *ctx*; returns its result set (if any)."""
    return MALInterpreter(ctx).run(program)


# ---------------------------------------------------------------------
# opcode implementations
# ---------------------------------------------------------------------

@opcode("sql.bind")
def _sql_bind(ctx: MALContext, source: str, column: str) -> BAT:
    return ctx.resolve_column(source, column)


@opcode("basket.bind")
def _basket_bind(ctx: MALContext, stream: str, column: str) -> BAT:
    if ctx.stream_reader is None:
        raise MALError(f"no basket binding for stream {stream!r}")
    return ctx.stream_reader(stream).column(column)


@opcode("basket.lock")
def _basket_lock(ctx: MALContext, stream: str) -> None:
    if ctx.basket_hooks is not None:
        ctx.basket_hooks.lock(stream)


@opcode("basket.unlock")
def _basket_unlock(ctx: MALContext, stream: str) -> None:
    if ctx.basket_hooks is not None:
        ctx.basket_hooks.unlock(stream)


@opcode("basket.drain")
def _basket_drain(ctx: MALContext, stream: str) -> None:
    if ctx.basket_hooks is not None:
        ctx.basket_hooks.drain(stream)


@opcode("algebra.thetaselect")
def _thetaselect(ctx: MALContext, bat: BAT, *rest) -> np.ndarray:
    if len(rest) == 3:
        cand, value, op = rest
    else:
        value, op = rest
        cand = None
    return kernel.theta_select(bat, op, value, cand)


@opcode("algebra.indexselect")
def _indexselect(ctx: MALContext, table: str, column: str, bat: BAT,
                 *rest) -> np.ndarray:
    """``algebra.thetaselect`` over a table column: probes the column's
    index when the table has one that serves the comparison at run
    time (an index may be created after the plan compiled), else
    scans."""
    value, op = rest[-2:]
    positions = ctx.catalog.table(table).index_select(column, op, value)
    if positions is None:
        return _thetaselect(ctx, bat, *rest)
    if len(rest) == 3:
        return kernel.cand_intersect(rest[0], positions)
    return positions


@opcode("algebra.select")
def _select(ctx: MALContext, bat: BAT, low, high, li: bool, hi: bool,
            anti: bool) -> np.ndarray:
    return kernel.select_range(bat, low, high, li, hi, anti=anti)


@opcode("algebra.maskselect")
def _maskselect(ctx: MALContext, mask: BAT,
                cand: Optional[np.ndarray] = None) -> np.ndarray:
    return kernel.mask_select(mask, cand)


@opcode("algebra.projection")
def _projection(ctx: MALContext, cand: np.ndarray, bat: BAT) -> BAT:
    return kernel.fetch(bat, cand)


@opcode("algebra.join")
def _join(ctx: MALContext, left: BAT, right: BAT):
    return kernel.hashjoin(left, right)


@opcode("algebra.indexjoin")
def _indexjoin(ctx: MALContext, left: BAT, right: BAT, table: str,
               column: str):
    """``algebra.join`` against a bare table column: probes the column's
    hash index when one exists at run time instead of building a hash
    table per execution, else hash-joins."""
    pairs = ctx.catalog.table(table).index_join(column, left)
    return kernel.hashjoin(left, right) if pairs is None else pairs


@opcode("algebra.leftjoin")
def _leftjoin(ctx: MALContext, left: BAT, right: BAT):
    return kernel.left_outer_pairs(left, right)


@opcode("algebra.semijoin")
def _semijoin(ctx: MALContext, left: BAT, right: BAT):
    return kernel.semi_pairs(left, right, anti=False)


@opcode("algebra.antijoin")
def _antijoin(ctx: MALContext, left: BAT, right: BAT):
    return kernel.semi_pairs(left, right, anti=True)


@opcode("algebra.outerprojection")
def _outerprojection(ctx: MALContext, cand: np.ndarray, bat: BAT) -> BAT:
    return kernel.fetch_outer(bat, cand)


@opcode("bat.concat")
def _bat_concat(ctx: MALContext, a: BAT, b: BAT) -> BAT:
    out = a.copy()
    out.append_bat(b)
    return out


@opcode("algebra.crossproduct")
def _crossproduct(ctx: MALContext, left: BAT, right: BAT):
    nl, nr = len(left), len(right)
    lpos = np.repeat(np.arange(nl, dtype=np.int64), nr)
    rpos = np.tile(np.arange(nr, dtype=np.int64), nl)
    return lpos, rpos


@opcode("group.subgroup")
def _subgroup(ctx: MALContext, bat: BAT,
              prev: Optional[np.ndarray] = None):
    return kernel.subgroup(bat, prev)


@opcode("aggr.subcount")
def _subcount(ctx: MALContext, gids: np.ndarray, ngroups: int) -> BAT:
    return kernel.agg_count(gids, ngroups)


def _register_grouped(op_name: str, fn) -> None:
    @opcode(f"aggr.sub{op_name}")
    def _impl(ctx: MALContext, bat: BAT, gids: np.ndarray,
              ngroups: int) -> BAT:
        return fn(bat, gids, ngroups)


_register_grouped("sum", kernel.agg_sum)
_register_grouped("avg", kernel.agg_avg)
_register_grouped("min", kernel.agg_min)
_register_grouped("max", kernel.agg_max)
_register_grouped("stddev", kernel.agg_stddev)
_register_grouped("variance", kernel.agg_variance)


@opcode("aggr.subcountcol")
def _subcountcol(ctx: MALContext, bat: BAT, gids: np.ndarray,
                 ngroups: int) -> BAT:
    return kernel.agg_count(gids, ngroups, bat, None)


@opcode("aggr.subdistinct")
def _subdistinct(ctx: MALContext, op: str, bat: BAT, gids: np.ndarray,
                 ngroups: int) -> BAT:
    return kernel.distinct_aggregate(op, bat, gids, ngroups)


@opcode("aggr.count_rows")
def _count_rows(ctx: MALContext, bat: BAT) -> int:
    return len(bat)


def _register_scalar(op_name: str) -> None:
    @opcode(f"aggr.{op_name}")
    def _impl(ctx: MALContext, bat: BAT):
        return kernel.scalar_agg(op_name, bat)


for _name in ("count", "sum", "avg", "min", "max", "stddev",
               "variance"):
    _register_scalar(_name)


@opcode("aggr.distinct_scalar")
def _distinct_scalar(ctx: MALContext, op: str, bat: BAT):
    seen = set()
    keep: List[int] = []
    mask = bat.nil_mask()
    for i, value in enumerate(bat.values):
        if mask[i]:
            continue
        if value not in seen:
            seen.add(value)
            keep.append(i)
    sub = bat.take(np.asarray(keep, dtype=np.int64))
    return kernel.scalar_agg(op, sub)


@opcode("bat.single")
def _bat_single(ctx: MALContext, type_name: str, value) -> BAT:
    out = BAT(dt.DataType.by_name(type_name))
    out.append(value, coerce=True)
    return out


@opcode("batcalc.const")
def _batcalc_const(ctx: MALContext, type_name: str, value,
                   anchor: BAT) -> BAT:
    return kernel.const_column(dt.DataType.by_name(type_name), value,
                               len(anchor))


def _register_arith(name: str, op: str) -> None:
    @opcode(f"batcalc.{name}")
    def _impl(ctx: MALContext, a: BAT, b: BAT) -> BAT:
        return kernel.calc_arith(op, a, b)


for _n, _o in (("add", "+"), ("sub", "-"), ("mul", "*"), ("div", "/"),
               ("mod", "%")):
    _register_arith(_n, _o)


def _register_cmp(name: str, op: str) -> None:
    @opcode(f"batcalc.{name}")
    def _impl(ctx: MALContext, a: BAT, b: BAT) -> BAT:
        return kernel.calc_cmp(op, a, b)


for _n, _o in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("le", "<="),
               ("gt", ">"), ("ge", ">=")):
    _register_cmp(_n, _o)


@opcode("batcalc.neg")
def _neg(ctx: MALContext, a: BAT) -> BAT:
    return kernel.calc_neg(a)


@opcode("batcalc.and")
def _and(ctx: MALContext, a: BAT, b: BAT) -> BAT:
    return kernel.calc_and(a, b)


@opcode("batcalc.or")
def _or(ctx: MALContext, a: BAT, b: BAT) -> BAT:
    return kernel.calc_or(a, b)


@opcode("batcalc.not")
def _not(ctx: MALContext, a: BAT) -> BAT:
    return kernel.calc_not(a)


@opcode("batcalc.isnil")
def _isnil(ctx: MALContext, a: BAT) -> BAT:
    return kernel.calc_isnil(a)


@opcode("batcalc.cast")
def _cast(ctx: MALContext, type_name: str, a: BAT) -> BAT:
    return kernel.calc_cast(a, dt.DataType.by_name(type_name))


@opcode("calc.inlist")
def _inlist(ctx: MALContext, bat: BAT, values, negated: bool) -> BAT:
    from repro.sql.expressions import BoundColumn, BoundInList
    from repro.mal.relation import Relation as _Rel

    expr = BoundInList(BoundColumn("x", bat.dtype), list(values), negated)
    rel = _Rel([("x", bat)])
    return expr.evaluate(rel)


@opcode("calc.like")
def _like(ctx: MALContext, bat: BAT, pattern: str, negated: bool) -> BAT:
    from repro.sql.expressions import BoundColumn, BoundLike
    from repro.mal.relation import Relation as _Rel

    expr = BoundLike(BoundColumn("x", bat.dtype), pattern, negated)
    return expr.evaluate(_Rel([("x", bat)]))


@opcode("calc.case")
def _case(ctx: MALContext, type_name: str, nbranches: int, *rest) -> BAT:
    out_type = dt.DataType.by_name(type_name)
    pairs = [(rest[2 * i], rest[2 * i + 1]) for i in range(nbranches)]
    else_bat = rest[2 * nbranches] if len(rest) > 2 * nbranches else None
    n = len(pairs[0][0])
    result = kernel.const_column(out_type, None, n)
    values = result.values
    decided = np.zeros(n, dtype=bool)
    for cond, branch in pairs:
        take = (cond.values == 1) & ~decided
        if take.any():
            if branch.dtype != out_type:
                branch = kernel.calc_cast(branch, out_type)
            values[take] = branch.values[take]
            decided |= take
    if else_bat is not None and not decided.all():
        if else_bat.dtype != out_type:
            else_bat = kernel.calc_cast(else_bat, out_type)
        rest_mask = ~decided
        values[rest_mask] = else_bat.values[rest_mask]
    return result


@opcode("algebra.sortmulti")
def _sortmulti(ctx: MALContext, nkeys: int, *rest) -> np.ndarray:
    bats = [rest[2 * i] for i in range(nkeys)]
    descs = [rest[2 * i + 1] for i in range(nkeys)]
    return kernel.sort_positions(bats, descs)


@opcode("algebra.slicecand")
def _slicecand(ctx: MALContext, anchor: BAT, offset: int,
               limit: Optional[int]) -> np.ndarray:
    cand = all_candidates(len(anchor))
    return kernel.slice_candidates(cand, offset, limit)


@opcode("algebra.distinctcand")
def _distinctcand(ctx: MALContext, *bats: BAT) -> np.ndarray:
    return kernel.distinct(list(bats))


@opcode("sql.resultSet")
def _result_set(ctx: MALContext, names, *bats: BAT) -> None:
    rel = Relation(list(zip(names, bats)))
    ctx.result = rel
    ctx.emitted.append(rel)


@opcode("basket.emit")
def _basket_emit(ctx: MALContext, names, *bats: BAT) -> None:
    """Continuous-plan result delivery: append to the output basket.

    The factory harvests ``ctx.result`` after the run and hands it to
    the query's emitter."""
    _result_set(ctx, names, *bats)


def _dynamic_scalar_call(ctx: MALContext, name: str, *args: BAT) -> BAT:
    from repro.sql import functions as funcs

    return funcs.lookup(name).impl(*args)


def _ensure_calc(name: str) -> None:
    if name in _OPCODES:
        return
    fn_name = name.split(".", 1)[1]

    @opcode(name)
    def _impl(ctx: MALContext, *args):
        return _dynamic_scalar_call(ctx, fn_name, *args)


def resolve_opcode(name: str) -> Optional[OpImpl]:
    """Lazily register ``calc.*`` opcodes backed by scalar functions;
    returns the registered implementation (None for non-calc names
    that are not registered)."""
    if name.startswith("calc.") and name not in _OPCODES:
        _ensure_calc(name)
    return _OPCODES.get(name)

"""Bulk (vectorized) relational operators over BATs.

This module is the reproduction of MonetDB's operator kernel: every
operator consumes whole columns and produces whole columns, the
bulk-processing model the paper contrasts with tuple-at-a-time volcano
engines. Selections produce *candidate lists* (sorted int64 position
arrays) that later operators use for late tuple reconstruction — these are
exactly the intermediates DataCell caches for incremental window
processing.

Boolean results use MonetDB-style three-valued logic encoded in int8:
``1`` true, ``0`` false, ``-1`` unknown (nil). :func:`mask_select` turns a
boolean column into a candidate list by keeping only true positions.
"""

from __future__ import annotations

import itertools
import re
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import KernelError
from repro.mal.bat import BAT, all_candidates, empty_candidates
from repro.storage import types as dt

Candidates = np.ndarray
Scalar = Union[int, float, str, bool, None]

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------

def select_range(bat: BAT, low: Scalar, high: Scalar,
                 low_inclusive: bool = True, high_inclusive: bool = True,
                 cand: Optional[Candidates] = None,
                 anti: bool = False) -> Candidates:
    """Range selection: positions whose value lies in [low, high].

    ``None`` bounds are unbounded. Nil values never qualify (and never
    qualify for ``anti`` either, per SQL comparison semantics).
    """
    values = bat.values
    if cand is not None:
        values = values[cand]
    valid = ~dt.nil_mask(bat.dtype, values)
    keep = valid.copy()
    if low is not None:
        low = dt.coerce_value(bat.dtype, low)
        keep &= _compare_array(bat.dtype, values,
                               ">=" if low_inclusive else ">", low) == 1
    if high is not None:
        high = dt.coerce_value(bat.dtype, high)
        keep &= _compare_array(bat.dtype, values,
                               "<=" if high_inclusive else "<", high) == 1
    if anti:
        keep = valid & ~keep
    positions = np.nonzero(keep)[0].astype(np.int64)
    if cand is not None:
        positions = cand[positions]
    return positions


def theta_select(bat: BAT, op: str, value: Scalar,
                 cand: Optional[Candidates] = None) -> Candidates:
    """Selection with a single comparison operator against a constant."""
    if op not in _CMP_OPS:
        raise KernelError(f"theta_select: bad operator {op!r}")
    if value is None:
        return empty_candidates()
    value = dt.coerce_value(bat.dtype, value)
    values = bat.values
    if cand is not None:
        values = values[cand]
    mask = _compare_array(bat.dtype, values, op, value) == 1
    positions = np.nonzero(mask)[0].astype(np.int64)
    if cand is not None:
        positions = cand[positions]
    return positions


def mask_select(mask_bat: BAT, cand: Optional[Candidates] = None) -> Candidates:
    """Positions where a BOOLEAN column is true (1); nil/false dropped."""
    if mask_bat.dtype != dt.BOOLEAN:
        raise KernelError("mask_select expects a BOOLEAN BAT")
    mask = mask_bat.values == 1
    positions = np.nonzero(mask)[0].astype(np.int64)
    if cand is not None:
        positions = cand[positions]
    return positions


def nil_select(bat: BAT, cand: Optional[Candidates] = None,
               anti: bool = False) -> Candidates:
    """Positions whose value IS NULL (or IS NOT NULL with ``anti``)."""
    values = bat.values
    if cand is not None:
        values = values[cand]
    mask = dt.nil_mask(bat.dtype, values)
    if anti:
        mask = ~mask
    positions = np.nonzero(mask)[0].astype(np.int64)
    if cand is not None:
        positions = cand[positions]
    return positions


def in_select(bat: BAT, needles: Sequence[Scalar],
              cand: Optional[Candidates] = None,
              anti: bool = False) -> Candidates:
    """Positions whose value appears in *needles* (SQL IN list)."""
    values = bat.values
    if cand is not None:
        values = values[cand]
    coerced = [dt.coerce_value(bat.dtype, n) for n in needles
               if n is not None]
    valid = ~dt.nil_mask(bat.dtype, values)
    if bat.dtype.is_string:
        needle_set = set(coerced)
        mask = np.array([v in needle_set for v in values], dtype=bool)
    else:
        mask = np.isin(values, np.asarray(coerced, dtype=bat.dtype.np_dtype))
    mask &= valid
    if anti:
        mask = valid & ~mask
    positions = np.nonzero(mask)[0].astype(np.int64)
    if cand is not None:
        positions = cand[positions]
    return positions


def like_select(bat: BAT, pattern: str, cand: Optional[Candidates] = None,
                anti: bool = False) -> Candidates:
    """SQL LIKE selection over a STRING column (% and _ wildcards)."""
    if not bat.dtype.is_string:
        raise KernelError("like_select expects a STRING BAT")
    rx = like_to_regex(pattern)
    values = bat.values
    if cand is not None:
        values = values[cand]
    mask = np.array(
        [v is not None and rx.match(v) is not None for v in values],
        dtype=bool)
    if anti:
        valid = np.array([v is not None for v in values], dtype=bool)
        mask = valid & ~mask
    positions = np.nonzero(mask)[0].astype(np.int64)
    if cand is not None:
        positions = cand[positions]
    return positions


def like_to_regex(pattern: str) -> "re.Pattern":
    """Compile a SQL LIKE pattern into an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


# ---------------------------------------------------------------------
# projection / reconstruction
# ---------------------------------------------------------------------

def fetch(bat: BAT, cand: Candidates) -> BAT:
    """Late tuple reconstruction (MonetDB ``algebra.projection``).

    Gathers the values of *bat* at candidate positions into a fresh BAT.
    """
    return bat.take(np.asarray(cand, dtype=np.int64))


def const_column(dtype: dt.DataType, value: Scalar, n: int) -> BAT:
    """A BAT repeating one constant n times (for literal projections)."""
    value = dt.coerce_value(dtype, value)
    if dtype.is_string:
        out = BAT(dtype)
        out.extend([value] * n)
        return out
    return BAT.adopt_array(dtype, np.full(n, value, dtype=dtype.np_dtype))


# ---------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------

class Runs(NamedTuple):
    """One join side sorted once: ``keys`` are its distinct values in
    ascending order, and the rows holding ``keys[k]`` are
    ``positions[starts[k]:starts[k] + counts[k]]`` in their input order.
    Equi-joins and column indexes probe this with one ``searchsorted``.
    """
    keys: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    positions: np.ndarray


def sort_runs(values: np.ndarray, positions: np.ndarray) -> Runs:
    """Runs of non-nil *values*, each row labelled by its *positions*
    entry (a stable sort, so equal keys keep their input order)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    head = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.diff(starts, append=len(ordered))
    return Runs(ordered[starts], starts, counts, positions[order])


def _search(keys: np.ndarray, values: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """(run index, found) of each of *values* among the sorted *keys*."""
    idx = np.searchsorted(keys, values)
    if not len(keys):
        return idx, np.zeros(len(values), dtype=bool)
    return idx, keys[np.minimum(idx, len(keys) - 1)] == values


def probe_runs(runs: Runs, values: np.ndarray, positions: np.ndarray
               ) -> Tuple[Candidates, Candidates]:
    """Equi-join non-nil *values* (labelled by *positions*) against
    *runs*: (probe, build) positions in probe order, each probe row's
    matches in run order."""
    idx, found = _search(runs.keys, values)
    idx = idx[found]
    first = runs.starts[idx]
    if len(runs.keys) == len(runs.positions):     # unique build keys
        return positions[found], runs.positions[first]
    # the k-th output row is offset k - (its probe row's first output
    # row) into that row's run
    counts = runs.counts[idx]
    shift = np.repeat(first - np.cumsum(counts) + counts, counts)
    return (np.repeat(positions[found], counts),
            runs.positions[shift + np.arange(len(shift))])


def _as_int64(values: np.ndarray, valid: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Integer storage as int64; a float keeps only the integral values
    inside int64's range (no other float equals an integer)."""
    if values.dtype.kind != "f":
        return values.astype(np.int64, copy=False), valid
    valid = valid & (np.floor(values) == values) \
        & (values >= -2.0 ** 63) & (values < 2.0 ** 63)
    return np.where(valid, values, 0).astype(np.int64), valid


def _join_keys(left: BAT, lpos: Candidates, right: BAT, rpos: Candidates
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Comparable non-nil keys of both sides with their positions:
    ``(lkeys, lpos, rkeys, rpos)``. Two different numeric storage types
    meet in int64, so INT × FLOAT compares exactly, never through a
    lossy float64 cast; a string never equals a number."""
    lvals, rvals = left.values[lpos], right.values[rpos]
    lvalid = ~dt.nil_mask(left.dtype, lvals)
    rvalid = ~dt.nil_mask(right.dtype, rvals)
    if left.dtype.is_string != right.dtype.is_string:
        lvalid[:] = False
    elif lvals.dtype != rvals.dtype:
        lvals, lvalid = _as_int64(lvals, lvalid)
        rvals, rvalid = _as_int64(rvals, rvalid)
    return lvals[lvalid], lpos[lvalid], rvals[rvalid], rpos[rvalid]


def hashjoin(left: BAT, right: BAT,
             lcand: Optional[Candidates] = None,
             rcand: Optional[Candidates] = None
             ) -> Tuple[Candidates, Candidates]:
    """Equi-join two columns; returns matching (left, right) positions.

    Sorts the smaller non-nil side into :class:`Runs` and probes it with
    the other side's keys in one ``searchsorted``. Nil never matches
    anything (including other nils), per SQL semantics. Output pairs are
    ordered by left position, then right position, matching MonetDB's
    join result ordering; probing with the left side yields that order
    directly (candidate lists ascend), so only a left build side is
    re-sorted.
    """
    lpos = lcand if lcand is not None else all_candidates(len(left))
    rpos = rcand if rcand is not None else all_candidates(len(right))
    lkeys, lpos, rkeys, rpos = _join_keys(left, lpos, right, rpos)
    if len(lkeys) >= len(rkeys):
        return probe_runs(sort_runs(rkeys, rpos), lkeys, lpos)
    rres, lres = probe_runs(sort_runs(lkeys, lpos), rkeys, rpos)
    order = np.lexsort((rres, lres))
    return lres[order], rres[order]


def left_outer_pairs(left: BAT, right: BAT
                     ) -> Tuple[Candidates, Candidates]:
    """Left outer equi-join: every left position appears at least once;
    unmatched left rows pair with right position ``-1`` (nil marker).
    Output ordered by left position."""
    lpos, rpos = hashjoin(left, right)
    matched = np.unique(lpos)
    unmatched = np.setdiff1d(np.arange(len(left), dtype=np.int64),
                             matched, assume_unique=True)
    lres = np.concatenate([lpos, unmatched])
    rres = np.concatenate([rpos, np.full(len(unmatched), -1,
                                         dtype=np.int64)])
    order = np.lexsort((rres, lres))
    return lres[order], rres[order]


def fetch_outer(bat: BAT, cand: Candidates) -> BAT:
    """Like :func:`fetch` but position ``-1`` yields nil (the
    projection step after an outer join)."""
    cand = np.asarray(cand, dtype=np.int64)
    missing = cand == -1
    if not missing.any():
        return bat.take(cand)
    safe = np.where(missing, 0, cand)
    out = bat.take(safe)
    out.values[missing] = bat.dtype.nil
    return out


def semi_pairs(left: BAT, right: BAT, anti: bool = False) -> Candidates:
    """Left positions qualifying an IN / NOT IN subquery against
    *right*, with SQL NULL semantics:

    * ``IN``: a left nil never qualifies;
    * ``NOT IN``: if the right side contains any nil, **no** row
      qualifies (the comparison is UNKNOWN for every row); a left nil
      never qualifies either.
    """
    if anti and dt.nil_mask(right.dtype, right.values).any():
        return empty_candidates()
    lkeys, lpos, rkeys, _rpos = _join_keys(
        left, all_candidates(len(left)), right, all_candidates(len(right)))
    _idx, found = _search(np.unique(rkeys), lkeys)
    if not anti:
        return lpos[found]
    keep = ~dt.nil_mask(left.dtype, left.values)
    keep[lpos[found]] = False
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------
# grouping and aggregation
# ---------------------------------------------------------------------

def _group_key(bat: BAT, cand: Optional[Candidates]) -> np.ndarray:
    """The rows *cand* of *bat* as a sortable array whose entries are
    equal exactly where GROUP BY puts two rows in one group: strings
    become codes by first appearance (``None`` is one code), floats
    lose the sign of zero and share one NaN, viewed as int64 so that
    the nil NaN equals itself."""
    values = bat.values if cand is None else bat.values[cand]
    if bat.dtype.is_string:
        items = values.tolist()
        codes = dict(zip(dict.fromkeys(items), itertools.count()))
        # 16-bit codes sort by radix, in linear time
        narrow = np.uint16 if len(codes) <= 1 << 16 else np.int64
        return np.fromiter(map(codes.__getitem__, items), dtype=narrow,
                           count=len(items))
    if values.dtype.kind == "f":
        values = values + 0.0           # -0.0 + 0.0 is 0.0
        values[np.isnan(values)] = np.nan
        return values.view(np.int64)
    return values


def group_rows(keys: Sequence[np.ndarray]
               ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Group rows on equal entries of every array in *keys* in one
    stable sort: ``(gids, first, ngroups)``, with groups numbered by
    first appearance and ``first[g]`` the index of group g's first row.
    """
    n = len(keys[0])
    if n <= 1:
        return np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64), n
    order = np.argsort(keys[0], kind="stable") if len(keys) == 1 \
        else np.lexsort(keys)
    head = np.zeros(n, dtype=bool)
    head[0] = True
    for key in keys:
        ordered = key[order]
        head[1:] |= ordered[1:] != ordered[:-1]
    starts = order[head]        # a run's first row: the sort is stable
    rank = np.argsort(starts)
    ngroups = len(starts)
    remap = np.empty(ngroups, dtype=np.int64)
    remap[rank] = np.arange(ngroups, dtype=np.int64)
    gids = np.empty(n, dtype=np.int64)
    gids[order] = remap[np.cumsum(head) - 1]
    return gids, starts[rank], ngroups


def group(bats: Sequence[BAT], cand: Optional[Candidates] = None,
          prev_gids: Optional[np.ndarray] = None
          ) -> Tuple[np.ndarray, Candidates, int]:
    """GROUP BY all of *bats* (refining *prev_gids*, if given):
    ``(gids, representatives, ngroups)`` where ``gids[i]`` is the group
    of row ``i`` of the candidate selection, groups are numbered by
    first appearance and ``representatives[g]`` is the position of
    group g's first row. Nils form one group (SQL GROUP BY collapses
    NULLs)."""
    keys = [_group_key(bat, cand) for bat in bats]
    if prev_gids is not None:
        if len(prev_gids) != len(keys[0]):
            raise KernelError("subgroup: group id length mismatch")
        keys.insert(0, prev_gids)
    gids, first, ngroups = group_rows(keys)
    return gids, first if cand is None else cand[first], ngroups


def factorize(bat: BAT, cand: Optional[Candidates] = None
              ) -> Tuple[np.ndarray, Candidates]:
    """Dense group ids for one column: ``(gids, representatives)``."""
    gids, reps, _n = group([bat], cand)
    return gids, reps


def subgroup(bat: BAT, prev_gids: Optional[np.ndarray],
             cand: Optional[Candidates] = None
             ) -> Tuple[np.ndarray, Candidates, int]:
    """Refine an existing grouping with one more column (MonetDB
    ``group.subgroup``). With ``prev_gids=None`` this starts a grouping.

    Returns ``(gids, representatives, ngroups)``.
    """
    return group([bat], cand, prev_gids)


def grouped_valid(bat: BAT, gids: np.ndarray,
                  cand: Optional[Candidates]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(values, gids) of the rows of *bat* (at *cand*) that are not nil:
    every grouped aggregate's input, from one nil mask."""
    values = bat.values if cand is None else bat.values[cand]
    if len(values) != len(gids):
        raise KernelError("aggregate: candidate/group length mismatch")
    valid = ~dt.nil_mask(bat.dtype, values)
    return values[valid], gids[valid]


def group_sum(values: np.ndarray, gids: np.ndarray,
              ngroups: int) -> np.ndarray:
    """Per-group sums of non-nil storage *values*: floats in float64,
    integers exactly in int64 (a sum outside INT raises)."""
    approx = np.bincount(gids, weights=values, minlength=ngroups
                         ).astype(np.float64)
    if values.dtype.kind == "f":
        return approx
    sums = np.zeros(ngroups, dtype=np.int64)
    np.add.at(sums, gids, values)       # exact modulo 2**64
    # below 2**26 rows the float sums are off by far less than 2**62,
    # so only a group whose float sum reaches 2**62 can have wrapped
    for g in np.flatnonzero(np.abs(approx) >= 2.0 ** 62).tolist():
        if not dt.INT_NIL < sum(values[gids == g].tolist()) <= dt.INT_MAX:
            raise KernelError("SUM is out of range for INT")
    return sums


def group_extreme(values: np.ndarray, gids: np.ndarray, ngroups: int,
                  take_min: bool) -> Union[np.ndarray, List]:
    """Per-group MIN or MAX of non-nil storage *values*, in their own
    storage type (an empty group holds a filler: check its count)."""
    if values.dtype == object:
        best: List = [None] * ngroups
        for g, v in zip(gids.tolist(), values.tolist()):
            cur = best[g]
            if cur is None or (v < cur if take_min else v > cur):
                best[g] = v
        return best
    if values.dtype.kind == "f":
        fill = np.inf if take_min else -np.inf
    else:
        info = np.iinfo(values.dtype)
        fill = info.max if take_min else info.min
    acc = np.full(ngroups, fill, dtype=values.dtype)
    (np.minimum if take_min else np.maximum).at(acc, gids, values)
    return acc


def agg_count(gids: np.ndarray, ngroups: int,
              bat: Optional[BAT] = None,
              cand: Optional[Candidates] = None) -> BAT:
    """Per-group COUNT(*) (no column) or COUNT(col) (nil-skipping)."""
    if bat is not None:
        _values, gids = grouped_valid(bat, gids, cand)
    counts = np.bincount(gids, minlength=ngroups)
    return BAT.adopt_array(dt.INT, counts.astype(np.int64, copy=False))


def agg_sum(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group SUM; empty groups yield nil. INT stays INT, summed
    exactly."""
    if not bat.dtype.is_numeric:
        raise KernelError(f"sum over non-numeric column {bat.dtype}")
    values, gids = grouped_valid(bat, gids, cand)
    sums = group_sum(values, gids, ngroups)
    sums[np.bincount(gids, minlength=ngroups) == 0] = bat.dtype.nil
    return BAT.adopt_array(bat.dtype, sums)


def agg_avg(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group AVG (always FLOAT); empty groups yield nil."""
    if not bat.dtype.is_numeric:
        raise KernelError(f"avg over non-numeric column {bat.dtype}")
    values, gids = grouped_valid(bat, gids, cand)
    sums = np.bincount(gids, weights=values, minlength=ngroups
                       ).astype(np.float64)
    counts = np.bincount(gids, minlength=ngroups)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = sums / counts
    result[counts == 0] = np.nan
    return BAT.adopt_array(dt.FLOAT, result)


def _agg_extreme(bat: BAT, gids: np.ndarray, ngroups: int,
                 cand: Optional[Candidates], take_min: bool) -> BAT:
    values, gids = grouped_valid(bat, gids, cand)
    best = group_extreme(values, gids, ngroups, take_min)
    if bat.dtype.is_string:
        return BAT.from_values(dt.STRING, best)
    best[np.bincount(gids, minlength=ngroups) == 0] = bat.dtype.nil
    return BAT.adopt_array(bat.dtype, best)


def agg_min(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group MIN; empty groups yield nil."""
    return _agg_extreme(bat, gids, ngroups, cand, take_min=True)


def agg_max(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group MAX; empty groups yield nil."""
    return _agg_extreme(bat, gids, ngroups, cand, take_min=False)


def group_moments(values: np.ndarray, gids: np.ndarray, ngroups: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group (count, sum, sum of squares) of non-nil storage
    *values* — the mergeable state behind variance/stddev."""
    vv = values.astype(np.float64)
    counts = np.bincount(gids, minlength=ngroups).astype(np.float64)
    sums = np.bincount(gids, weights=vv, minlength=ngroups
                       ).astype(np.float64)
    sumsq = np.bincount(gids, weights=vv * vv, minlength=ngroups
                        ).astype(np.float64)
    return counts, sums, sumsq


def variance_from_moments(count: float, total: float,
                          total_sq: float) -> Optional[float]:
    """Sample variance from (n, Σx, Σx²); None below two samples."""
    if count < 2:
        return None
    var = (total_sq - total * total / count) / (count - 1)
    return max(var, 0.0)  # clamp tiny negative rounding residue


def agg_variance(bat: BAT, gids: np.ndarray, ngroups: int,
                 cand: Optional[Candidates] = None) -> BAT:
    """Per-group sample variance; groups with <2 values yield nil."""
    if not bat.dtype.is_numeric:
        raise KernelError(f"variance over non-numeric column {bat.dtype}")
    counts, sums, sumsq = group_moments(
        *grouped_valid(bat, gids, cand), ngroups)
    out = np.full(ngroups, np.nan, dtype=np.float64)
    for g in range(ngroups):
        var = variance_from_moments(counts[g], sums[g], sumsq[g])
        if var is not None:
            out[g] = var
    return BAT.from_array(dt.FLOAT, out)


def agg_stddev(bat: BAT, gids: np.ndarray, ngroups: int,
               cand: Optional[Candidates] = None) -> BAT:
    """Per-group sample standard deviation."""
    var = agg_variance(bat, gids, ngroups, cand)
    return BAT.from_array(dt.FLOAT, np.sqrt(var.values))


def scalar_agg(op: str, bat: Optional[BAT],
               cand: Optional[Candidates] = None) -> Scalar:
    """Whole-column aggregate (no GROUP BY). Returns a Python value.

    ``count`` over an empty input is 0; other aggregates yield None.
    """
    if op == "count" and bat is None:
        raise KernelError("scalar count(*) needs an explicit row count")
    pos = cand if cand is not None else all_candidates(len(bat))
    values = bat.values[pos]
    valid = ~dt.nil_mask(bat.dtype, values)
    values = values[valid]
    if op == "count":
        return int(len(values))
    if len(values) == 0:
        return None
    if op == "sum":
        if bat.dtype is dt.INT:
            return int(group_sum(values, np.zeros(len(values), np.int64),
                                 1)[0])
        return float(values.astype(np.float64).sum())
    if op == "avg":
        return float(values.astype(np.float64).mean())
    if op == "min":
        return dt.from_storage(bat.dtype, values.min())
    if op == "max":
        return dt.from_storage(bat.dtype, values.max())
    if op in ("variance", "stddev"):
        vv = values.astype(np.float64)
        var = variance_from_moments(float(len(vv)), float(vv.sum()),
                                    float((vv * vv).sum()))
        if var is None:
            return None
        return var if op == "variance" else float(np.sqrt(var))
    raise KernelError(f"unknown scalar aggregate {op!r}")


def distinct_aggregate(op: str, arg: BAT, gids: np.ndarray,
                       ngroups: int) -> BAT:
    """Grouped aggregate over the distinct non-nil values of each group
    (COUNT/SUM/AVG/MIN/MAX DISTINCT)."""
    seen = set()
    keep: List[int] = []
    values = arg.values
    for i in np.nonzero(~arg.nil_mask())[0]:
        key = (int(gids[i]), values[i])
        if key not in seen:
            seen.add(key)
            keep.append(i)
    sel = np.asarray(keep, dtype=np.int64)
    sub_gids = gids[sel]
    sub = arg.take(sel)
    if op == "count":
        return agg_count(sub_gids, ngroups, sub, None)
    if op == "sum":
        return agg_sum(sub, sub_gids, ngroups)
    if op == "avg":
        return agg_avg(sub, sub_gids, ngroups)
    if op == "min":
        return agg_min(sub, sub_gids, ngroups)
    if op == "max":
        return agg_max(sub, sub_gids, ngroups)
    raise KernelError(f"unknown aggregate {op!r}")


# ---------------------------------------------------------------------
# sorting, slicing, distinct
# ---------------------------------------------------------------------

def _sort_key(bat: BAT, cand: Candidates, descending: bool) -> np.ndarray:
    """Numeric sort key with nils first in ascending order (SQL default
    NULLS FIRST in MonetDB)."""
    values = bat.values[cand]
    if bat.dtype.is_string:
        # rank strings; None ranks lowest
        uniq = sorted({v for v in values if v is not None})
        ranks = {v: i + 1 for i, v in enumerate(uniq)}
        key = np.array([0 if v is None else ranks[v] for v in values],
                       dtype=np.float64)
    elif bat.dtype is dt.FLOAT:
        key = values.astype(np.float64).copy()
        key[np.isnan(key)] = -np.inf
    else:
        key = values.astype(np.float64)
        key[values == dt.INT_NIL] = -np.inf
    return -key if descending else key


def sort_positions(bats: Sequence[BAT], descending: Sequence[bool],
                   cand: Optional[Candidates] = None) -> Candidates:
    """Stable multi-key sort; returns positions in output order."""
    if not bats:
        raise KernelError("sort needs at least one key column")
    pos = cand if cand is not None else all_candidates(len(bats[0]))
    keys = [_sort_key(b, pos, d) for b, d in zip(bats, descending)]
    order = np.lexsort(tuple(reversed(keys)))
    return pos[order]


def slice_candidates(cand: Candidates, offset: int,
                     limit: Optional[int]) -> Candidates:
    """LIMIT/OFFSET over an ordered candidate list."""
    if limit is None:
        return cand[offset:]
    return cand[offset:offset + limit]


def distinct(bats: Sequence[BAT],
             cand: Optional[Candidates] = None) -> Candidates:
    """Positions of the first occurrence of each distinct row."""
    if not bats:
        raise KernelError("distinct needs at least one column")
    return np.sort(group(bats, cand)[1])


# ---------------------------------------------------------------------
# candidate-list algebra
# ---------------------------------------------------------------------

def cand_intersect(a: Candidates, b: Candidates) -> Candidates:
    return np.intersect1d(a, b, assume_unique=True)


def cand_union(a: Candidates, b: Candidates) -> Candidates:
    return np.union1d(a, b)


def cand_difference(a: Candidates, b: Candidates) -> Candidates:
    return np.setdiff1d(a, b, assume_unique=True)


# ---------------------------------------------------------------------
# column calculator (batcalc.*)
# ---------------------------------------------------------------------

def _broadcast(a, b) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray],
                              Optional[np.ndarray], dt.DataType,
                              dt.DataType, int]:
    """Align BAT/scalar operands into numpy arrays plus nil masks."""
    a_bat = isinstance(a, BAT)
    b_bat = isinstance(b, BAT)
    if not a_bat and not b_bat:
        raise KernelError("batcalc needs at least one BAT operand")
    n = len(a) if a_bat else len(b)
    if a_bat and b_bat and len(a) != len(b):
        raise KernelError(f"batcalc length mismatch {len(a)} vs {len(b)}")

    def prep(x, x_is_bat):
        if x_is_bat:
            return x.values, dt.nil_mask(x.dtype, x.values), x.dtype
        xtype = dt.infer_type(x) if x is not None else None
        if x is None:
            return None, None, None
        return x, None, xtype

    av, amask, atype = prep(a, a_bat)
    bv, bmask, btype = prep(b, b_bat)
    return av, bv, amask, bmask, atype, btype, n


def calc_arith(op: str, a, b) -> BAT:
    """Elementwise arithmetic with nil propagation.

    ``op`` in ``+ - * / %``. Division always yields FLOAT; division by
    zero yields nil (the streaming engine must not abort a standing query
    on one bad tuple — the row simply produces NULL).
    """
    if op in ("+", "-", "*"):
        # Pure-float fast path: NaN (the FLOAT nil) propagates through
        # + - * by itself, so float columns against float columns or
        # bare numeric scalars need no nil-mask pass at all.
        x = y = None
        if type(a) is BAT and a.dtype is dt.FLOAT:
            x = a.values
        elif type(a) in (int, float):
            x = a
        if type(b) is BAT and b.dtype is dt.FLOAT:
            y = b.values
        elif type(b) in (int, float):
            y = b
        x_arr = isinstance(x, np.ndarray)
        y_arr = isinstance(y, np.ndarray)
        if (x is not None and y is not None and (x_arr or y_arr)
                and not (x_arr and y_arr and len(x) != len(y))):
            res = (x + y) if op == "+" else (x - y) if op == "-" \
                else (x * y)
            return BAT.adopt_array(dt.FLOAT, res)
    av, bv, amask, bmask, atype, btype, n = _broadcast(a, b)
    if av is None or bv is None:  # NULL literal operand
        some = atype or btype or dt.FLOAT
        out = dt.FLOAT if op == "/" else some
        return const_column(out, None, n)
    if atype.is_string or btype.is_string:
        if op == "+":  # string concatenation
            return _concat_strings(av, bv, amask, bmask, n)
        raise KernelError(f"arithmetic {op!r} over strings")
    out_type = dt.FLOAT if op == "/" else dt.common_type(atype, btype)
    if op in ("+", "-", "*"):
        # Fast path: compute in the operands' native dtype — no errstate
        # context, no float64 round-trip, no extra broadcast/copy. Falls
        # through to the generic path whenever numpy's promotion does not
        # land exactly on the storage dtype (e.g. int8 boolean operands),
        # which keeps legacy semantics for every odd case.
        res = (av + bv) if op == "+" else (av - bv) if op == "-" \
            else (av * bv)
        rdt = getattr(res, "dtype", None)
        if getattr(res, "shape", None) == (n,) and (
                (rdt == np.float64 and out_type is dt.FLOAT)
                or (rdt == np.int64 and out_type is not dt.FLOAT)):
            nil = None
            if amask is not None and amask.any():
                nil = amask if bmask is None else (amask | bmask)
            elif bmask is not None and bmask.any():
                nil = bmask
            if out_type is dt.FLOAT:
                if nil is not None:
                    res[nil] = np.nan
                return BAT.adopt_array(dt.FLOAT, res)
            if nil is not None:
                res[nil] = dt.INT_NIL
            return BAT.adopt_array(out_type, res)
    af = np.asarray(av, dtype=np.float64)
    bf = np.asarray(bv, dtype=np.float64)
    nil = np.zeros(n, dtype=bool)
    if amask is not None:
        nil |= amask
    if bmask is not None:
        nil |= bmask
    with np.errstate(divide="ignore", invalid="ignore"):
        if op == "+":
            res = af + bf
        elif op == "-":
            res = af - bf
        elif op == "*":
            res = af * bf
        elif op == "/":
            res = af / bf
            nil = nil | (np.broadcast_to(bf, (n,)) == 0)
        elif op == "%":
            res = np.mod(af, bf)
            nil = nil | (np.broadcast_to(bf, (n,)) == 0)
        else:
            raise KernelError(f"unknown arithmetic op {op!r}")
    res = np.broadcast_to(res, (n,)).astype(np.float64).copy()
    if out_type is dt.FLOAT:
        res[nil] = np.nan
        return BAT.adopt_array(dt.FLOAT, res)
    res[nil] = 0  # keep the int cast clean; nils rewritten below
    out = res.astype(np.int64)
    out[nil] = dt.INT_NIL
    return BAT.adopt_array(out_type, out)


def _concat_strings(av, bv, amask, bmask, n: int) -> BAT:
    def cell(x, i):
        if isinstance(x, np.ndarray):
            return x[i]
        return x

    out: List[Optional[str]] = []
    for i in range(n):
        x, y = cell(av, i), cell(bv, i)
        out.append(None if x is None or y is None else str(x) + str(y))
    return BAT.from_values(dt.STRING, out)


def calc_neg(a: BAT) -> BAT:
    """Unary minus with nil propagation."""
    if not a.dtype.is_numeric:
        raise KernelError("negation over non-numeric column")
    mask = a.nil_mask()
    if a.dtype is dt.FLOAT:
        return BAT.adopt_array(dt.FLOAT, -a.values)
    out = -a.values
    out[mask] = dt.INT_NIL
    return BAT.adopt_array(dt.INT, out)


def _compare_array(dtype: dt.DataType, values: np.ndarray, op: str,
                   const) -> np.ndarray:
    """Compare a storage array to one constant -> int8 3VL column."""
    valid = ~dt.nil_mask(dtype, values)
    out = np.full(len(values), -1, dtype=np.int8)
    if dtype.is_string:
        cmpmap = {
            "==": lambda v: v == const, "!=": lambda v: v != const,
            "<": lambda v: v < const, "<=": lambda v: v <= const,
            ">": lambda v: v > const, ">=": lambda v: v >= const,
        }
        fn = cmpmap[op]
        res = np.array([bool(fn(v)) if v is not None else False
                        for v in values], dtype=bool)
    else:
        if op == "==":
            res = values == const
        elif op == "!=":
            res = values != const
        elif op == "<":
            res = values < const
        elif op == "<=":
            res = values <= const
        elif op == ">":
            res = values > const
        elif op == ">=":
            res = values >= const
        else:
            raise KernelError(f"unknown comparison {op!r}")
    out[valid] = res[valid].astype(np.int8)
    return out


def calc_cmp(op: str, a, b) -> BAT:
    """Elementwise comparison producing a three-valued BOOLEAN BAT."""
    if op not in _CMP_OPS:
        raise KernelError(f"unknown comparison {op!r}")
    av, bv, amask, bmask, atype, btype, n = _broadcast(a, b)
    if av is None or bv is None:
        return const_column(dt.BOOLEAN, None, n)
    nil = np.zeros(n, dtype=bool)
    if amask is not None:
        nil |= amask
    if bmask is not None:
        nil |= bmask
    if atype.is_string != btype.is_string:
        raise KernelError(f"cannot compare {atype.name} with {btype.name}")
    if atype.is_string:
        aa = av if isinstance(av, np.ndarray) else np.array([av] * n,
                                                            dtype=object)
        bb = bv if isinstance(bv, np.ndarray) else np.array([bv] * n,
                                                            dtype=object)
        res = np.zeros(n, dtype=bool)
        ok = ~nil
        pairs = [(aa[i], bb[i]) for i in np.nonzero(ok)[0]]
        vals = [_str_cmp(op, x, y) for x, y in pairs]
        res[np.nonzero(ok)[0]] = vals
    else:
        # native-dtype compare: positions under the nil mask produce
        # garbage (INT_NIL sentinels, NaN) but are rewritten below, so
        # the float64 round-trip and errstate guard are pure overhead
        if op == "==":
            res = av == bv
        elif op == "!=":
            res = av != bv
        elif op == "<":
            res = av < bv
        elif op == "<=":
            res = av <= bv
        elif op == ">":
            res = av > bv
        else:
            res = av >= bv
        res = np.broadcast_to(res, (n,))
    out = np.where(nil, np.int8(-1), res.astype(np.int8))
    return BAT.adopt_array(dt.BOOLEAN, out.astype(np.int8))


def _str_cmp(op: str, x, y) -> bool:
    if op == "==":
        return x == y
    if op == "!=":
        return x != y
    if op == "<":
        return x < y
    if op == "<=":
        return x <= y
    if op == ">":
        return x > y
    return x >= y


def calc_and(a: BAT, b: BAT) -> BAT:
    """Kleene AND over three-valued BOOLEAN columns."""
    x, y = a.values, b.values
    out = np.where((x == 0) | (y == 0), np.int8(0),
                   np.where((x == -1) | (y == -1), np.int8(-1), np.int8(1)))
    return BAT.adopt_array(dt.BOOLEAN, out.astype(np.int8))


def calc_or(a: BAT, b: BAT) -> BAT:
    """Kleene OR over three-valued BOOLEAN columns."""
    x, y = a.values, b.values
    out = np.where((x == 1) | (y == 1), np.int8(1),
                   np.where((x == -1) | (y == -1), np.int8(-1), np.int8(0)))
    return BAT.adopt_array(dt.BOOLEAN, out.astype(np.int8))


def calc_not(a: BAT) -> BAT:
    """Kleene NOT (unknown stays unknown)."""
    x = a.values
    out = np.where(x == -1, np.int8(-1), (1 - x).astype(np.int8))
    return BAT.adopt_array(dt.BOOLEAN, out.astype(np.int8))


def calc_isnil(a: BAT) -> BAT:
    """IS NULL as a (two-valued) BOOLEAN column."""
    return BAT.from_array(dt.BOOLEAN, a.nil_mask().astype(np.int8))


def calc_cast(a: BAT, target: dt.DataType) -> BAT:
    """CAST a column to *target*, mapping nils to nils."""
    mask = a.nil_mask()
    if target == a.dtype:
        return a.copy()
    src = a.values
    if target is dt.STRING:
        out = [None if m else _render(a.dtype, v)
               for v, m in zip(src, mask)]
        return BAT.from_values(dt.STRING, out)
    if target is dt.FLOAT:
        if a.dtype.is_string:
            try:
                out = [float(v) if not m else np.nan
                       for v, m in zip(src, mask)]
            except ValueError as exc:
                raise KernelError(f"cannot cast to FLOAT: {exc}") from exc
            return BAT.from_array(dt.FLOAT, np.asarray(out, dtype=np.float64))
        res = src.astype(np.float64)
        res[mask] = np.nan
        return BAT.from_array(dt.FLOAT, res)
    if target is dt.INT or target is dt.TIMESTAMP:
        if a.dtype.is_string:
            try:
                out = [int(float(v)) if not m else dt.INT_NIL
                       for v, m in zip(src, mask)]
            except ValueError as exc:
                raise KernelError(f"cannot cast to INT: {exc}") from exc
            return BAT.from_array(target, np.asarray(out, dtype=np.int64))
        res = np.where(mask, 0, src).astype(np.float64)
        res = res.astype(np.int64)
        res[mask] = dt.INT_NIL
        return BAT.from_array(target, res)
    if target is dt.BOOLEAN:
        res = np.where(mask, np.int8(-1),
                       (np.asarray(src, dtype=np.float64) != 0
                        ).astype(np.int8))
        return BAT.from_array(dt.BOOLEAN, res.astype(np.int8))
    raise KernelError(f"unsupported cast to {target}")


def _render(dtype: dt.DataType, value) -> str:
    if dtype is dt.BOOLEAN:
        return "true" if value == 1 else "false"
    if dtype is dt.FLOAT:
        return repr(float(value))
    return str(value)

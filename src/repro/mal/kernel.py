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

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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

def hashjoin(left: BAT, right: BAT,
             lcand: Optional[Candidates] = None,
             rcand: Optional[Candidates] = None
             ) -> Tuple[Candidates, Candidates]:
    """Equi-join two columns; returns matching (left, right) positions.

    Builds a hash table on the smaller side. Nil never matches anything
    (including other nils), per SQL semantics. Output pairs are ordered by
    left position (stable), matching MonetDB's join result ordering.
    """
    lpos = lcand if lcand is not None else all_candidates(len(left))
    rpos = rcand if rcand is not None else all_candidates(len(right))
    lvals = left.values[lpos]
    rvals = right.values[rpos]
    lvalid = ~dt.nil_mask(left.dtype, lvals)
    rvalid = ~dt.nil_mask(right.dtype, rvals)

    # build on the smaller valid side, probe with the other
    build_left = lvalid.sum() <= rvalid.sum()
    if build_left:
        build_vals, build_pos, build_valid = lvals, lpos, lvalid
        probe_vals, probe_pos, probe_valid = rvals, rpos, rvalid
    else:
        build_vals, build_pos, build_valid = rvals, rpos, rvalid
        probe_vals, probe_pos, probe_valid = lvals, lpos, lvalid

    table: Dict = {}
    for i in np.nonzero(build_valid)[0]:
        table.setdefault(build_vals[i], []).append(build_pos[i])

    out_build: List[int] = []
    out_probe: List[int] = []
    for i in np.nonzero(probe_valid)[0]:
        matches = table.get(probe_vals[i])
        if matches:
            out_probe.extend([probe_pos[i]] * len(matches))
            out_build.extend(matches)

    build_arr = np.asarray(out_build, dtype=np.int64)
    probe_arr = np.asarray(out_probe, dtype=np.int64)
    if build_left:
        lres, rres = build_arr, probe_arr
    else:
        lres, rres = probe_arr, build_arr
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
    values = out.values
    if bat.dtype.is_string:
        for i in np.nonzero(missing)[0]:
            values[i] = None
    else:
        values[missing] = bat.dtype.nil
    return out


def semi_pairs(left: BAT, right: BAT, anti: bool = False) -> Candidates:
    """Left positions qualifying an IN / NOT IN subquery against
    *right*, with SQL NULL semantics:

    * ``IN``: a left nil never qualifies;
    * ``NOT IN``: if the right side contains any nil, **no** row
      qualifies (the comparison is UNKNOWN for every row); a left nil
      never qualifies either.
    """
    lvalid = ~dt.nil_mask(left.dtype, left.values)
    rnil = dt.nil_mask(right.dtype, right.values)
    if anti and rnil.any():
        return empty_candidates()
    rvals = right.values[~rnil]
    if left.dtype.is_string:
        needles = set(rvals.tolist())
        hit = np.array([v in needles for v in left.values], dtype=bool)
    else:
        hit = np.isin(left.values, rvals)
    keep = (lvalid & ~hit) if anti else (lvalid & hit)
    return np.nonzero(keep)[0].astype(np.int64)


def build_hash_table(bat: BAT,
                     cand: Optional[Candidates] = None) -> Dict:
    """Materialize the hash table side of a join for reuse.

    DataCell's incremental join caches these per basic window so a new
    slide only probes, never rebuilds.
    """
    pos = cand if cand is not None else all_candidates(len(bat))
    vals = bat.values[pos]
    valid = ~dt.nil_mask(bat.dtype, vals)
    table: Dict = {}
    for i in np.nonzero(valid)[0]:
        table.setdefault(vals[i], []).append(int(pos[i]))
    return table


def probe_hash_table(table: Dict, bat: BAT,
                     cand: Optional[Candidates] = None
                     ) -> Tuple[Candidates, Candidates]:
    """Probe a prebuilt hash table; returns (probe, build) positions."""
    pos = cand if cand is not None else all_candidates(len(bat))
    vals = bat.values[pos]
    valid = ~dt.nil_mask(bat.dtype, vals)
    out_probe: List[int] = []
    out_build: List[int] = []
    for i in np.nonzero(valid)[0]:
        matches = table.get(vals[i])
        if matches:
            out_probe.extend([int(pos[i])] * len(matches))
            out_build.extend(matches)
    return (np.asarray(out_probe, dtype=np.int64),
            np.asarray(out_build, dtype=np.int64))


# ---------------------------------------------------------------------
# grouping and aggregation
# ---------------------------------------------------------------------

def factorize(bat: BAT, cand: Optional[Candidates] = None
              ) -> Tuple[np.ndarray, Candidates]:
    """Dense group ids for one column.

    Returns ``(gids, representatives)`` where ``gids[i]`` is the group of
    row ``i`` (of the candidate selection) and ``representatives[g]`` is
    the position of the first row of group ``g``. Nils form one group
    (SQL GROUP BY collapses NULLs).
    """
    pos = cand if cand is not None else all_candidates(len(bat))
    values = bat.values[pos]
    if bat.dtype.is_string:
        mapping: Dict = {}
        reps: List[int] = []
        gids = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            key = v  # None hashes fine
            g = mapping.get(key)
            if g is None:
                g = len(reps)
                mapping[key] = g
                reps.append(int(pos[i]))
            gids[i] = g
        return gids, np.asarray(reps, dtype=np.int64)
    # numeric: nils already map to one sentinel value, so unique suffices
    uniq, first_idx, inverse = np.unique(values, return_index=True,
                                         return_inverse=True)
    # renumber groups by first appearance for deterministic ordering
    order = np.argsort(first_idx, kind="stable")
    remap = np.empty(len(uniq), dtype=np.int64)
    remap[order] = np.arange(len(uniq), dtype=np.int64)
    gids = remap[inverse]
    reps = pos[np.sort(first_idx)]
    return gids, np.asarray(reps, dtype=np.int64)


def subgroup(bat: BAT, prev_gids: Optional[np.ndarray],
             cand: Optional[Candidates] = None
             ) -> Tuple[np.ndarray, Candidates, int]:
    """Refine an existing grouping with one more column (MonetDB
    ``group.subgroup``). With ``prev_gids=None`` this starts a grouping.

    Returns ``(gids, representatives, ngroups)``.
    """
    gids, reps = factorize(bat, cand)
    if prev_gids is None:
        return gids, reps, int(gids.max()) + 1 if len(gids) else 0
    if len(prev_gids) != len(gids):
        raise KernelError("subgroup: group id length mismatch")
    ncols = int(gids.max()) + 1 if len(gids) else 0
    combined = prev_gids * max(ncols, 1) + gids
    uniq, first_idx, inverse = np.unique(combined, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    remap = np.empty(len(uniq), dtype=np.int64)
    remap[order] = np.arange(len(uniq), dtype=np.int64)
    new_gids = remap[inverse]
    pos = cand if cand is not None else all_candidates(len(bat))
    new_reps = pos[np.sort(first_idx)]
    return new_gids, np.asarray(new_reps, dtype=np.int64), len(uniq)


def _grouped_valid(bat: BAT, gids: np.ndarray,
                   cand: Optional[Candidates]) -> Tuple[np.ndarray, np.ndarray]:
    pos = cand if cand is not None else all_candidates(len(bat))
    if len(pos) != len(gids):
        raise KernelError("aggregate: candidate/group length mismatch")
    values = bat.values[pos]
    valid = ~dt.nil_mask(bat.dtype, values)
    return values, valid


def agg_count(gids: np.ndarray, ngroups: int,
              bat: Optional[BAT] = None,
              cand: Optional[Candidates] = None) -> BAT:
    """Per-group COUNT(*) (no column) or COUNT(col) (nil-skipping)."""
    if bat is None:
        counts = np.bincount(gids, minlength=ngroups)
    else:
        _values, valid = _grouped_valid(bat, gids, cand)
        counts = np.bincount(gids[valid], minlength=ngroups)
    return BAT.from_array(dt.INT, counts.astype(np.int64))


def agg_sum(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group SUM; empty groups yield nil. INT stays INT."""
    values, valid = _grouped_valid(bat, gids, cand)
    if not bat.dtype.is_numeric:
        raise KernelError(f"sum over non-numeric column {bat.dtype}")
    out_type = bat.dtype
    # note: bincount returns int64 when the weights array is empty
    sums = np.bincount(gids[valid],
                       weights=values[valid].astype(np.float64),
                       minlength=ngroups).astype(np.float64)
    counts = np.bincount(gids[valid], minlength=ngroups)
    if out_type is dt.INT:
        result = sums.astype(np.int64)
        result[counts == 0] = dt.INT_NIL
        return BAT.from_array(dt.INT, result)
    result = sums
    result[counts == 0] = np.nan
    return BAT.from_array(dt.FLOAT, result)


def agg_avg(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group AVG (always FLOAT); empty groups yield nil."""
    values, valid = _grouped_valid(bat, gids, cand)
    if not bat.dtype.is_numeric:
        raise KernelError(f"avg over non-numeric column {bat.dtype}")
    sums = np.bincount(gids[valid],
                       weights=values[valid].astype(np.float64),
                       minlength=ngroups).astype(np.float64)
    counts = np.bincount(gids[valid], minlength=ngroups)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = sums / counts
    result[counts == 0] = np.nan
    return BAT.from_array(dt.FLOAT, result)


def _agg_extreme(bat: BAT, gids: np.ndarray, ngroups: int,
                 cand: Optional[Candidates], take_min: bool) -> BAT:
    values, valid = _grouped_valid(bat, gids, cand)
    if bat.dtype.is_string:
        best: List = [None] * ngroups
        for g, v in zip(gids[valid], values[valid]):
            cur = best[g]
            if cur is None or (v < cur if take_min else v > cur):
                best[g] = v
        return BAT.from_values(dt.STRING, best)
    fill = np.inf if take_min else -np.inf
    acc = np.full(ngroups, fill, dtype=np.float64)
    op = np.minimum if take_min else np.maximum
    op.at(acc, gids[valid], values[valid].astype(np.float64))
    counts = np.bincount(gids[valid], minlength=ngroups)
    if bat.dtype is dt.FLOAT:
        acc[counts == 0] = np.nan
        return BAT.from_array(dt.FLOAT, acc)
    out = np.empty(ngroups, dtype=np.int64)
    nonempty = counts > 0
    out[nonempty] = acc[nonempty].astype(np.int64)
    out[~nonempty] = dt.INT_NIL
    return BAT.from_array(bat.dtype, out)


def agg_min(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group MIN; empty groups yield nil."""
    return _agg_extreme(bat, gids, ngroups, cand, take_min=True)


def agg_max(bat: BAT, gids: np.ndarray, ngroups: int,
            cand: Optional[Candidates] = None) -> BAT:
    """Per-group MAX; empty groups yield nil."""
    return _agg_extreme(bat, gids, ngroups, cand, take_min=False)


def _moments(bat: BAT, gids: np.ndarray, ngroups: int,
             cand: Optional[Candidates]
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group (count, sum, sum of squares) over non-nil values —
    the mergeable state behind variance/stddev."""
    values, valid = _grouped_valid(bat, gids, cand)
    if not bat.dtype.is_numeric:
        raise KernelError(f"variance over non-numeric column {bat.dtype}")
    vv = values[valid].astype(np.float64)
    gg = gids[valid]
    counts = np.bincount(gg, minlength=ngroups).astype(np.float64)
    sums = np.bincount(gg, weights=vv, minlength=ngroups
                       ).astype(np.float64)
    sumsq = np.bincount(gg, weights=vv * vv, minlength=ngroups
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
    counts, sums, sumsq = _moments(bat, gids, ngroups, cand)
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


_SCALARS: Dict[str, Callable] = {}


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
        total = values.astype(np.float64).sum()
        return int(total) if bat.dtype is dt.INT else float(total)
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
    gids = None
    reps = None
    for bat in bats:
        gids, reps, _n = subgroup(bat, gids, cand)
    return np.sort(reps)


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

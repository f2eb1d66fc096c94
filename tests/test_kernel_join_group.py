"""Unit tests for kernel joins, grouping, sorting and distinct."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.mal import kernel as K
from repro.mal.bat import BAT
from repro.storage import types as dt
from repro.storage.index import ColumnIndex


class TestHashJoin:
    def test_basic(self):
        l = BAT.from_values(dt.INT, [1, 2, 3])
        r = BAT.from_values(dt.INT, [2, 3, 4])
        lp, rp = K.hashjoin(l, r)
        assert list(zip(lp.tolist(), rp.tolist())) == [(1, 0), (2, 1)]

    def test_duplicates_produce_all_pairs(self):
        l = BAT.from_values(dt.INT, [1, 1])
        r = BAT.from_values(dt.INT, [1, 1, 1])
        lp, rp = K.hashjoin(l, r)
        assert len(lp) == 6

    def test_nil_never_matches(self):
        l = BAT.from_values(dt.INT, [None, 1], coerce=True)
        r = BAT.from_values(dt.INT, [None, 1], coerce=True)
        lp, rp = K.hashjoin(l, r)
        assert list(zip(lp.tolist(), rp.tolist())) == [(1, 1)]

    def test_string_join(self):
        l = BAT.from_values(dt.STRING, ["a", "b", None], coerce=True)
        r = BAT.from_values(dt.STRING, ["b", "c"], coerce=True)
        lp, rp = K.hashjoin(l, r)
        assert list(zip(lp.tolist(), rp.tolist())) == [(1, 0)]

    def test_result_ordered_by_left(self):
        l = BAT.from_values(dt.INT, [3, 1, 2])
        r = BAT.from_values(dt.INT, [2, 3, 1])
        lp, rp = K.hashjoin(l, r)
        assert lp.tolist() == sorted(lp.tolist())

    def test_with_candidates(self):
        l = BAT.from_values(dt.INT, [1, 2, 3, 4])
        r = BAT.from_values(dt.INT, [2, 4])
        lcand = np.array([0, 1], dtype=np.int64)  # only values 1, 2
        lp, rp = K.hashjoin(l, r, lcand=lcand)
        assert list(zip(lp.tolist(), rp.tolist())) == [(1, 0)]

    def test_empty_side(self):
        l = BAT.from_values(dt.INT, [])
        r = BAT.from_values(dt.INT, [1, 2])
        lp, rp = K.hashjoin(l, r)
        assert len(lp) == 0 and len(rp) == 0

    def test_matches_nested_loop_oracle(self):
        rng = np.random.RandomState(11)
        lv = rng.randint(0, 10, 50).tolist()
        rv = rng.randint(0, 10, 40).tolist()
        l = BAT.from_values(dt.INT, lv)
        r = BAT.from_values(dt.INT, rv)
        lp, rp = K.hashjoin(l, r)
        got = sorted(zip(lp.tolist(), rp.tolist()))
        expected = sorted((i, j) for i, a in enumerate(lv)
                          for j, b in enumerate(rv) if a == b)
        assert got == expected


class TestHashTableReuse:
    def test_build_then_probe(self):
        build = BAT.from_values(dt.INT, [1, 2, 2, None], coerce=True)
        probe = BAT.from_values(dt.INT, [2, 3, None], coerce=True)
        pp, bp = ColumnIndex(build).join(probe)
        assert list(zip(pp.tolist(), bp.tolist())) == [(0, 1), (0, 2)]

    def test_probe_with_candidates(self):
        # value 5 at build position 0, as ColumnIndex keeps its runs
        runs = K.sort_runs(np.array([5]), np.array([0], dtype=np.int64))
        probe = BAT.from_values(dt.INT, [5, 5])
        cand = np.array([1], dtype=np.int64)
        pp, bp = K.probe_runs(runs, probe.values[cand], cand)
        assert pp.tolist() == [1] and bp.tolist() == [0]


class TestGrouping:
    def test_factorize_numeric(self):
        bat = BAT.from_values(dt.INT, [5, 2, 5, None, 2], coerce=True)
        gids, reps = K.factorize(bat)
        # groups numbered by first appearance
        assert gids.tolist() == [0, 1, 0, 2, 1]
        assert reps.tolist() == [0, 1, 3]

    def test_factorize_strings_with_nil(self):
        bat = BAT.from_values(dt.STRING, ["a", None, "a", "b"],
                              coerce=True)
        gids, reps = K.factorize(bat)
        assert gids.tolist() == [0, 1, 0, 2]

    def test_subgroup_single(self):
        bat = BAT.from_values(dt.INT, [1, 1, 2])
        gids, reps, n = K.subgroup(bat, None)
        assert n == 2 and gids.tolist() == [0, 0, 1]

    def test_subgroup_refinement(self):
        a = BAT.from_values(dt.INT, [1, 1, 2, 2])
        b = BAT.from_values(dt.STRING, ["x", "y", "x", "x"], coerce=True)
        gids, _, n1 = K.subgroup(a, None)
        gids2, reps2, n2 = K.subgroup(b, gids)
        assert n2 == 3
        assert gids2.tolist() == [0, 1, 2, 2]

    def test_subgroup_length_mismatch(self):
        a = BAT.from_values(dt.INT, [1, 2])
        with pytest.raises(KernelError):
            K.subgroup(a, np.array([0], dtype=np.int64))

    def test_empty_input(self):
        bat = BAT.from_values(dt.INT, [])
        gids, reps, n = K.subgroup(bat, None)
        assert n == 0 and len(gids) == 0


class TestDistinct:
    def test_single_column(self):
        bat = BAT.from_values(dt.INT, [3, 1, 3, None, 1], coerce=True)
        assert K.distinct([bat]).tolist() == [0, 1, 3]

    def test_multi_column(self):
        a = BAT.from_values(dt.INT, [1, 1, 2, 1])
        b = BAT.from_values(dt.INT, [9, 9, 9, 8])
        assert K.distinct([a, b]).tolist() == [0, 2, 3]

    def test_needs_columns(self):
        with pytest.raises(KernelError):
            K.distinct([])


class TestSort:
    def test_ascending_nils_first(self):
        bat = BAT.from_values(dt.INT, [3, None, 1], coerce=True)
        assert K.sort_positions([bat], [False]).tolist() == [1, 2, 0]

    def test_descending(self):
        bat = BAT.from_values(dt.INT, [3, 1, 2])
        assert K.sort_positions([bat], [True]).tolist() == [0, 2, 1]

    def test_multi_key(self):
        a = BAT.from_values(dt.INT, [1, 2, 1, 2])
        b = BAT.from_values(dt.INT, [9, 8, 7, 6])
        order = K.sort_positions([a, b], [False, True])
        assert order.tolist() == [0, 2, 1, 3]

    def test_string_sort(self):
        bat = BAT.from_values(dt.STRING, ["b", None, "a"], coerce=True)
        assert K.sort_positions([bat], [False]).tolist() == [1, 2, 0]

    def test_stability(self):
        a = BAT.from_values(dt.INT, [1, 1, 1])
        order = K.sort_positions([a], [False])
        assert order.tolist() == [0, 1, 2]

    def test_float_with_nan(self):
        bat = BAT.from_values(dt.FLOAT, [2.0, None, 1.0], coerce=True)
        assert K.sort_positions([bat], [False]).tolist() == [1, 2, 0]

    def test_needs_keys(self):
        with pytest.raises(KernelError):
            K.sort_positions([], [])


class TestSliceCandidates:
    def test_offset_limit(self):
        cand = np.arange(10, dtype=np.int64)
        assert K.slice_candidates(cand, 2, 3).tolist() == [2, 3, 4]

    def test_no_limit(self):
        cand = np.arange(5, dtype=np.int64)
        assert K.slice_candidates(cand, 3, None).tolist() == [3, 4]

    def test_limit_past_end(self):
        cand = np.arange(3, dtype=np.int64)
        assert K.slice_candidates(cand, 1, 100).tolist() == [1, 2]

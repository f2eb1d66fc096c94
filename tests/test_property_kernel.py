"""Property-based tests (hypothesis) for the bulk kernel.

These check algebraic laws against brute-force Python oracles: the
kernel is the foundation everything else trusts.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mal import kernel as K
from repro.mal.bat import BAT
from repro.storage import types as dt
from repro.storage.index import HashIndex

ints_with_nulls = st.lists(
    st.one_of(st.integers(-50, 50), st.none()), max_size=60)
floats_with_nulls = st.lists(
    st.one_of(st.floats(-100, 100, allow_nan=False), st.none()),
    max_size=60)
small_strings = st.lists(
    st.one_of(st.text(alphabet="abc", max_size=3), st.none()),
    max_size=40)


def int_bat(values):
    return BAT.from_values(dt.INT, values, coerce=True)


class TestSelectionLaws:
    @given(ints_with_nulls, st.integers(-50, 50), st.integers(-50, 50))
    def test_select_matches_oracle(self, values, low, high):
        low, high = min(low, high), max(low, high)
        got = K.select_range(int_bat(values), low, high).tolist()
        expected = [i for i, v in enumerate(values)
                    if v is not None and low <= v <= high]
        assert got == expected

    @given(ints_with_nulls, st.integers(-50, 50))
    def test_select_and_anti_partition_non_nil(self, values, low):
        bat = int_bat(values)
        sel = set(K.select_range(bat, low, None).tolist())
        anti = set(K.select_range(bat, low, None, anti=True).tolist())
        non_nil = {i for i, v in enumerate(values) if v is not None}
        assert sel | anti == non_nil
        assert sel & anti == set()

    @given(ints_with_nulls, st.integers(-50, 50))
    def test_theta_eq_equals_in_single(self, values, needle):
        bat = int_bat(values)
        assert K.theta_select(bat, "==", needle).tolist() == \
            K.in_select(bat, [needle]).tolist()

    @given(ints_with_nulls, st.integers(-50, 50), st.integers(-50, 50))
    def test_select_fetch_composition(self, values, low, high):
        """fetch(select(x)) returns exactly the qualifying values."""
        low, high = min(low, high), max(low, high)
        bat = int_bat(values)
        cand = K.select_range(bat, low, high)
        fetched = K.fetch(bat, cand).tolist()
        assert fetched == [v for v in values
                           if v is not None and low <= v <= high]

    @given(ints_with_nulls, st.integers(-50, 50), st.integers(-50, 50))
    def test_candidate_chaining_equals_conjunction(self, values, a, b):
        bat = int_bat(values)
        chained = K.theta_select(bat, "<=", b,
                                 cand=K.theta_select(bat, ">=", a))
        direct = K.select_range(bat, a, b)
        assert chained.tolist() == direct.tolist()


class TestJoinLaws:
    @given(st.lists(st.integers(0, 8), max_size=30),
           st.lists(st.integers(0, 8), max_size=30))
    def test_join_matches_nested_loop(self, lv, rv):
        lp, rp = K.hashjoin(BAT.from_values(dt.INT, lv),
                            BAT.from_values(dt.INT, rv))
        got = sorted(zip(lp.tolist(), rp.tolist()))
        expected = sorted((i, j) for i, a in enumerate(lv)
                          for j, b in enumerate(rv) if a == b)
        assert got == expected

    @given(st.lists(st.integers(0, 8), max_size=30),
           st.lists(st.integers(0, 8), max_size=30))
    def test_join_symmetric(self, lv, rv):
        l = BAT.from_values(dt.INT, lv)
        r = BAT.from_values(dt.INT, rv)
        lp1, rp1 = K.hashjoin(l, r)
        rp2, lp2 = K.hashjoin(r, l)
        assert sorted(zip(lp1.tolist(), rp1.tolist())) == \
            sorted(zip(lp2.tolist(), rp2.tolist()))

    @given(st.lists(st.integers(0, 5), max_size=25),
           st.lists(st.integers(0, 5), max_size=25))
    def test_prebuilt_table_equals_join(self, lv, rv):
        l = BAT.from_values(dt.INT, lv)
        r = BAT.from_values(dt.INT, rv)
        pp, bp = HashIndex(r).join(l)
        lp, rp = K.hashjoin(l, r)
        assert sorted(zip(pp.tolist(), bp.tolist())) == \
            sorted(zip(lp.tolist(), rp.tolist()))


class TestGroupingLaws:
    @given(ints_with_nulls)
    def test_group_partition(self, values):
        """Group ids partition the rows; representatives are first rows."""
        bat = int_bat(values)
        gids, reps, n = K.subgroup(bat, None)
        if values:
            assert len(gids) == len(values)
            assert sorted(set(gids.tolist())) == list(range(n))
            for g in range(n):
                members = [i for i, gg in enumerate(gids) if gg == g]
                assert reps[g] == members[0]

    @given(ints_with_nulls, floats_with_nulls)
    def test_grouped_sum_matches_dict_oracle(self, keys, vals):
        n = min(len(keys), len(vals))
        keys, vals = keys[:n], vals[:n]
        kbat = int_bat(keys)
        vbat = BAT.from_values(dt.FLOAT, vals, coerce=True)
        gids, reps, ngroups = K.subgroup(kbat, None)
        sums = K.agg_sum(vbat, gids, ngroups).tolist() if n else []
        oracle = {}
        for k, v in zip(keys, vals):
            oracle.setdefault(k, []).append(v)
        for g in range(ngroups):
            key = keys[int(reps[g])]
            expected = [v for v in oracle[key] if v is not None]
            if expected:
                assert sums[g] == pytest.approx(sum(expected))
            else:
                assert sums[g] is None

    @given(small_strings)
    def test_distinct_matches_set_oracle(self, values):
        bat = BAT.from_values(dt.STRING, values, coerce=True)
        got = [values[i] for i in K.distinct([bat])] if values else []
        seen = []
        for v in values:
            if v not in seen:
                seen.append(v)
        assert got == seen


class TestSortLaws:
    @given(ints_with_nulls)
    def test_sort_is_permutation_and_ordered(self, values):
        bat = int_bat(values)
        order = K.sort_positions([bat], [False]) if values else []
        assert sorted(order) == list(range(len(values)))
        key = [float("-inf") if values[i] is None else values[i]
               for i in order]
        assert key == sorted(key)

    @given(ints_with_nulls)
    def test_descending_reverses_comparable_values(self, values):
        bat = int_bat(values)
        if not values:
            return
        asc = K.sort_positions([bat], [False])
        desc = K.sort_positions([bat], [True])
        asc_vals = [values[i] for i in asc if values[i] is not None]
        desc_vals = [values[i] for i in desc if values[i] is not None]
        assert asc_vals == list(reversed(desc_vals))


class TestThreeValuedLogic:
    tvl_lists = st.lists(st.sampled_from([1, 0, -1]), min_size=1,
                         max_size=30)

    @staticmethod
    def tvl(values):
        return BAT.from_array(dt.BOOLEAN,
                              np.array(values, dtype=np.int8))

    @given(tvl_lists)
    def test_double_negation(self, values):
        a = self.tvl(values)
        assert K.calc_not(K.calc_not(a)).values.tolist() == values

    @given(tvl_lists)
    def test_de_morgan(self, values):
        a = self.tvl(values)
        b = self.tvl(list(reversed(values)))
        lhs = K.calc_not(K.calc_and(a, b)).values.tolist()
        rhs = K.calc_or(K.calc_not(a), K.calc_not(b)).values.tolist()
        assert lhs == rhs

    @given(tvl_lists)
    def test_and_commutes(self, values):
        a = self.tvl(values)
        b = self.tvl(list(reversed(values)))
        assert K.calc_and(a, b).values.tolist() == \
            K.calc_and(b, a).values.tolist()


class TestArithmeticLaws:
    @given(ints_with_nulls, st.integers(-20, 20))
    def test_add_sub_roundtrip(self, values, c):
        bat = int_bat(values)
        out = K.calc_arith("-", K.calc_arith("+", bat, c), c)
        assert out.tolist() == bat.tolist()

    @given(floats_with_nulls)
    def test_nil_absorbs(self, values):
        bat = BAT.from_values(dt.FLOAT, values, coerce=True)
        out = K.calc_arith("*", bat, K.const_column(dt.FLOAT, None,
                                                    len(bat)))
        assert all(v is None for v in out.tolist())

    @given(ints_with_nulls)
    def test_cast_roundtrip_through_string(self, values):
        bat = int_bat(values)
        back = K.calc_cast(K.calc_cast(bat, dt.STRING), dt.INT)
        assert back.tolist() == bat.tolist()

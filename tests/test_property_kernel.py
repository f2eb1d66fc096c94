"""Property-based tests (hypothesis) for the bulk kernel.

These check algebraic laws against brute-force Python oracles: the
kernel is the foundation everything else trusts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mal import kernel as K
from repro.mal.bat import BAT
from repro.storage import types as dt
from repro.core.engine import DataCellEngine
from repro.storage.index import ColumnIndex

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


# small key pools per type, so both join sides hold duplicates
KEY_POOLS = {
    dt.INT: st.integers(-3, 3),
    dt.FLOAT: st.sampled_from([0.0, -0.0, 1.5, 2.0, 3.0]),
    dt.TIMESTAMP: st.integers(1_000, 1_004),
    dt.BOOLEAN: st.booleans(),
    dt.STRING: st.text(alphabet="ab", max_size=2),
}
# INT x FLOAT near 2**53, where a float64 cast of the int is lossy
MIXED_POOLS = {
    dt.INT: st.sampled_from([2 ** 53 + 1, 2 ** 53, 3, -1]),
    dt.FLOAT: st.sampled_from([2.0 ** 53, 3.0, 3.5, -1.0,
                               float("inf")]),
}


def _keys(pool):
    return st.lists(st.one_of(pool, st.none()), max_size=25)


@st.composite
def join_sides(draw):
    """(left type, left values, right type, right values): one key type
    on both sides, or INT against FLOAT."""
    if draw(st.booleans()):
        ltype = rtype = draw(st.sampled_from(list(KEY_POOLS)))
        return (ltype, draw(_keys(KEY_POOLS[ltype])),
                rtype, draw(_keys(KEY_POOLS[rtype])))
    ltype, rtype = draw(st.permutations([dt.INT, dt.FLOAT]))
    return (ltype, draw(_keys(MIXED_POOLS[ltype])),
            rtype, draw(_keys(MIXED_POOLS[rtype])))


@st.composite
def candidates(draw, n):
    """None (every row) or an ascending subset of ``range(n)``."""
    if draw(st.booleans()):
        return None
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array([i for i, k in enumerate(keep) if k], dtype=np.int64)


def _eq(a, b):
    """SQL equality of two Python values: nil matches nothing."""
    return a is not None and b is not None and a == b


def nested_loop(lv, rv, lcand=None, rcand=None):
    """(left, right) pairs in the kernel's order: by left position,
    then right position."""
    lc = range(len(lv)) if lcand is None else lcand.tolist()
    rc = range(len(rv)) if rcand is None else rcand.tolist()
    return [(i, j) for i in lc for j in rc if _eq(lv[i], rv[j])]


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
        pp, bp = ColumnIndex(r).join(l)
        lp, rp = K.hashjoin(l, r)
        assert pp.tolist() == lp.tolist() and bp.tolist() == rp.tolist()

    @given(st.data())
    def test_hashjoin_exact_order(self, data):
        ltype, lv, rtype, rv = data.draw(join_sides())
        lcand = data.draw(candidates(len(lv)))
        rcand = data.draw(candidates(len(rv)))
        lp, rp = K.hashjoin(BAT.from_values(ltype, lv, coerce=True),
                            BAT.from_values(rtype, rv, coerce=True),
                            lcand, rcand)
        assert list(zip(lp.tolist(), rp.tolist())) == \
            nested_loop(lv, rv, lcand, rcand)

    @given(join_sides())
    def test_left_outer_exact_order(self, sides):
        ltype, lv, rtype, rv = sides
        lp, rp = K.left_outer_pairs(BAT.from_values(ltype, lv, coerce=True),
                                    BAT.from_values(rtype, rv, coerce=True))
        expected = []
        for i, a in enumerate(lv):
            hits = [(i, j) for j, b in enumerate(rv) if _eq(a, b)]
            expected.extend(hits or [(i, -1)])
        assert list(zip(lp.tolist(), rp.tolist())) == expected

    @given(join_sides(), st.booleans())
    def test_semi_in_and_not_in(self, sides, anti):
        ltype, lv, rtype, rv = sides
        got = K.semi_pairs(BAT.from_values(ltype, lv, coerce=True),
                           BAT.from_values(rtype, rv, coerce=True), anti)
        if anti:
            # NOT IN over a right side holding a nil is UNKNOWN for all
            expected = [] if None in rv else [
                i for i, a in enumerate(lv)
                if a is not None and not any(_eq(a, b) for b in rv)]
        else:
            expected = [i for i, a in enumerate(lv)
                        if any(_eq(a, b) for b in rv)]
        assert got.tolist() == expected

    @given(join_sides())
    def test_index_join_exact_order(self, sides):
        ltype, lv, rtype, rv = sides
        probe = BAT.from_values(ltype, lv, coerce=True)
        pairs = ColumnIndex(BAT.from_values(rtype, rv, coerce=True)
                            ).join(probe)
        if ltype.np_dtype != rtype.np_dtype:
            assert pairs is None     # the caller joins exactly instead
            return
        pp, bp = pairs
        assert list(zip(pp.tolist(), bp.tolist())) == nested_loop(lv, rv)

    def test_int_float_never_meet_through_float64(self):
        """9007199254740993 rounds to 9007199254740992.0 as a float64;
        the two keys are not equal, in the kernel or in SQL."""
        big = BAT.from_values(dt.INT, [2 ** 53 + 1, 3])
        near = BAT.from_values(dt.FLOAT, [2.0 ** 53, 3.0])
        for l, r in ((big, near), (near, big)):
            lp, rp = K.hashjoin(l, r)
            assert list(zip(lp.tolist(), rp.tolist())) == [(1, 1)]
            assert K.semi_pairs(l, r).tolist() == [1]
            assert K.semi_pairs(l, r, anti=True).tolist() == [0]
        engine = DataCellEngine()
        engine.execute("CREATE TABLE a (x INT)")
        engine.execute("CREATE TABLE b (y FLOAT)")
        engine.execute("INSERT INTO a VALUES (9007199254740993), (3)")
        engine.execute("INSERT INTO b VALUES (9007199254740992.0), (3.0)")
        for sql in ("SELECT x, y FROM a JOIN b ON x = y",
                    "SELECT x, y FROM a, b WHERE x + 0 = y"):
            assert engine.execute(sql).to_rows() == [(3, 3.0)]
        engine.execute("CREATE INDEX ON b (y)")
        assert engine.execute(
            "SELECT x, y FROM a JOIN b ON x = y").to_rows() == [(3, 3.0)]


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



# cells of one GROUP BY key column: every nil spelling (None, the INT
# sentinel, NaNs of either sign) and both signs of zero
GROUP_CELLS = {
    dt.INT: st.one_of(st.integers(-2, 2), st.none(), st.just(dt.INT_NIL)),
    dt.FLOAT: st.sampled_from([0.0, -0.0, 1.5, -2.0, float("nan"),
                               -float("nan"), None]),
    dt.STRING: st.one_of(st.sampled_from(["", "a", "b"]), st.none()),
    dt.BOOLEAN: st.one_of(st.booleans(), st.none()),
}


@st.composite
def group_keys(draw, sizes=st.integers(0, 40)):
    """1-3 key columns of mixed types, all of one drawn length."""
    types = draw(st.lists(st.sampled_from(list(GROUP_CELLS)),
                          min_size=1, max_size=3))
    n = draw(sizes)
    return [BAT.from_values(t, draw(st.lists(GROUP_CELLS[t], min_size=n,
                                             max_size=n)), coerce=True)
            for t in types]


def reference_groups(bats, positions):
    """(gids, representatives) from a dict over row tuples: groups by
    first appearance; nils are None and -0.0 == 0.0, as in Python."""
    groups, gids, reps = {}, [], []
    columns = [bat.tolist() for bat in bats]
    for p in positions:
        row = tuple(col[p] for col in columns)
        if row not in groups:
            groups[row] = len(groups)
            reps.append(p)
        gids.append(groups[row])
    return gids, reps


class TestGroupKernel:
    """The one-sort grouping kernel against a pure-Python reference."""

    def check(self, bats, cand=None):
        positions = range(len(bats[0])) if cand is None else cand.tolist()
        gids, reps, n = K.group(bats, cand)
        want_gids, want_reps = reference_groups(bats, positions)
        assert gids.tolist() == want_gids
        assert reps.tolist() == want_reps
        assert n == len(want_reps)
        return gids, reps, n

    @settings(max_examples=60, deadline=None)
    @given(group_keys())
    def test_matches_reference(self, bats):
        self.check(bats)

    @settings(max_examples=30, deadline=None)
    @given(group_keys(st.sampled_from([0, 1, 2])))
    def test_tiny_inputs(self, bats):
        self.check(bats)

    @settings(max_examples=30, deadline=None)
    @given(group_keys(st.integers(1, 30)), st.data())
    def test_candidate_list(self, bats, data):
        keep = data.draw(st.lists(st.booleans(), min_size=len(bats[0]),
                                  max_size=len(bats[0])))
        self.check(bats, np.flatnonzero(keep).astype(np.int64))

    @settings(max_examples=30, deadline=None)
    @given(group_keys())
    def test_subgroup_chain_is_one_grouping(self, bats):
        gids, reps, n = self.check(bats)
        chained = None
        for bat in bats:
            chained, chained_reps, chained_n = K.subgroup(bat, chained)
        assert chained.tolist() == gids.tolist()
        assert chained_reps.tolist() == reps.tolist()
        assert chained_n == n
        assert K.factorize(bats[0])[0].tolist() == \
            K.group(bats[:1])[0].tolist()

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

"""Unit tests for grouped/scalar aggregates and the column calculator."""

import numpy as np
import pytest

from repro.core.engine import DataCellEngine
from repro.errors import KernelError
from repro.mal import kernel as K
from repro.mal.bat import BAT
from repro.storage import types as dt


def grouped(values, groups, ngroups=None):
    gids = np.asarray(groups, dtype=np.int64)
    n = (int(gids.max()) + 1 if len(gids) else 0) \
        if ngroups is None else ngroups
    return gids, n


class TestGroupedAggregates:
    def test_count_star(self):
        gids, n = grouped(None, [0, 0, 1])
        assert K.agg_count(gids, n).tolist() == [2, 1]

    def test_count_column_skips_nil(self):
        bat = BAT.from_values(dt.INT, [1, None, 3], coerce=True)
        gids, n = grouped(None, [0, 0, 1])
        assert K.agg_count(gids, n, bat).tolist() == [1, 1]

    def test_sum_int_stays_int(self):
        bat = BAT.from_values(dt.INT, [1, 2, 3])
        gids, n = grouped(None, [0, 0, 1])
        out = K.agg_sum(bat, gids, n)
        assert out.dtype is dt.INT
        assert out.tolist() == [3, 3]

    def test_sum_skips_nil(self):
        bat = BAT.from_values(dt.FLOAT, [1.0, None, 3.0], coerce=True)
        gids, n = grouped(None, [0, 0, 0])
        assert K.agg_sum(bat, gids, n).tolist() == [4.0]

    def test_sum_empty_group_is_nil(self):
        bat = BAT.from_values(dt.INT, [1])
        gids, n = grouped(None, [0], ngroups=2)
        assert K.agg_sum(bat, gids, n).tolist() == [1, None]

    def test_sum_rejects_strings(self):
        bat = BAT.from_values(dt.STRING, ["a"], coerce=True)
        gids, n = grouped(None, [0])
        with pytest.raises(KernelError):
            K.agg_sum(bat, gids, n)

    def test_avg(self):
        bat = BAT.from_values(dt.INT, [1, 3, 10])
        gids, n = grouped(None, [0, 0, 1])
        assert K.agg_avg(bat, gids, n).tolist() == [2.0, 10.0]

    def test_avg_empty_group_is_nil(self):
        bat = BAT.from_values(dt.FLOAT, [])
        gids, n = grouped(None, [], ngroups=1)
        assert K.agg_avg(bat, gids, n).tolist() == [None]

    def test_min_max_int(self):
        bat = BAT.from_values(dt.INT, [5, 2, 9, None], coerce=True)
        gids, n = grouped(None, [0, 0, 1, 1])
        assert K.agg_min(bat, gids, n).tolist() == [2, 9]
        assert K.agg_max(bat, gids, n).tolist() == [5, 9]

    def test_min_max_all_nil_group(self):
        bat = BAT.from_values(dt.INT, [None], coerce=True)
        gids, n = grouped(None, [0])
        assert K.agg_min(bat, gids, n).tolist() == [None]
        assert K.agg_max(bat, gids, n).tolist() == [None]

    def test_min_max_strings(self):
        bat = BAT.from_values(dt.STRING, ["b", "a", None], coerce=True)
        gids, n = grouped(None, [0, 0, 0])
        assert K.agg_min(bat, gids, n).tolist() == ["a"]
        assert K.agg_max(bat, gids, n).tolist() == ["b"]

    def test_empty_weights_regression(self):
        # numpy's bincount returns int64 for empty weights; make sure
        # the FLOAT path survives an empty basic window
        bat = BAT.from_values(dt.FLOAT, [])
        gids, n = grouped(None, [], ngroups=1)
        assert K.agg_sum(bat, gids, n).tolist() == [None]

    def test_length_mismatch(self):
        bat = BAT.from_values(dt.INT, [1, 2])
        with pytest.raises(KernelError):
            K.agg_sum(bat, np.array([0], dtype=np.int64), 1)


class TestScalarAggregates:
    def test_count(self):
        bat = BAT.from_values(dt.INT, [1, None, 3], coerce=True)
        assert K.scalar_agg("count", bat) == 2

    def test_sum_int(self):
        bat = BAT.from_values(dt.INT, [1, 2])
        out = K.scalar_agg("sum", bat)
        assert out == 3 and isinstance(out, int)

    def test_avg(self):
        bat = BAT.from_values(dt.FLOAT, [1.0, 3.0])
        assert K.scalar_agg("avg", bat) == 2.0

    def test_min_max(self):
        bat = BAT.from_values(dt.INT, [4, 1, 9])
        assert K.scalar_agg("min", bat) == 1
        assert K.scalar_agg("max", bat) == 9

    def test_empty_input(self):
        bat = BAT.from_values(dt.INT, [])
        assert K.scalar_agg("count", bat) == 0
        assert K.scalar_agg("sum", bat) is None
        assert K.scalar_agg("min", bat) is None

    def test_unknown_op(self):
        bat = BAT.from_values(dt.INT, [1])
        with pytest.raises(KernelError):
            K.scalar_agg("median", bat)



BIG = 2 ** 53 + 1           # the first integer float64 cannot hold
HUGE = 2 ** 62


class TestIntPrecision:
    """INT SUM/MIN/MAX are exact in int64 on every path: the kernel,
    one-time queries, and both continuous modes. A SUM outside INT
    raises instead of wrapping."""

    CASES = [([BIG, 1], BIG + 1, 1, BIG),
             ([HUGE, HUGE - 1], 2 ** 63 - 1, HUGE - 1, HUGE),
             ([-HUGE, 1 - HUGE], 1 - 2 ** 63, -HUGE, 1 - HUGE)]

    @pytest.mark.parametrize("values,total,low,high", CASES)
    def test_kernel(self, values, total, low, high):
        bat = BAT.from_values(dt.INT, values + [None], coerce=True)
        gids, n = grouped(None, [0, 0, 0])
        assert K.agg_sum(bat, gids, n).tolist() == [total]
        assert K.agg_min(bat, gids, n).tolist() == [low]
        assert K.agg_max(bat, gids, n).tolist() == [high]
        assert K.scalar_agg("sum", bat) == total

    @pytest.mark.parametrize("values", [[HUGE, HUGE], [-HUGE, -HUGE],
                                        [2 ** 63 - 1, 3, -1]])
    def test_sum_out_of_range_raises(self, values):
        bat = BAT.from_values(dt.INT, values)
        gids, n = grouped(None, [0] * len(values))
        with pytest.raises(KernelError, match="out of range"):
            K.agg_sum(bat, gids, n)
        with pytest.raises(KernelError, match="out of range"):
            K.scalar_agg("sum", bat)

    def test_sum_wrapping_through_int64_stays_exact(self):
        # the running sum leaves int64 and comes back: the result fits
        values = [2 ** 63 - 1, 2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63 - 1), 7]
        bat = BAT.from_values(dt.INT, values)
        gids, n = grouped(None, [0] * len(values))
        assert K.agg_sum(bat, gids, n).tolist() == [7]

    @pytest.mark.parametrize("values,total,low,high", CASES)
    def test_one_time_query(self, values, total, low, high):
        engine = DataCellEngine()
        engine.execute("CREATE TABLE t (k INT, x INT)")
        engine.execute("INSERT INTO t VALUES " + ", ".join(
            f"(1, {v})" for v in values))
        assert engine.execute(
            "SELECT k, sum(x), min(x), max(x) FROM t GROUP BY k"
        ).to_rows() == [(1, total, low, high)]
        assert engine.execute(
            "SELECT sum(x), min(x), max(x) FROM t").to_rows() == [
                (total, low, high)]

    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    @pytest.mark.parametrize("values,total,low,high", CASES)
    def test_continuous_modes(self, mode, values, total, low, high):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, x INT)")
        grouped_q = engine.register_continuous(
            "SELECT k, sum(x), min(x), max(x) FROM s [RANGE 2 SLIDE 1] "
            "GROUP BY k", mode=mode, name="g")
        engine.register_continuous(
            "SELECT sum(x) FROM s [RANGE 2 SLIDE 1]", mode=mode, name="s")
        assert grouped_q.mode == mode
        engine.feed("s", [(1, v) for v in values])
        engine.step()
        assert not engine.scheduler.failed, engine.scheduler.failed
        assert engine.results("g").batches[-1][1].to_rows() == [
            (1, total, low, high)]
        assert engine.results("s").batches[-1][1].to_rows() == [(total,)]

    @pytest.mark.parametrize("mode", ["reeval", "incremental"])
    def test_continuous_sum_out_of_range_fails_the_query(self, mode):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, x INT)")
        engine.register_continuous(
            "SELECT k, sum(x) FROM s [RANGE 2 SLIDE 1] GROUP BY k",
            mode=mode, name="g")
        engine.feed("s", [(1, HUGE), (1, HUGE)])
        engine.step()
        assert [f.query_name for f in engine.scheduler.failed] == ["g"]
        assert "out of range" in str(engine.scheduler.failed[0])

class TestCalcArith:
    def test_add_int(self):
        a = BAT.from_values(dt.INT, [1, 2])
        out = K.calc_arith("+", a, 10)
        assert out.dtype is dt.INT and out.tolist() == [11, 12]

    def test_nil_propagates(self):
        a = BAT.from_values(dt.INT, [1, None], coerce=True)
        assert K.calc_arith("+", a, 1).tolist() == [2, None]

    def test_div_always_float(self):
        a = BAT.from_values(dt.INT, [7])
        out = K.calc_arith("/", a, 2)
        assert out.dtype is dt.FLOAT and out.tolist() == [3.5]

    def test_div_by_zero_is_nil(self):
        a = BAT.from_values(dt.INT, [7, 8])
        b = BAT.from_values(dt.INT, [0, 2])
        assert K.calc_arith("/", a, b).tolist() == [None, 4.0]

    def test_mod_by_zero_is_nil(self):
        a = BAT.from_values(dt.INT, [7])
        assert K.calc_arith("%", a, 0).tolist() == [None]

    def test_mixed_int_float_widens(self):
        a = BAT.from_values(dt.INT, [1])
        b = BAT.from_values(dt.FLOAT, [0.5])
        out = K.calc_arith("+", a, b)
        assert out.dtype is dt.FLOAT and out.tolist() == [1.5]

    def test_string_concat(self):
        a = BAT.from_values(dt.STRING, ["x", None], coerce=True)
        b = BAT.from_values(dt.STRING, ["y", "z"], coerce=True)
        assert K.calc_arith("+", a, b).tolist() == ["xy", None]

    def test_string_mul_rejected(self):
        a = BAT.from_values(dt.STRING, ["x"], coerce=True)
        with pytest.raises(KernelError):
            K.calc_arith("*", a, a)

    def test_length_mismatch(self):
        a = BAT.from_values(dt.INT, [1])
        b = BAT.from_values(dt.INT, [1, 2])
        with pytest.raises(KernelError):
            K.calc_arith("+", a, b)

    def test_neg(self):
        a = BAT.from_values(dt.INT, [1, None], coerce=True)
        assert K.calc_neg(a).tolist() == [-1, None]


class TestCalcCompare:
    def test_three_valued_result(self):
        a = BAT.from_values(dt.INT, [1, 5, None], coerce=True)
        out = K.calc_cmp(">", a, 2)
        assert out.dtype is dt.BOOLEAN
        assert out.values.tolist() == [0, 1, -1]

    def test_string_compare(self):
        a = BAT.from_values(dt.STRING, ["a", "c", None], coerce=True)
        out = K.calc_cmp("<", a, "b")
        assert out.values.tolist() == [1, 0, -1]

    def test_string_vs_number_rejected(self):
        a = BAT.from_values(dt.STRING, ["a"], coerce=True)
        with pytest.raises(KernelError):
            K.calc_cmp("==", a, 1)

    def test_int_float_compare(self):
        a = BAT.from_values(dt.INT, [1, 2])
        b = BAT.from_values(dt.FLOAT, [1.0, 2.5])
        assert K.calc_cmp("==", a, b).values.tolist() == [1, 0]


class TestKleeneLogic:
    def tvl(self, *vals):
        return BAT.from_array(dt.BOOLEAN, np.array(vals, dtype=np.int8))

    def test_and_truth_table(self):
        a = self.tvl(1, 1, 1, 0, 0, 0, -1, -1, -1)
        b = self.tvl(1, 0, -1, 1, 0, -1, 1, 0, -1)
        assert K.calc_and(a, b).values.tolist() == \
            [1, 0, -1, 0, 0, 0, -1, 0, -1]

    def test_or_truth_table(self):
        a = self.tvl(1, 1, 1, 0, 0, 0, -1, -1, -1)
        b = self.tvl(1, 0, -1, 1, 0, -1, 1, 0, -1)
        assert K.calc_or(a, b).values.tolist() == \
            [1, 1, 1, 1, 0, -1, 1, -1, -1]

    def test_not(self):
        a = self.tvl(1, 0, -1)
        assert K.calc_not(a).values.tolist() == [0, 1, -1]

    def test_isnil_two_valued(self):
        a = BAT.from_values(dt.INT, [1, None], coerce=True)
        assert K.calc_isnil(a).values.tolist() == [0, 1]


class TestCast:
    def test_int_to_float(self):
        a = BAT.from_values(dt.INT, [1, None], coerce=True)
        out = K.calc_cast(a, dt.FLOAT)
        assert out.dtype is dt.FLOAT and out.tolist() == [1.0, None]

    def test_float_to_int_truncates(self):
        a = BAT.from_values(dt.FLOAT, [1.9, None], coerce=True)
        assert K.calc_cast(a, dt.INT).tolist() == [1, None]

    def test_to_string(self):
        a = BAT.from_values(dt.INT, [42, None], coerce=True)
        assert K.calc_cast(a, dt.STRING).tolist() == ["42", None]

    def test_string_to_int(self):
        a = BAT.from_values(dt.STRING, ["12", None], coerce=True)
        assert K.calc_cast(a, dt.INT).tolist() == [12, None]

    def test_string_to_float(self):
        a = BAT.from_values(dt.STRING, ["1.5"], coerce=True)
        assert K.calc_cast(a, dt.FLOAT).tolist() == [1.5]

    def test_to_boolean(self):
        a = BAT.from_values(dt.INT, [0, 3, None], coerce=True)
        assert K.calc_cast(a, dt.BOOLEAN).tolist() == [False, True, None]

    def test_identity_cast_copies(self):
        a = BAT.from_values(dt.INT, [1])
        out = K.calc_cast(a, dt.INT)
        out.append(2)
        assert len(a) == 1

    def test_boolean_to_string(self):
        a = BAT.from_array(dt.BOOLEAN, np.array([1, 0], dtype=np.int8))
        assert K.calc_cast(a, dt.STRING).tolist() == ["true", "false"]

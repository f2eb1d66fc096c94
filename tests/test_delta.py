"""Z-set delta execution (:mod:`repro.core.delta`): unit tests for the
delta bounds, weighted kernels, the min/max extreme bag, plus
engine-level coverage of the fallback ladder, non-divisible slides,
time-window retraction storms, fingerprint chaining and the recycler
admission/decay knobs that ride along in this change."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.basket import Basket
from repro.core.delta import _ExtremeBag
from repro.core.engine import DataCellEngine
from repro.core.incremental import UnsupportedIncremental
from repro.core.recycler import REUSE_DECAY_SCANS, Recycler
from repro.core.windows import WindowSpec, WindowState
from repro.errors import WindowError
from repro.mal import kernel as K
from repro.mal.bat import BAT
from repro.storage import Schema
from repro.storage import types as dt
from repro.streams.source import ListSource, RateSource


# ---------------------------------------------------------------------------
# delta bounds: the Z-set difference of consecutive windows
# ---------------------------------------------------------------------------


@pytest.fixture
def basket():
    return Basket("s", Schema.parse([("k", "INT")]))


def fill(basket, n, start_ts=0, step_ts=0):
    for i in range(n):
        basket.append_rows([(i,)], now=start_ts + i * step_ts)


class TestDeltaBounds:
    def test_first_firing_is_all_arrivals(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 4)
        window, arrive, expire = state.delta_bounds(0)
        assert window == (0, 4)
        assert arrive == (0, 4)
        assert expire[0] == expire[1]

    def test_sliding_diff(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 6)
        state.advance(0, retain_expired=True)
        window, arrive, expire = state.delta_bounds(0)
        assert window == (2, 6)
        assert arrive == (4, 6)
        assert expire == (0, 2)

    def test_expiry_slice_stays_readable(self, basket):
        """The retraction slice [plo, lo) must survive the advance
        that follows the previous firing (retain_expired=True)."""
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 6)
        state.advance(0, retain_expired=True)
        basket.vacuum()
        _, _, (elo, ehi) = state.delta_bounds(0)
        lo, hi = basket.clamp_range(elo, ehi)
        assert (lo, hi) == (elo, ehi)  # nothing clamped away
        assert basket.relation(elo, ehi).row_count == ehi - elo

    def test_eager_release_frees_expiry_slice(self, basket):
        """Without retain_expired the old slice is gone — documents
        why reeval/incremental cursors cannot feed the delta mode."""
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 6)
        state.advance(0)
        basket.vacuum()
        _, _, (elo, ehi) = state.delta_bounds(0)
        assert basket.clamp_range(elo, ehi) != (elo, ehi)

    def test_tumbling_has_no_overlap(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 3), basket, sub)
        fill(basket, 6)
        state.advance(0, retain_expired=True)
        window, arrive, expire = state.delta_bounds(0)
        assert window == (3, 6)
        assert arrive == (3, 6)
        assert expire == (0, 3)

    def test_unwindowed_has_no_delta_bounds(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec.none(), basket, sub)
        with pytest.raises(WindowError):
            state.delta_bounds(0)


# ---------------------------------------------------------------------------
# weighted kernels
# ---------------------------------------------------------------------------


class TestWeightedKernels:
    def test_weighted_count_signed(self):
        gids = np.array([0, 0, 1, 0], dtype=np.int64)
        w = np.array([1, 1, 1, -1], dtype=np.int64)
        assert K.weighted_count(gids, w, 2).tolist() == [1, 1]

    def test_weighted_count_empty(self):
        assert K.weighted_count(np.empty(0, np.int64),
                                np.empty(0, np.int64), 3).tolist() \
            == [0, 0, 0]

    def test_weighted_sum_skips_nil(self):
        bat = BAT.from_values(dt.FLOAT, [1.0, None, 3.0, 1.0],
                              coerce=True)
        gids = np.array([0, 0, 0, 0], dtype=np.int64)
        w = np.array([1, 1, 1, -1], dtype=np.int64)
        sums, counts = K.weighted_sum(bat, gids, w, 1)
        assert sums.tolist() == [3.0]
        assert counts.tolist() == [1]

    def test_weighted_moments_retraction_cancels(self):
        bat = BAT.from_values(dt.FLOAT, [2.0, 4.0, 4.0])
        gids = np.zeros(3, dtype=np.int64)
        w = np.array([1, 1, -1], dtype=np.int64)
        n, s, ss = K.weighted_moments(bat, gids, w, 1)
        assert n.tolist() == [1.0]
        assert s.tolist() == [2.0]
        assert ss.tolist() == [4.0]

    def test_zset_consolidate_cancels_pairs(self):
        keys = BAT.from_values(dt.INT, [7, 7, 8, 8, 9])
        w = np.array([1, -1, 1, 1, -1], dtype=np.int64)
        reps, sums = K.zset_consolidate([keys], w)
        out = {int(keys.values[r]): int(s)
               for r, s in zip(reps.tolist(), sums.tolist())}
        assert out == {8: 2, 9: -1}

    def test_zset_consolidate_empty(self):
        reps, sums = K.zset_consolidate([], np.empty(0, np.int64))
        assert reps.tolist() == [] and sums.tolist() == []


# ---------------------------------------------------------------------------
# min/max extreme bag
# ---------------------------------------------------------------------------


class TestExtremeBag:
    def test_tracks_max_without_rescan(self):
        counter = [0]
        bag = _ExtremeBag(take_min=False, rescan_counter=counter)
        for v in (1.0, 5.0, 3.0):
            bag.add(v, 1)
        assert bag.current() == 5.0
        assert counter[0] == 0

    def test_retracting_extreme_forces_rescan(self):
        counter = [0]
        bag = _ExtremeBag(take_min=False, rescan_counter=counter)
        for v in (1.0, 5.0, 3.0):
            bag.add(v, 1)
        bag.add(5.0, -1)
        assert bag.current() == 3.0
        assert counter[0] == 1

    def test_retracting_non_extreme_is_free(self):
        counter = [0]
        bag = _ExtremeBag(take_min=True, rescan_counter=counter)
        for v in (1.0, 5.0, 3.0):
            bag.add(v, 1)
        bag.add(5.0, -1)
        assert bag.current() == 1.0
        assert counter[0] == 0

    def test_transient_negative_multiplicity(self):
        """Within one firing the expiry side may apply before the
        arrival side; a value dipping below zero and coming back must
        not corrupt the extreme."""
        counter = [0]
        bag = _ExtremeBag(take_min=False, rescan_counter=counter)
        bag.add(5.0, 1)
        bag.add(7.0, -1)   # cross-term retraction arrives first
        bag.add(7.0, 1)    # cancelled: net weight zero
        assert bag.current() == 5.0
        bag.add(7.0, 1)    # now a real insert
        assert bag.current() == 7.0
        bag.add(7.0, -1)   # dips to zero while cached as extreme
        bag.add(7.0, 1)
        assert bag.current() == 7.0
        bag.add(7.0, -1)   # retract it for real
        assert bag.current() == 5.0

    def test_duplicate_values_need_full_retraction(self):
        counter = [0]
        bag = _ExtremeBag(take_min=False, rescan_counter=counter)
        bag.add(9.0, 2)
        bag.add(1.0, 1)
        bag.add(9.0, -1)
        assert bag.current() == 9.0   # one copy still live
        bag.add(9.0, -1)
        assert bag.current() == 1.0


# ---------------------------------------------------------------------------
# engine-level: mode resolution, fallback ladder, non-divisible slides
# ---------------------------------------------------------------------------


def normalize(row):
    """Round floats: running Z-set sums are not associative with the
    full-window sums reeval computes (tiny addends can be absorbed),
    and ``+ 0.0`` folds a cancelled ``-0.0`` into ``+0.0``."""
    return tuple(round(v, 6) + 0.0 if isinstance(v, float) else v
                 for v in row)


def run_engine(rows, query, mode, **engine_kwargs):
    engine = DataCellEngine(**engine_kwargs)
    engine.execute("CREATE STREAM s (k INT, v FLOAT)")
    q = engine.register_continuous(query, mode=mode, name="q")
    engine.attach_source("s", RateSource(rows, rate=100000))
    engine.run_until_drained()
    assert not engine.scheduler.failed, engine.scheduler.failed
    batches = [sorted(map(repr, map(normalize, r.to_rows())))
               for _t, r in engine.results("q").batches]
    return engine, q.mode, batches


ROWS = [(i % 4, float((i * 7) % 23)) for i in range(60)]


class TestModeResolution:
    def test_non_divisible_slide_delta_only(self):
        query = ("SELECT k, count(*), sum(v) FROM s [RANGE 10 SLIDE 3] "
                 "GROUP BY k")
        with pytest.raises(UnsupportedIncremental):
            run_engine(ROWS, query, "incremental")
        _, m1, r1 = run_engine(ROWS, query, "reeval")
        _, m3, r3 = run_engine(ROWS, query, "delta")
        assert m3 == "delta"
        assert r1 == r3
        assert len(r3) == (60 - 10) // 3 + 1

    def test_delta_falls_back_to_reeval(self):
        # DISTINCT aggregates have no mergeable/delta state
        query = ("SELECT k, count(DISTINCT v) FROM s [RANGE 10 SLIDE 5] "
                 "GROUP BY k")
        _, mode, _ = run_engine(ROWS, query, "delta")
        assert mode == "reeval"

    def test_delta_on_unwindowed_falls_back(self):
        _, mode, _ = run_engine(ROWS, "SELECT k, v FROM s WHERE v > 3",
                                "delta")
        assert mode == "reeval"

    def test_auto_still_prefers_incremental(self):
        query = "SELECT count(*) FROM s [RANGE 10 SLIDE 5]"
        _, mode, _ = run_engine(ROWS, query, "auto")
        assert mode == "incremental"


class TestTimeWindowRetractions:
    def drive(self, mode):
        """A burst followed by silence: each slide retracts most of the
        window while adding little — the retraction-heavy shrink path."""
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        q = engine.register_continuous(
            "SELECT k, count(*), sum(v), min(v), max(v) FROM s "
            "[RANGE 4 SECONDS SLIDE 1 SECONDS] GROUP BY k",
            mode=mode, name="q")
        events = [(i * 10, (i % 3, float(i))) for i in range(100)]
        events += [(6000 + i * 500, (i % 2, float(i))) for i in range(4)]
        engine.attach_source("s", ListSource(events))
        engine.run_for(14000, step_ms=100)
        assert not engine.scheduler.failed, engine.scheduler.failed
        return q.mode, [sorted(map(repr, r.to_rows()))
                        for _t, r in engine.results("q").batches]

    def test_shrinking_windows_agree(self):
        m1, r1 = self.drive("reeval")
        m3, r3 = self.drive("delta")
        assert m1 == "reeval" and m3 == "delta"
        assert r1 == r3
        # the storyline actually exercised shrink-to-empty windows
        assert any(not batch for batch in r3)


# ---------------------------------------------------------------------------
# hypothesis: three-way equivalence on retraction-heavy geometries
# ---------------------------------------------------------------------------


@st.composite
def delta_case(draw):
    n = draw(st.integers(10, 60))
    rows = [(draw(st.integers(0, 3)),
             draw(st.one_of(st.none(),
                            st.floats(-20, 20, allow_nan=False))))
            for _ in range(n)]
    size = draw(st.integers(2, 16))
    slide = draw(st.integers(1, size))  # any slide <= size, divisible
    return rows, size, slide            # or not


class TestPropertyDeltaEquivalence:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(delta_case())
    def test_random_geometries_agree(self, case):
        rows, size, slide = case
        query = (f"SELECT k, count(*), count(v), sum(v), avg(v), "
                 f"min(v), max(v) FROM s [RANGE {size} SLIDE {slide}] "
                 f"GROUP BY k")
        _, _, r1 = run_engine(rows, query, "reeval")
        _, m3, r3 = run_engine(rows, query, "delta")
        assert m3 == "delta"
        assert r1 == r3

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(delta_case())
    def test_random_select_project_agree(self, case):
        rows, size, slide = case
        query = (f"SELECT k, v * 2 FROM s [RANGE {size} SLIDE {slide}] "
                 f"WHERE v > 0")
        _, _, r1 = run_engine(rows, query, "reeval")
        _, m3, r3 = run_engine(rows, query, "delta")
        assert m3 == "delta"
        assert r1 == r3


# ---------------------------------------------------------------------------
# satellite: slice adoption from incremental/delta emissions
# ---------------------------------------------------------------------------


class TestChainedEmits:
    def chained_engine(self, mode):
        engine = DataCellEngine(recycler_enabled=True)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) sv FROM s [RANGE 10 SLIDE 5] GROUP BY k",
            mode=mode, name="stage1", output_stream="mid")
        engine.register_continuous(
            "SELECT k, sv FROM mid WHERE sv > 0", mode="reeval",
            name="stage2")
        rows = [(i % 4, float(i % 7)) for i in range(200)]
        # slow enough that the stages interleave: each stage1 emission
        # is scanned by stage2 before the next one lands, so the
        # adopted oid range matches the downstream window exactly
        engine.attach_source("s", RateSource(rows, rate=5000))
        engine.run_until_drained()
        assert not engine.scheduler.failed, engine.scheduler.failed
        return engine

    @pytest.mark.parametrize("mode", ["incremental", "delta"])
    def test_emissions_are_adopted_and_chain(self, mode):
        engine = self.chained_engine(mode)
        assert engine.continuous_query("stage1").mode == mode
        stats = engine.recycler.stats()
        assert stats["chain_stamped"] > 0
        assert stats["chain_hits"] > 0
        assert engine.results("stage2").rows()  # results flowed through


# ---------------------------------------------------------------------------
# satellite: recycler reuse decay
# ---------------------------------------------------------------------------


def int_payload(n=64):
    return np.arange(n, dtype=np.int64)


class TestReuseDecay:
    def test_decay_halves_reuse_counters(self):
        rec = Recycler()
        key = rec.instruction_key("fp", [("s", 0, 10)])
        rec.store(key, int_payload(), cost_ms=1.0)
        for _ in range(8):
            rec.lookup(key)
        entry = rec._entries[key]
        assert entry.reuses == 8
        for _ in range(REUSE_DECAY_SCANS):
            rec.evict_dead({})
        assert entry.reuses == 4
        assert rec.stats()["reuse_decays"] == 1

    def test_decay_runs_even_when_empty(self):
        rec = Recycler()
        for _ in range(REUSE_DECAY_SCANS):
            rec.evict_dead({})
        assert rec.stats()["reuse_decays"] == 1


# ---------------------------------------------------------------------------
# basket conservation + monitor pane
# ---------------------------------------------------------------------------


class TestDeltaHousekeeping:
    def test_basket_release_lags_one_window(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) FROM s [RANGE 10 SLIDE 5] GROUP BY k",
            mode="delta", name="q")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        basket = engine.basket("s")
        assert basket.total_in == 60
        assert basket.total_in == basket.total_dropped + len(basket)
        # delta retains the window plus the next retraction slice
        assert len(basket) <= 10 + 5

    def test_monitor_surfaces_delta_state(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v), min(v) FROM s [RANGE 10 SLIDE 5] "
            "GROUP BY k", mode="delta", name="q")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        pane = engine.monitor.analysis()
        assert "delta: in=" in pane
        inter = engine.monitor.intermediates("q")
        assert "aggregate state" in inter or "group" in inter

    def test_delta_stats_exposed(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        q = engine.register_continuous(
            "SELECT k, min(v) FROM s [RANGE 10 SLIDE 5] GROUP BY k",
            mode="delta", name="q")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        stats = q.factory.stats()
        assert stats["delta_rows_in"] > 0
        assert stats["delta_state_rows"] >= 0
        assert stats["delta_state_bytes"] > 0

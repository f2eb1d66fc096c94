"""The shared-work layer: structural fingerprints + the intermediate
recycler.

Covers fingerprint canonicalization (SSA-name independence, constant
and stream sensitivity, recyclability verdicts), the recycler's
eviction / invalidation mechanics, and the end-to-end equivalence guarantee:
recycler-on and recycler-off engines emit byte-identical results for
the same workload (filter fleets, windowed aggregates, joins).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.basket import Basket
from repro.core.engine import DataCellEngine
from repro.core.recycler import (REUSE_DECAY_SCANS, Recycler,
                                 payload_nbytes, payloads_equal)
from repro.mal.bat import BAT
from repro.mal.fingerprint import fingerprint_program
from repro.mal.program import Const, Instruction, MALProgram, Var
from repro.mal.relation import Relation
from repro.storage import types as dt
from repro.storage.schema import Schema
from repro.streams.source import RateSource


def filter_program(stream="s", column="v", threshold=1.5, offset=0):
    """A hand-built select-project factory body with controllable SSA
    numbering (*offset*) so renaming invariance can be exercised."""
    p = MALProgram(kind="factory")
    b, c, o = (f"X_{offset + i}" for i in range(1, 4))
    p.append(Instruction([b], "basket.bind",
                         [Const(stream), Const(column)]))
    p.append(Instruction([c], "algebra.thetaselect",
                         [Var(b), Const(threshold), Const(">")]))
    p.append(Instruction([o], "algebra.projection", [Var(c), Var(b)]))
    p.append(Instruction([], "sql.resultSet", [Var(o)]))
    return p


class TestFingerprint:
    def test_ssa_renaming_invariant(self):
        a = fingerprint_program(filter_program(offset=0))
        b = fingerprint_program(filter_program(offset=40))
        assert [i.fp for i in a if i] == [i.fp for i in b if i]

    def test_constant_sensitivity(self):
        a = fingerprint_program(filter_program(threshold=1.5))
        b = fingerprint_program(filter_program(threshold=2.5))
        assert a[0].fp == b[0].fp        # same bind
        assert a[1].fp != b[1].fp        # different select constant
        assert a[2].fp != b[2].fp        # lineage difference propagates

    def test_constant_type_sensitivity(self):
        a = fingerprint_program(filter_program(threshold=1))
        b = fingerprint_program(filter_program(threshold=1.0))
        assert a[1].fp != b[1].fp

    def test_stream_sensitivity_and_scoping(self):
        a = fingerprint_program(filter_program(stream="s"))
        b = fingerprint_program(filter_program(stream="s2"))
        assert a[0].fp != b[0].fp
        assert a[1].streams == frozenset({"s"})
        assert b[1].streams == frozenset({"s2"})

    def test_side_effects_and_binds_not_recyclable(self):
        infos = fingerprint_program(filter_program())
        assert infos[3] is None                  # resultSet
        assert not infos[0].recyclable           # basket.bind (anchor)
        assert infos[1].recyclable and infos[2].recyclable

    def test_table_bind_taints_downstream(self):
        p = MALProgram(kind="factory")
        p.append(Instruction(["T_1"], "sql.bind",
                             [Const("dim"), Const("label")]))
        p.append(Instruction(["T_2"], "algebra.projection",
                             [Var("T_1"), Var("T_1")]))
        infos = fingerprint_program(p)
        assert not infos[0].recyclable
        assert not infos[1].recyclable

    def test_unknown_var_not_recyclable(self):
        p = MALProgram(kind="factory")
        p.append(Instruction(["Y_1"], "algebra.projection",
                             [Var("never_bound"), Var("never_bound")]))
        assert not fingerprint_program(p)[0].recyclable

    def test_engine_program_fingerprints_match_across_queries(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        q1 = engine.register_continuous("SELECT k FROM s WHERE v > 1",
                                        name="a")
        q2 = engine.register_continuous("SELECT k FROM s WHERE v > 1",
                                        name="b")
        q3 = engine.register_continuous("SELECT k FROM s WHERE v > 2",
                                        name="c")
        fps = [[i.fp for i in fingerprint_program(q.continuous_program)
                if i] for q in (q1, q2, q3)]
        assert fps[0] == fps[1]
        assert fps[0] != fps[2]


def int_bat(values):
    return BAT.from_values(dt.INT, list(values))


class TestRecyclerMechanics:
    def test_window_slice_shared_object(self):
        basket = Basket("s", Schema.parse([("k", "INT")]))
        basket.append_rows([(1,), (2,)], now=0)
        rec = Recycler()
        rel1, rng1 = rec.window_slice(basket, 0, 2)
        rel2, rng2 = rec.window_slice(basket, None, None)
        assert rel1 is rel2                       # one materialization
        assert rng1 == rng2 == (0, 2)
        assert rec.stats()["slice_hits"] == 1
        assert rec.stats()["slice_misses"] == 1

    def test_lookup_store_roundtrip(self):
        rec = Recycler()
        key = rec.instruction_key("abcd", [("s", 0, 10)])
        assert rec.lookup(key) == (False, None)
        rec.store(key, int_bat([1, 2, 3]))
        found, value = rec.lookup(key)
        assert found and value.values.tolist() == [1, 2, 3]
        stats = rec.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_key_is_range_sensitive(self):
        rec = Recycler()
        k1 = rec.instruction_key("abcd", [("s", 0, 10)])
        k2 = rec.instruction_key("abcd", [("s", 10, 20)])
        assert k1 != k2
        # range order never matters
        k3 = rec.instruction_key("abcd", [("s", 0, 5), ("t", 0, 5)])
        k4 = rec.instruction_key("abcd", [("t", 0, 5), ("s", 0, 5)])
        assert k3 == k4

    def test_lru_eviction_under_byte_budget(self):
        one_kb = np.zeros(128, dtype=np.int64)
        rec = Recycler(budget_bytes=3 * one_kb.nbytes)
        keys = [rec.instruction_key(f"fp{i}", [("s", i, i + 1)])
                for i in range(5)]
        for key in keys:
            rec.store(key, one_kb.copy())
        assert len(rec) == 3
        assert rec.stats()["evictions"] == 2
        assert rec.bytes_used <= rec.budget_bytes
        # the oldest entries were the victims
        assert rec.lookup(keys[0])[0] is False
        assert rec.lookup(keys[4])[0] is True

    def test_lru_recency_protects_entries(self):
        item = np.zeros(128, dtype=np.int64)
        rec = Recycler(budget_bytes=2 * item.nbytes)
        k = [rec.instruction_key(f"fp{i}", [("s", i, i + 1)])
             for i in range(3)]
        rec.store(k[0], item.copy())
        rec.store(k[1], item.copy())
        rec.lookup(k[0])                  # refresh: k[1] becomes LRU
        rec.store(k[2], item.copy())
        assert rec.lookup(k[0])[0] is True
        assert rec.lookup(k[1])[0] is False

    def test_oversized_payload_not_cached(self):
        rec = Recycler(budget_bytes=64)
        key = rec.instruction_key("big", [("s", 0, 1)])
        rec.store(key, np.zeros(1024, dtype=np.int64))
        assert len(rec) == 0

    def test_evict_dead_drops_vacuumed_windows(self):
        rec = Recycler()
        old = rec.instruction_key("fp", [("s", 0, 10)])
        live = rec.instruction_key("fp", [("s", 10, 20)])
        straddle = rec.instruction_key("fp", [("s", 5, 15)])
        for key in (old, live, straddle):
            rec.store(key, int_bat([1]))
        assert rec.evict_dead({"s": 10}) == 1
        assert rec.lookup(old)[0] is False
        assert rec.lookup(live)[0] is True
        assert rec.lookup(straddle)[0] is True
        assert rec.stats()["invalidations"] == 1

    def test_evict_dead_needs_all_ranges_dead(self):
        rec = Recycler()
        key = rec.instruction_key("fp", [("s", 0, 10), ("t", 0, 10)])
        rec.store(key, int_bat([1]))
        assert rec.evict_dead({"s": 50}) == 0     # t still unknown/live
        assert rec.evict_dead({"s": 50, "t": 50}) == 1

    def test_purge_basket(self):
        rec = Recycler()
        basket = Basket("s", Schema.parse([("k", "INT")]))
        basket.append_rows([(1,)], now=0)
        rec.window_slice(basket, None, None)
        rec.store(rec.instruction_key("fp", [("s", 0, 1)]), int_bat([1]))
        rec.store(rec.instruction_key("fp", [("t", 0, 1)]), int_bat([2]))
        assert rec.purge_basket("s") == 2          # slice + instruction
        assert len(rec) == 1
        assert rec.bytes_used == payload_nbytes(int_bat([2]))

    def test_disabled_recycler_is_inert(self):
        rec = Recycler(enabled=False)
        basket = Basket("s", Schema.parse([("k", "INT")]))
        basket.append_rows([(1,)], now=0)
        rel1, _ = rec.window_slice(basket, None, None)
        rel2, _ = rec.window_slice(basket, None, None)
        assert rel1 is not rel2
        key = rec.instruction_key("fp", [("s", 0, 1)])
        rec.store(key, int_bat([1]))
        assert rec.lookup(key) == (False, None)
        assert len(rec) == 0

    def test_payload_nbytes_shapes(self):
        arr = np.zeros(10, dtype=np.int64)
        assert payload_nbytes(arr) == 80
        assert payload_nbytes(int_bat([1, 2])) == 16
        rel = Relation([("a", int_bat([1, 2])), ("b", int_bat([3, 4]))])
        assert payload_nbytes(rel) == 32
        assert payload_nbytes((arr, arr)) == 160
        assert payload_nbytes(None) == 64

    def test_payloads_equal(self):
        assert payloads_equal(int_bat([1, 2]), int_bat([1, 2]))
        assert not payloads_equal(int_bat([1, 2]), int_bat([1, 3]))
        nan = np.array([1.0, float("nan")])
        assert payloads_equal(nan, nan.copy())
        svals = np.array(["a", None], dtype=object)
        assert payloads_equal(svals, svals.copy())
        assert not payloads_equal(np.zeros(2), np.zeros(3))
        assert payloads_equal((1, 2.0), (1, 2.0))
        assert not payloads_equal(int_bat([1]), np.array([1]))


class TestBenefitEviction:
    """Benefit-density eviction (cost × reuses / bytes) on sequences
    where it disagrees with plain recency order."""

    def _keys(self, rec, n):
        return [rec.instruction_key(f"fp{i}", [("s", i, i + 1)])
                for i in range(n)]

    def test_costly_entry_survives_cheap_newcomer(self):
        # LRU would evict the oldest entry; benefit keeps the one that
        # is expensive to recompute and sheds the near-free newcomer
        item = np.zeros(128, dtype=np.int64)
        rec = Recycler(budget_bytes=2 * item.nbytes)
        k = self._keys(rec, 3)
        rec.store(k[0], item.copy(), cost_ms=50.0)   # oldest, costly
        rec.store(k[1], item.copy(), cost_ms=0.001)  # newer, near-free
        rec.store(k[2], item.copy(), cost_ms=1.0)
        assert rec.lookup(k[0])[0] is True
        assert rec.lookup(k[1])[0] is False
        assert rec.stats()["evictions"] == 1

    def test_reuses_raise_density(self):
        # equal cost and size: the reused entry outranks the idle one
        # even though it is older
        item = np.zeros(128, dtype=np.int64)
        rec = Recycler(budget_bytes=2 * item.nbytes)
        k = self._keys(rec, 3)
        rec.store(k[0], item.copy(), cost_ms=1.0)
        rec.store(k[1], item.copy(), cost_ms=1.0)
        assert rec.lookup(k[0])[0] is True            # reuse bumps k0
        rec.store(k[2], item.copy(), cost_ms=1.0)
        assert rec.lookup(k[0])[0] is True
        assert rec.lookup(k[1])[0] is False

    def test_smaller_payload_wins_at_equal_cost(self):
        # same cost, same reuse: the big entry has the lower density
        big = np.zeros(256, dtype=np.int64)
        small = np.zeros(32, dtype=np.int64)
        rec = Recycler(budget_bytes=2 * big.nbytes)
        k = self._keys(rec, 3)
        rec.store(k[0], small.copy(), cost_ms=1.0)
        rec.store(k[1], big.copy(), cost_ms=1.0)
        rec.store(k[2], big.copy(), cost_ms=1.0)      # over budget
        assert rec.lookup(k[0])[0] is True
        assert rec.lookup(k[1])[0] is False

    def test_zero_cost_entries_degrade_to_lru_order(self):
        # without cost accounting every density is 0.0; the strictly-
        # less victim scan then keeps the recency order, so stores
        # without timings are evicted least-recently-used first
        item = np.zeros(128, dtype=np.int64)
        rec = Recycler(budget_bytes=2 * item.nbytes)
        k = self._keys(rec, 3)
        for key in k:
            rec.store(key, item.copy())
        assert rec.lookup(k[0])[0] is False
        assert rec.lookup(k[1])[0] is True
        assert rec.lookup(k[2])[0] is True

    def test_hit_accounting(self):
        rec = Recycler()
        key = rec.instruction_key("fp", [("s", 0, 4)])
        rec.store(key, int_bat([1, 2, 3, 4]), cost_ms=2.0)
        rec.lookup(key)
        rec.lookup(key)
        stats = rec.stats()
        assert stats["bytes_saved"] == 2 * payload_nbytes(
            int_bat([1, 2, 3, 4]))
        assert stats["cost_saved_ms"] == pytest.approx(4.0)


class TestChainAdoption:
    """Sharing across a stage boundary: the recycler adopts an output
    basket's appended payload as the slice for exactly that range."""

    def test_adopt_slice_resolves_downstream_scan(self):
        rec = Recycler()
        basket = Basket("mid", Schema.parse([("k", "INT")]))
        rel = Relation([("k", int_bat([1, 2]))])
        lo, hi = basket.append_relation(rel, now=0)
        rec.adopt_slice("mid", lo, hi, rel, cost_ms=5.0)
        got, rng = rec.window_slice(basket, lo, hi)
        assert got is rel                  # the emit payload itself
        assert rng == (lo, hi)
        stats = rec.stats()
        assert stats["chain_stamped"] == 1
        assert stats["chain_hits"] == 1
        assert stats["slice_hits"] == 1
        assert stats["slice_misses"] == 0
        assert stats["cost_saved_ms"] == pytest.approx(5.0)

    def test_adopt_empty_range_is_noop(self):
        rec = Recycler()
        rec.adopt_slice("mid", 3, 3, Relation([("k", int_bat([]))]))
        assert len(rec) == 0
        assert rec.stats()["chain_stamped"] == 0

    def test_partial_range_still_materializes(self):
        # a downstream window that covers only part of the emitted
        # range misses the adopted entry and materializes normally
        rec = Recycler()
        basket = Basket("mid", Schema.parse([("k", "INT")]))
        rel = Relation([("k", int_bat([1, 2, 3]))])
        lo, hi = basket.append_relation(rel, now=0)
        rec.adopt_slice("mid", lo, hi, rel, cost_ms=1.0)
        got, rng = rec.window_slice(basket, lo + 1, hi)
        assert got is not rel
        assert got.to_rows() == [(2,), (3,)]
        assert rng == (lo + 1, hi)
        assert rec.stats()["chain_hits"] == 0

    def test_chained_network_stage_boundary_hits(self):
        """End to end: a two-stage chained network resolves the
        downstream stage's scan of the output basket as a recycler
        chain hit, and the emitted results match a recycler-off run."""

        def setup(engine):
            engine.execute("CREATE STREAM s (k INT, v FLOAT)")
            engine.register_continuous(
                "SELECT k, v FROM s WHERE v > 0", name="stage1",
                mode="reeval", output_stream="mid")
            engine.register_continuous(
                "SELECT k, v FROM mid WHERE v > 1", name="stage2",
                mode="reeval")
            rows = [(i % 4, float(i % 5) - 1.0) for i in range(300)]
            engine.attach_source("s", RateSource(rows, rate=20000))
            return ["stage1", "stage2"]

        on_engine = DataCellEngine(recycler_enabled=True)
        names = setup(on_engine)
        on_engine.run_until_drained()
        assert not on_engine.scheduler.failed
        stats = on_engine.recycler.stats()
        assert stats["chain_stamped"] > 0
        assert stats["chain_hits"] > 0
        mid = on_engine.basket("mid")
        assert mid.total_in > 0
        assert run_workload(False, setup) == emitted(on_engine, names)


    def test_incremental_producer_emissions_are_adopted(self):
        """Adoption is per emit, not per mode: an incremental stage 1
        hands its window results to the downstream scan the same way."""
        engine = DataCellEngine(recycler_enabled=True)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) sv FROM s [RANGE 10 SLIDE 5] GROUP BY k",
            mode="incremental", name="stage1", output_stream="mid")
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
        assert engine.continuous_query("stage1").mode == "incremental"
        stats = engine.recycler.stats()
        assert stats["chain_stamped"] > 0
        assert stats["chain_hits"] > 0
        assert engine.results("stage2").rows()  # results flowed through


class TestReuseDecay:
    def test_decay_halves_reuse_counters(self):
        rec = Recycler()
        key = rec.instruction_key("fp", [("s", 0, 10)])
        rec.store(key, np.arange(64, dtype=np.int64), cost_ms=1.0)
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
# engine-level invalidation + counters
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def run_fleet(self, **engine_kwargs):
        engine = DataCellEngine(**engine_kwargs)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        for i in range(4):
            engine.register_continuous(
                f"SELECT k, v FROM s WHERE v > {i % 2}", name=f"q{i}")
        rows = [(i, float(i % 5)) for i in range(200)]
        engine.attach_source("s", RateSource(rows, rate=100000))
        engine.run_until_drained()
        assert not engine.scheduler.failed, engine.scheduler.failed
        return engine

    def test_hits_and_network_stats(self):
        engine = self.run_fleet()
        stats = engine.scheduler.network_stats()["recycler"]
        assert stats["hits"] > 0 and stats["slice_hits"] > 0
        assert "recycler [on]" in engine.monitor.analysis()

    def test_vacuum_invalidates_dead_windows(self):
        engine = self.run_fleet()
        stats = engine.recycler.stats()
        # unwindowed queries release eagerly: all drained windows died
        assert stats["invalidations"] > 0
        assert len(engine.recycler) == 0

    def test_drop_stream_purges(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous("SELECT k FROM s WHERE v > 0",
                                      name="q")
        engine.feed("s", [(1, 1.0), (2, 0.0)])
        engine.step(10)
        # pin an artificial live entry so the purge has work to do
        engine.recycler.store(
            engine.recycler.instruction_key("fp", [("s", 0, 99)]),
            int_bat([1]))
        engine.remove_query("q")
        engine.execute("DROP STREAM s")
        assert all("s" not in {r[0] for r in e.ranges}
                   for e in engine.recycler._entries.values())

    def test_disabled_engine_runs_without_recycler(self):
        engine = self.run_fleet(recycler_enabled=False)
        stats = engine.recycler.stats()
        assert stats["hits"] == 0 and stats["slice_hits"] == 0
        assert "recycler [off]" in engine.monitor.analysis()
        assert "recycler" not in engine.scheduler.network_stats()

    def test_verify_mode_clean_run(self):
        # equivalence mode: every hit is re-executed and compared; any
        # stale or wrongly-shared value fails the factory
        engine = self.run_fleet(recycler_verify=True)
        assert engine.recycler.stats()["hits"] > 0


# ---------------------------------------------------------------------------
# recycler-on == recycler-off equivalence (byte-identical emissions)
# ---------------------------------------------------------------------------


SENSOR_DDL = ("CREATE STREAM sensors (sensor_id INT, room INT, "
              "temperature FLOAT, humidity FLOAT)")


def emitted(engine, names):
    """Per-query emission log: (fire time, rows) pairs, unrounded."""
    return {name: [(t, r.to_rows()) for t, r in
                   engine.results(name).batches] for name in names}


def run_workload(recycler_enabled, setup):
    """Recycler on runs the default engine (compiled plans); off is
    the oracle — the bare interpreter with nothing on."""
    engine = DataCellEngine(recycler_enabled=recycler_enabled,
                            compile_plans=recycler_enabled)
    names = setup(engine)
    engine.run_until_drained()
    assert not engine.scheduler.failed, engine.scheduler.failed
    return emitted(engine, names)


def assert_recycler_transparent(setup):
    """Emissions must be byte-identical with the recycler on and
    off."""
    assert run_workload(True, setup) == run_workload(False, setup)


def sensor_rows_det(n):
    return [(i % 8, i % 4, float((i * 7) % 30), float(i % 100) / 2)
            for i in range(n)]


class TestEquivalence:
    def test_e2_filter_fleet(self):
        def setup(engine):
            engine.execute(SENSOR_DDL)
            for i in range(12):
                engine.register_continuous(
                    f"SELECT sensor_id, temperature FROM sensors "
                    f"WHERE temperature > {10 + (i % 4)}", name=f"q{i}")
            engine.attach_source(
                "sensors", RateSource(sensor_rows_det(2000), rate=50000))
            return [f"q{i}" for i in range(12)]

        assert_recycler_transparent(setup)

    def test_e3_windowed_aggregates(self):
        def setup(engine):
            engine.execute(SENSOR_DDL)
            for i, name in enumerate(["a", "b"]):
                engine.register_continuous(
                    "SELECT room, count(*), sum(temperature), "
                    "avg(humidity) FROM sensors "
                    "[RANGE 300 SLIDE 100] GROUP BY room ORDER BY room",
                    name=name, mode="reeval")
            engine.register_continuous(
                "SELECT min(temperature), max(temperature) FROM "
                "sensors [RANGE 200 SLIDE 50]", name="c", mode="reeval")
            engine.attach_source(
                "sensors", RateSource(sensor_rows_det(1500), rate=50000))
            return ["a", "b", "c"]

        assert_recycler_transparent(setup)

    def test_e5_joins(self):
        def setup(engine):
            engine.execute(SENSOR_DDL)
            engine.execute("CREATE STREAM alerts (room INT, level INT)")
            engine.execute(
                "CREATE TABLE rooms (room INT, name VARCHAR(8))")
            engine.execute("INSERT INTO rooms VALUES (0,'lab'), "
                           "(1,'hall'), (2,'attic'), (3,'cellar')")
            for name in ("j1", "j2"):
                engine.register_continuous(
                    "SELECT r.name, count(*) FROM sensors "
                    "[RANGE 200 SLIDE 100] s, rooms r "
                    "WHERE s.room = r.room GROUP BY r.name "
                    "ORDER BY r.name", name=name, mode="reeval")
            engine.register_continuous(
                "SELECT s.sensor_id, a.level FROM sensors "
                "[RANGE 100 SLIDE 50] s, alerts [RANGE 100 SLIDE 50] a "
                "WHERE s.room = a.room AND s.temperature > 12",
                name="j3", mode="reeval")
            engine.attach_source(
                "sensors", RateSource(sensor_rows_det(1000), rate=50000))
            engine.attach_source(
                "alerts", RateSource([(i % 4, i % 3) for i in range(500)],
                                     rate=25000))
            return ["j1", "j2", "j3"]

        assert_recycler_transparent(setup)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_property_random_streams_and_windows(self, data):
        n = data.draw(st.integers(20, 120), label="rows")
        rows = [(data.draw(st.integers(0, 3)),
                 data.draw(st.one_of(
                     st.none(),
                     st.floats(-50, 50, allow_nan=False))))
                for _ in range(n)]
        slide = data.draw(st.integers(1, 8), label="slide")
        size = slide * data.draw(st.integers(1, 5), label="factor")
        windowed = data.draw(st.booleans(), label="windowed")
        window = f" [RANGE {size} SLIDE {slide}]" if windowed else ""
        queries = [
            f"SELECT k, count(*), sum(v) FROM s{window} GROUP BY k "
            f"ORDER BY k",
            f"SELECT k, v FROM s{window} WHERE v > 0",
            f"SELECT k, v FROM s{window} WHERE v > 0",   # exact twin
        ]

        def setup(engine):
            engine.execute("CREATE STREAM s (k INT, v FLOAT)")
            for i, sql in enumerate(queries):
                engine.register_continuous(sql, name=f"q{i}",
                                           mode="reeval")
            engine.attach_source("s", RateSource(rows, rate=10000))
            return [f"q{i}" for i in range(len(queries))]

        assert_recycler_transparent(setup)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_property_chained_networks_on_equals_off(self, data):
        """off == on over randomized chained networks:
        a head stage feeding an output basket, a random fan-out of
        downstream consumers (some sharing identical plans), random
        thresholds and stream contents."""
        n = data.draw(st.integers(20, 100), label="rows")
        rows = [(data.draw(st.integers(0, 3)),
                 data.draw(st.floats(-20, 50, allow_nan=False)))
                for _ in range(n)]
        t_head = data.draw(st.integers(-5, 5), label="t_head")
        fanout = data.draw(st.integers(1, 3), label="fanout")
        tails = [data.draw(st.integers(-5, 5), label=f"t_tail{i}")
                 for i in range(fanout)]

        def setup(engine):
            engine.execute("CREATE STREAM s (k INT, v FLOAT)")
            engine.register_continuous(
                f"SELECT k, v FROM s WHERE v > {t_head}", name="head",
                mode="reeval", output_stream="mid")
            names = ["head"]
            for i, t in enumerate(tails):
                engine.register_continuous(
                    f"SELECT k, v FROM mid WHERE v > {t}",
                    name=f"tail{i}", mode="reeval")
                names.append(f"tail{i}")
            engine.attach_source("s", RateSource(rows, rate=10000))
            return names

        assert_recycler_transparent(setup)


class TestBudgetAutotuner:
    """The adaptive budget: grow on eviction churn, shrink when idle,
    never leave the [floor, ceiling] bracket."""

    def _active(self, recycler, evictions, hits):
        """Synthesize one adaptation window's worth of cache events."""
        recycler.evictions += evictions
        recycler.hits += hits

    def test_grows_on_thrash(self):
        r = Recycler(budget_bytes=8192)
        self._active(r, evictions=300, hits=10)
        r.autotune_tick()
        assert r.budget_bytes == 16384
        assert r.budget_grows == 1
        assert r.budget_trajectory == [8192, 16384]

    def test_no_decision_below_activity_window(self):
        r = Recycler(budget_bytes=8192)
        self._active(r, evictions=100, hits=10)
        r.autotune_tick()
        assert r.budget_bytes == 8192

    def test_never_exceeds_ceiling(self):
        from repro.core.recycler import DEFAULT_BUDGET_BYTES

        r = Recycler(budget_bytes=8192)
        for _ in range(20):
            self._active(r, evictions=300, hits=0)
            r.autotune_tick()
        assert r.budget_bytes == DEFAULT_BUDGET_BYTES
        # a budget configured above the stock ceiling is its own ceiling
        big = Recycler(budget_bytes=2 * DEFAULT_BUDGET_BYTES)
        self._active(big, evictions=300, hits=0)
        big.autotune_tick()
        assert big.budget_bytes == 2 * DEFAULT_BUDGET_BYTES

    def test_shrinks_back_to_floor_when_idle(self):
        from repro.core.recycler import AUTOTUNE_SHRINK_WINDOWS

        r = Recycler(budget_bytes=8192)
        self._active(r, evictions=300, hits=10)
        r.autotune_tick()
        assert r.budget_bytes == 16384
        # one idle window is not enough (hysteresis: shrinking on the
        # first idle window would oscillate against the thrash signal)
        self._active(r, evictions=0, hits=300)
        r.autotune_tick()
        assert r.budget_bytes == 16384
        # a sustained idle streak walks it back to the floor
        for _ in range(AUTOTUNE_SHRINK_WINDOWS):
            self._active(r, evictions=0, hits=300)
            r.autotune_tick()
        assert r.budget_bytes == 8192
        assert r.budget_shrinks == 1
        # and never below the configured floor
        for _ in range(AUTOTUNE_SHRINK_WINDOWS + 1):
            self._active(r, evictions=0, hits=300)
            r.autotune_tick()
        assert r.budget_bytes == 8192

    def test_low_churn_window_holds_budget(self):
        r = Recycler(budget_bytes=8192)
        # a trickle of evictions (under a quarter of the window, fewer
        # than hits) is healthy steady-state turnover, not thrash
        self._active(r, evictions=30, hits=300)
        r.autotune_tick()
        assert r.budget_bytes == 8192
        assert r.budget_grows == 0 and r.budget_shrinks == 0

    def test_disabled_recycler_does_not_tune(self):
        r = Recycler(budget_bytes=8192, enabled=False)
        self._active(r, evictions=1000, hits=0)
        r.autotune_tick()
        assert r.budget_bytes == 8192

    def test_engine_autotunes_starved_budget(self):
        """An 8 KB budget under a multi-query workload must tune
        itself up (the E11c pathology: thousands of evictions at a
        budget too small to hold one window slice)."""
        engine = DataCellEngine(recycler_budget_bytes=8192)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        for i in range(6):
            engine.register_continuous(
                "SELECT k, sum(v) FROM s [RANGE 32 SLIDE 8] "
                "GROUP BY k", mode="reeval", name=f"q{i}")
        rows = [(i % 4, float(i % 23)) for i in range(2000)]
        engine.attach_source("s", RateSource(rows, rate=100000))
        engine.run_until_drained()
        assert not engine.scheduler.failed, engine.scheduler.failed
        assert engine.recycler.budget_grows >= 1
        assert engine.recycler.budget_bytes > 8192
        stats = engine.recycler.stats()
        assert stats["budget_trajectory"][0] == 8192


class TestAdmissionCensus:
    """Registration-time sharing census + per-fingerprint net-benefit
    verdicts: the machinery that keeps recycler-on from paying
    store/probe overhead on work nothing will ever reuse."""

    def _resolve_cheap_lifecycles(self, rec, fp, n):
        """Store *n* entries under *fp* with negligible recompute cost,
        never hit them, and resolve them via dead eviction — the
        fastest route to a trusted "not worth caching" verdict."""
        for i in range(n):
            key = rec.instruction_key(fp, [("s", i, i + 1)])
            rec.store(key, int_bat([i]), cost_ms=0.00001)
        rec.evict_dead({"s": n + 1})

    def test_census_refcounts(self):
        rec = Recycler()
        rec.retain_fps(["a", "b"])
        rec.retain_fps(["a"])
        assert rec._fp_refs == {"a": 2, "b": 1}
        rec.release_fps(["a"])
        assert rec._fp_refs == {"a": 1, "b": 1}
        rec.release_fps(["a", "b"])
        assert rec._fp_refs == {}

    def test_census_version_bumps_on_structural_change(self):
        rec = Recycler()
        v0 = rec.census_version
        rec.retain_fps(["a"])
        v1 = rec.census_version
        assert v1 > v0
        rec.release_fps(["a"])
        assert rec.census_version > v1

    def test_censused_unshared_fp_is_skipped(self):
        rec = Recycler()
        rec.retain_fps(["solo"])
        assert not rec.should_attempt("solo")
        assert rec.stats()["cold_skips"] == 1

    def test_censused_shared_fp_is_attempted(self):
        rec = Recycler()
        rec.retain_fps(["dup"])
        rec.retain_fps(["dup"])
        assert rec.should_attempt("dup")

    def test_uncensused_fp_is_always_attempted(self):
        rec = Recycler()
        for i in range(100):
            key = rec.instruction_key("bare", [("s", i, i + 1)])
            assert rec.should_attempt("bare")
            rec.store(key, int_bat([i]))
        assert rec.stats()["cold_skips"] == 0

    def test_plan_gate_closes_only_when_all_fps_unshared(self):
        rec = Recycler()
        rec.retain_fps(["x", "y"])
        before = rec.plan_skips
        assert not rec.plan_should_recycle(["x", "y"])
        assert rec.plan_skips == before + 1
        rec.retain_fps(["y"])           # second consumer shares y
        assert rec.plan_should_recycle(["x", "y"])

    def test_plan_gate_open_without_census(self):
        rec = Recycler()
        assert rec.plan_should_recycle(["anything"])

    def test_cheap_verdict_retires_shared_fp(self):
        from repro.core.recycler import FP_VERDICT_MIN_ENTRIES
        rec = Recycler()
        rec.retain_fps(["cheap"])
        rec.retain_fps(["cheap"])
        assert rec.should_attempt("cheap")
        version = rec.census_version
        self._resolve_cheap_lifecycles(rec, "cheap",
                                       FP_VERDICT_MIN_ENTRIES)
        assert not rec.should_attempt("cheap")
        assert not rec.plan_should_recycle(["cheap"])
        # the verdict re-opened every cached plan gate
        assert rec.census_version > version

    def test_costly_reused_fp_stays_admitted(self):
        from repro.core.recycler import FP_VERDICT_MIN_ENTRIES
        rec = Recycler()
        rec.retain_fps(["rich"])
        rec.retain_fps(["rich"])
        for i in range(FP_VERDICT_MIN_ENTRIES):
            key = rec.instruction_key("rich", [("s", i, i + 1)])
            rec.store(key, int_bat([i]), cost_ms=5.0)
            assert rec.lookup(key)[0]           # hit: credits 5ms saved
        rec.evict_dead({"s": FP_VERDICT_MIN_ENTRIES + 1})
        assert rec.should_attempt("rich")
        assert rec.plan_should_recycle(["rich"])

    def test_verdict_sticky_across_decay(self):
        from repro.core.recycler import (FP_VERDICT_MIN_ENTRIES,
                                         REUSE_DECAY_SCANS)
        rec = Recycler()
        rec.retain_fps(["cheap"])
        rec.retain_fps(["cheap"])
        self._resolve_cheap_lifecycles(rec, "cheap",
                                       FP_VERDICT_MIN_ENTRIES)
        assert not rec.should_attempt("cheap")
        for _ in range(2 * REUSE_DECAY_SCANS):
            rec.evict_dead({})
        assert rec.reuse_decays >= 2
        # magnitude decay must not re-open a trusted cheap verdict
        assert not rec.should_attempt("cheap")

    def test_new_consumer_resets_verdicts(self):
        from repro.core.recycler import FP_VERDICT_MIN_ENTRIES
        rec = Recycler()
        rec.retain_fps(["cheap"])
        rec.retain_fps(["cheap"])
        self._resolve_cheap_lifecycles(rec, "cheap",
                                       FP_VERDICT_MIN_ENTRIES)
        assert not rec.should_attempt("cheap")
        # a third consumer changes the economics: probation restarts
        rec.retain_fps(["cheap"])
        assert rec.should_attempt("cheap")

    def test_engine_registers_and_releases_census(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        q = engine.register_continuous(
            "SELECT k, v FROM s WHERE v > 1", mode="reeval", name="q0")
        fps = q.factory.recycle_fps
        assert fps, "plan has no recyclable fingerprints"
        assert all(engine.recycler._fp_refs.get(fp) for fp in fps)
        engine.remove_query("q0")
        assert not any(engine.recycler._fp_refs.get(fp) for fp in fps)

    def test_compiled_factory_gate_mask_skips_retired_steps(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        for i in range(2):
            engine.register_continuous(
                "SELECT k, v * 2 FROM s [RANGE 8 SLIDE 8] WHERE v > 1",
                mode="reeval", name=f"q{i}")
        rows = [(i % 3, float(i % 7)) for i in range(800)]
        engine.attach_source("s", RateSource(rows, rate=100000))
        engine.run_until_drained()
        for f in engine.scheduler.factories:
            if f.compiled is None or not f.recycle_fps:
                continue
            assert f._gate_modes is not None
            assert len(f._gate_modes) == len(f.compiled.steps)
            # the mask admits only recyclable steps
            assert all(step.info is not None and step.info.recyclable
                       for step, mode
                       in zip(f.compiled.steps, f._gate_modes) if mode)

    def test_single_query_plan_gate_avoids_all_cache_work(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, v * 2 FROM s [RANGE 8 SLIDE 8] WHERE v > 1",
            mode="reeval", name="q0")
        rows = [(i % 3, float(i % 7)) for i in range(400)]
        engine.attach_source("s", RateSource(rows, rate=100000))
        engine.run_until_drained()
        stats = engine.recycler.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["plan_skips"] >= 1

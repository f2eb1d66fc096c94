"""The paper's central correctness claim: incremental mode produces
exactly the windows re-evaluation mode produces — and both equal the
oracle (re-evaluation on the bare interpreter, recycler off).

Covers deterministic scenarios plus hypothesis-driven random streams,
window geometries (non-divisible slides included) and query shapes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import DataCellEngine
from repro.core.incremental import UnsupportedIncremental
from repro.streams.source import ListSource, RateSource

ORACLE = {"compile_plans": False, "recycler_enabled": False}


def run_query(rows, query, mode, schema="CREATE STREAM s (k INT, v FLOAT)",
              streams=("s",), **engine_kwargs):
    engine = DataCellEngine(**engine_kwargs)
    engine.execute(schema)
    if len(streams) > 1:
        for extra in streams[1:]:
            pass  # schema string creates them all in multi-schema cases
    q = engine.register_continuous(query, mode=mode, name="q")
    engine.attach_source(streams[0], RateSource(rows, rate=100000))
    engine.run_until_drained()
    assert not engine.scheduler.failed, engine.scheduler.failed
    return q.mode, [r.to_rows() for _t, r in engine.results("q").batches]


def normalize(row):
    """Round floats so FP non-associativity (partial sums merge in a
    different order than full-window sums) does not fail the compare.
    ``+ 0.0`` folds ``-0.0`` into ``+0.0`` — running sums can cancel a
    tiny value to an exact zero whose sign differs from the rounded
    full-window sum."""
    return tuple(round(v, 6) + 0.0 if isinstance(v, float) else v
                 for v in row)


def canon(batches):
    """Per-firing rows, order- and FP-rounding-insensitive."""
    return [sorted(map(repr, map(normalize, batch))) for batch in batches]


def assert_modes_agree(rows, query, **kw):
    m1, r1 = run_query(rows, query, "reeval", **kw)
    m2, r2 = run_query(rows, query, "incremental", **kw)
    m3, r3 = run_query(rows, query, "reeval", **ORACLE, **kw)
    assert m1 == "reeval" and m2 == "incremental" and m3 == "reeval"
    assert canon(r1) == canon(r2) == canon(r3)
    return r1


ROWS = [(i % 4, float((i * 7) % 23)) for i in range(60)]
ROWS_WITH_NULLS = [
    (i % 3, None if i % 7 == 0 else float(i % 11)) for i in range(60)]


class TestDeterministicScenarios:
    def test_grouped_avg(self):
        out = assert_modes_agree(
            ROWS, "SELECT k, avg(v) FROM s [RANGE 20 SLIDE 5] GROUP BY k "
                  "ORDER BY k")
        assert len(out) == (60 - 20) // 5 + 1

    def test_all_aggregates_with_nulls(self):
        assert_modes_agree(
            ROWS_WITH_NULLS,
            "SELECT k, count(*), count(v), sum(v), avg(v), min(v), "
            "max(v) FROM s [RANGE 12 SLIDE 4] GROUP BY k ORDER BY k")

    def test_scalar_aggregates(self):
        assert_modes_agree(
            ROWS, "SELECT count(*), sum(v) FROM s [RANGE 10 SLIDE 2]")

    def test_filter_below_window_aggregate(self):
        assert_modes_agree(
            ROWS, "SELECT k, count(*) FROM s [RANGE 16 SLIDE 8] "
                  "WHERE v > 5 GROUP BY k ORDER BY k")

    def test_having_and_order(self):
        assert_modes_agree(
            ROWS, "SELECT k, sum(v) t FROM s [RANGE 20 SLIDE 10] "
                  "GROUP BY k HAVING count(*) > 2 ORDER BY t DESC")

    def test_projection_only_window(self):
        assert_modes_agree(
            ROWS, "SELECT k, v * 2 FROM s [RANGE 8 SLIDE 4] WHERE v > 10")

    def test_tumbling_window(self):
        assert_modes_agree(
            ROWS, "SELECT k, max(v) FROM s [RANGE 15] GROUP BY k "
                  "ORDER BY k")

    def test_expression_group_key(self):
        assert_modes_agree(
            ROWS, "SELECT k % 2, sum(v) FROM s [RANGE 12 SLIDE 6] "
                  "GROUP BY k % 2 ORDER BY 1")

    def test_case_projection_post_merge(self):
        assert_modes_agree(
            ROWS, "SELECT k, CASE WHEN sum(v) > 50 THEN 'busy' "
                  "ELSE 'calm' END FROM s [RANGE 10 SLIDE 5] GROUP BY k "
                  "ORDER BY k")

    def test_limit_post_merge(self):
        assert_modes_agree(
            ROWS, "SELECT k, count(*) c FROM s [RANGE 20 SLIDE 4] "
                  "GROUP BY k ORDER BY c DESC, k LIMIT 2")


class TestModeResolution:
    def test_auto_prefers_incremental(self):
        mode, _ = run_query(
            ROWS, "SELECT count(*) FROM s [RANGE 10 SLIDE 5]", "auto")
        assert mode == "incremental"

    def test_non_divisible_slide_is_reeval_only(self):
        query = ("SELECT k, count(*), sum(v) FROM s [RANGE 10 SLIDE 3] "
                 "GROUP BY k")
        with pytest.raises(UnsupportedIncremental):
            run_query(ROWS, query, "incremental")
        mode, out = run_query(ROWS, query, "auto")
        assert mode == "reeval"
        _, oracle = run_query(ROWS, query, "reeval", **ORACLE)
        assert out == oracle
        assert len(out) == (60 - 10) // 3 + 1


class TestTimeWindows:
    def drive(self, mode, **engine_kwargs):
        """A burst followed by silence: each slide expires most of the
        window while adding little, down to empty windows."""
        engine = DataCellEngine(**engine_kwargs)
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
        return q.mode, canon(r.to_rows()
                             for _t, r in engine.results("q").batches)

    def test_shrinking_windows_agree(self):
        m1, r1 = self.drive("reeval", **ORACLE)
        m2, r2 = self.drive("incremental")
        assert m1 == "reeval" and m2 == "incremental"
        assert r1 == r2
        # the storyline actually exercised shrink-to-empty windows
        assert any(not batch for batch in r2)


class TestBasicWindowRace:
    def test_append_after_poll_waits_for_next_poll(self):
        """pg INSERTs run on executor threads beside the scheduler
        thread: rows completing a basic window can land after the
        factory's poll and before its enabled check. The window must
        not fire until a poll has processed that basic window."""
        query = "SELECT k, sum(v) FROM s [RANGE 4 SLIDE 2] GROUP BY k"
        rows = [(i % 2, float(i)) for i in range(8)]
        emitted = {}
        for mode in ("incremental", "reeval"):
            engine = DataCellEngine()
            engine.execute("CREATE STREAM s (k INT, v FLOAT)")
            factory = engine.register_continuous(
                query, mode=mode, name="q").factory
            engine.feed("s", rows[:3])
            factory.poll(engine.now())
            assert not factory.enabled(engine.now())
            engine.feed("s", rows[3:4])  # completes basic window 1
            if mode == "incremental":
                assert not factory.enabled(engine.now())
            # the tail of the scheduler's round, with no poll in it
            while factory.enabled(engine.now()):
                factory.fire(engine.now())
            engine.feed("s", rows[4:])
            engine.step()
            assert not engine.scheduler.failed
            emitted[mode] = [r.to_rows()
                             for _t, r in engine.results("q").batches]
        assert emitted["incremental"] == emitted["reeval"]
        assert len(emitted["reeval"]) == 3


# (query, index dim on k): each runs in reeval, incremental and the oracle
JOIN_CASES = [
    ("SELECT d.label, count(*) FROM s [RANGE 12 SLIDE 4], dim d "
     "WHERE s.k = d.k GROUP BY d.label ORDER BY d.label", False),
    ("SELECT d.label, s.v FROM s [RANGE 8 SLIDE 4], dim d "
     "WHERE s.k = d.k AND s.v > 8", False),
    ("SELECT a.k, count(*) FROM s [RANGE 10 SLIDE 5] a, "
     "s2 [RANGE 10 SLIDE 5] b WHERE a.k = b.k GROUP BY a.k "
     "ORDER BY a.k", False),
    ("SELECT a.v, b.w FROM s [RANGE 6 SLIDE 3] a, "
     "s2 [RANGE 6 SLIDE 3] b WHERE a.k = b.k AND a.v > 10", False),
    # the join probes dim's hash index (algebra.indexjoin) in every mode
    ("SELECT d.label, sum(s.v) FROM s [RANGE 12 SLIDE 4], dim d "
     "WHERE s.k = d.k GROUP BY d.label ORDER BY d.label", True),
    # outer join per basic window: the stream is the preserved side
    ("SELECT b.k, b.w, d.label FROM s2 [RANGE 10 SLIDE 5] b "
     "LEFT JOIN dim d ON b.k = d.k", False),
    # single-stream tails that run on the merged window
    ("SELECT DISTINCT k FROM s [RANGE 8 SLIDE 4]", False),
    ("SELECT k, v FROM s [RANGE 8 SLIDE 4] ORDER BY v DESC, k "
     "LIMIT 2 OFFSET 1", False),
]


class TestHybridAndJoins:
    def make_engine(self, indexed=False, **engine_kwargs):
        engine = DataCellEngine(**engine_kwargs)
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.execute("CREATE STREAM s2 (k INT, w INT)")
        engine.execute("CREATE TABLE dim (k INT, label VARCHAR(8))")
        engine.execute("INSERT INTO dim VALUES (0,'a'), (1,'b'), "
                       "(2,'c'), (3,'d')")
        if indexed:
            engine.execute("CREATE INDEX ON dim (k)")
        return engine

    def run(self, query, mode, indexed=False, **engine_kwargs):
        engine = self.make_engine(indexed, **engine_kwargs)
        q = engine.register_continuous(query, mode=mode, name="q")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.attach_source(
            "s2", RateSource([(i % 5, i) for i in range(60)],
                             rate=100000))
        engine.run_until_drained()
        assert not engine.scheduler.failed, engine.scheduler.failed
        if indexed:
            assert engine.catalog.table("dim").index_on("k").probes
        return q.mode, [r.to_rows() for _t, r in
                        engine.results("q").batches]

    @pytest.mark.parametrize(
        "query,indexed", JOIN_CASES,
        ids=[f"indexed {q}" if i else q for q, i in JOIN_CASES])
    def test_join_modes_agree(self, query, indexed):
        m1, r1 = self.run(query, "reeval", indexed)
        m2, r2 = self.run(query, "incremental", indexed)
        m3, r3 = self.run(query, "reeval", **ORACLE)
        assert m2 == "incremental" and m3 == "reeval"
        assert len(r1) == len(r2) == len(r3)
        assert any(r1)
        for a, b, c in zip(r1, r2, r3):
            key = sorted(map(repr, a))
            assert key == sorted(map(repr, b))
            assert key == sorted(map(repr, c))


@st.composite
def stream_and_window(draw):
    n = draw(st.integers(10, 80))
    rows = [(draw(st.integers(0, 3)),
             draw(st.one_of(st.none(),
                            st.floats(-50, 50, allow_nan=False))))
            for _ in range(n)]
    slide = draw(st.integers(1, 8))
    factor = draw(st.integers(1, 5))
    return rows, slide * factor, slide


class TestPropertyEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_and_window())
    def test_random_streams_agree(self, case):
        rows, size, slide = case
        query = (f"SELECT k, count(*), sum(v), min(v), max(v), avg(v) "
                 f"FROM s [RANGE {size} SLIDE {slide}] GROUP BY k "
                 f"ORDER BY k")
        assert_modes_agree(rows, query)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_and_window())
    def test_random_projection_windows_agree(self, case):
        rows, size, slide = case
        query = (f"SELECT k, v FROM s [RANGE {size} SLIDE {slide}] "
                 f"WHERE v > 0")
        assert_modes_agree(rows, query)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 6), st.integers(1, 4))
    def test_window_boundaries_exact(self, nbasic, slide):
        """Window k must cover exactly tuples [k*slide, k*slide+size)."""
        size = nbasic * slide
        rows = [(0, float(i)) for i in range(size + 4 * slide)]
        out = assert_modes_agree(
            rows, f"SELECT min(v), max(v), count(*) FROM s "
                  f"[RANGE {size} SLIDE {slide}]")
        for k, batch in enumerate(out):
            mn, mx, cnt = batch[0]
            assert cnt == size
            assert mn == float(k * slide)
            assert mx == float(k * slide + size - 1)


    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream_and_window(), st.integers(1, 16))
    def test_auto_agrees_on_any_slide(self, case, slide):
        """Any slide <= size, divisible or not: ``auto`` picks
        incremental exactly when the slide divides the window and
        equals the oracle either way."""
        rows, size, _ = case
        slide = min(slide, size)
        query = (f"SELECT k, count(*), count(v), sum(v), avg(v), "
                 f"min(v), max(v) FROM s [RANGE {size} SLIDE {slide}] "
                 f"GROUP BY k")
        mode, out = run_query(rows, query, "auto")
        assert mode == ("incremental" if size % slide == 0 else "reeval")
        _, oracle = run_query(rows, query, "reeval", **ORACLE)
        assert canon(out) == canon(oracle)


class TestBasketConservation:
    def test_tuples_conserved_and_dropped(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) FROM s [RANGE 10 SLIDE 5] GROUP BY k",
            mode="incremental", name="q")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        basket = engine.basket("s")
        assert basket.total_in == 60
        assert basket.total_in == basket.total_dropped + len(basket)
        # incremental mode releases eagerly: retained < one window
        assert len(basket) <= 10

    def test_reeval_retains_window(self):
        engine = DataCellEngine()
        engine.execute("CREATE STREAM s (k INT, v FLOAT)")
        engine.register_continuous(
            "SELECT k, sum(v) FROM s [RANGE 10 SLIDE 5] GROUP BY k",
            mode="reeval", name="q")
        engine.attach_source("s", RateSource(ROWS, rate=100000))
        engine.run_until_drained()
        basket = engine.basket("s")
        assert basket.total_in == basket.total_dropped + len(basket)

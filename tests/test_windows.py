"""Unit tests for window specs, re-eval cursors and basic-window
trackers — including restored cursors whose windows dip below the
vacuum floor into log-resident history (paged binder)."""

import pytest

from repro.core.basket import Basket
from repro.core.windows import BasicWindowTracker, WindowSpec, WindowState
from repro.errors import WindowError
from repro.sql.ast import WindowClause
from repro.storage import Schema
from repro.store import PagedWindowBinder, StreamLog


@pytest.fixture
def basket():
    return Basket("s", Schema.parse([("k", "INT")]))


def fill(basket, n, start_ts=0, step_ts=0):
    for i in range(n):
        basket.append_rows([(i,)], now=start_ts + i * step_ts)
        if basket.log is not None:
            basket.log.commit()  # one group per row, as one step each


def durable_basket(tmp_path):
    """A basket whose history survives vacuum in a paged stream log."""
    schema = Schema.parse([("k", "INT")])
    basket = Basket("s", schema)
    log = StreamLog(str(tmp_path / "s"), "s", schema,
                    segment_rows=4, durability="fsync")
    basket.attach_log(log)
    basket.attach_pager(PagedWindowBinder(log, schema))
    return basket, log


class TestWindowSpec:
    def test_none(self):
        spec = WindowSpec.none()
        assert spec.kind == "none" and not spec.is_sliding

    def test_tumbling_default_slide(self):
        spec = WindowSpec("tuple", 10)
        assert spec.slide == 10 and spec.is_tumbling

    def test_sliding(self):
        spec = WindowSpec("tuple", 10, 2)
        assert spec.is_sliding and spec.basic_window_count == 5

    def test_invalid_sizes(self):
        with pytest.raises(WindowError):
            WindowSpec("tuple", 0)
        with pytest.raises(WindowError):
            WindowSpec("tuple", 10, 0)
        with pytest.raises(WindowError):
            WindowSpec("tuple", 10, 11)
        with pytest.raises(WindowError):
            WindowSpec("bogus", 10)

    def test_non_divisible_basic_windows(self):
        with pytest.raises(WindowError):
            WindowSpec("tuple", 10, 3).basic_window_count

    def test_from_clause_tuple(self):
        spec = WindowSpec.from_clause(WindowClause(10, 2, False))
        assert spec.kind == "tuple" and spec.size == 10

    def test_from_clause_time_converts_to_ms(self):
        spec = WindowSpec.from_clause(WindowClause(10, 2, True))
        assert spec.size == 10000 and spec.slide == 2000

    def test_from_clause_none(self):
        assert WindowSpec.from_clause(None).kind == "none"

    def test_none_has_no_basic_windows(self):
        with pytest.raises(WindowError):
            WindowSpec.none().basic_window_count


class TestUnwindowedState:
    def test_ready_on_new_data(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec.none(), basket, sub)
        assert not state.ready(0)
        fill(basket, 3)
        assert state.ready(0)
        assert state.slice_bounds(0) == (0, 3)

    def test_advance_consumes_all(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec.none(), basket, sub)
        fill(basket, 3)
        state.advance(0)
        assert not state.ready(0)
        assert sub.released_upto == 3

    def test_paused_never_ready(self, basket):
        sub = basket.subscribe("q")
        sub.paused = True
        state = WindowState(WindowSpec.none(), basket, sub)
        fill(basket, 3)
        assert not state.ready(0)


class TestTupleWindowState:
    def test_fires_only_when_window_full(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 3)
        assert not state.ready(0)
        fill(basket, 1)
        assert state.ready(0)
        assert state.slice_bounds(0) == (0, 4)

    def test_slide_moves_window(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 6)
        state.advance(0)
        assert state.slice_bounds(0) == (2, 6)
        assert sub.released_upto == 2

    def test_retention_trails_by_window(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 4)
        state.advance(0)
        # only tuples before the new window start may be dropped
        assert sub.released_upto == 2
        assert basket.vacuum() == 2


class TestTimeWindowState:
    def test_fires_at_boundary(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("time", 1000, 500), basket, sub,
                            anchor_time=0)
        fill(basket, 5, start_ts=0, step_ts=100)
        assert not state.ready(999)
        assert state.ready(1000)

    def test_slice_uses_arrival_times(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("time", 1000, 500), basket, sub)
        fill(basket, 12, start_ts=0, step_ts=100)
        lo, hi = state.slice_bounds(1000)
        assert (lo, hi) == (0, 10)
        state.advance(1000)
        lo, hi = state.slice_bounds(1500)
        assert (lo, hi) == (5, 12)

    def test_empty_window_fires(self, basket):
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("time", 1000, 1000), basket, sub)
        assert state.ready(1000)
        lo, hi = state.slice_bounds(1000)
        assert lo == hi


class TestBasicWindowTracker:
    def test_requires_window(self, basket):
        sub = basket.subscribe("q")
        with pytest.raises(WindowError):
            BasicWindowTracker(WindowSpec.none(), basket, sub)

    def test_new_basic_windows_tuple(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("tuple", 4, 2), basket,
                                     sub)
        fill(basket, 5)
        bws = tracker.new_basic_windows(0)
        assert bws == [(0, 0, 2), (1, 2, 4)]
        fill(basket, 1)
        assert tracker.new_basic_windows(0) == [(2, 4, 6)]

    def test_release_is_eager(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("tuple", 4, 2), basket,
                                     sub)
        fill(basket, 4)
        tracker.new_basic_windows(0)
        # processed tuples can be dropped immediately: their contribution
        # lives in cached intermediates
        assert sub.released_upto == 4
        assert basket.vacuum() == 4

    def test_ready_needs_all_basic_windows(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("tuple", 4, 2), basket,
                                     sub)
        fill(basket, 3)
        tracker.new_basic_windows(0)
        assert not tracker.ready(0)
        # the rows completing the last basic window land after the
        # poll: not ready until the next poll has handed it out
        fill(basket, 1)
        assert not tracker.ready(0)
        assert tracker.new_basic_windows(0) == [(1, 2, 4)]
        assert tracker.ready(0)

    def test_composition_and_advance(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("tuple", 4, 2), basket,
                                     sub)
        fill(basket, 6)
        tracker.new_basic_windows(0)
        k, bws = tracker.window_composition()
        assert (k, bws) == (0, [0, 1])
        tracker.advance()
        k, bws = tracker.window_composition()
        assert (k, bws) == (1, [1, 2])
        assert tracker.live_floor() == 1

    def test_time_tracker(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("time", 1000, 500),
                                     basket, sub, anchor_time=0)
        fill(basket, 10, start_ts=0, step_ts=100)
        bws = tracker.new_basic_windows(1000)
        assert bws == [(0, 0, 5), (1, 5, 10)]
        assert tracker.ready(1000)

    def test_time_tracker_waits_for_clock(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("time", 1000, 500),
                                     basket, sub)
        fill(basket, 10, start_ts=0, step_ts=100)
        assert tracker.new_basic_windows(499) == []

    def test_paused_not_ready(self, basket):
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("tuple", 2, 1), basket,
                                     sub)
        fill(basket, 5)
        tracker.new_basic_windows(0)
        sub.paused = True
        assert not tracker.ready(0)


class TestCursorRecoveryWithPagedHistory:
    """Restored cursors whose first window dips below the rebuilt
    basket: the paged binder serves the log-resident part."""

    def test_tracker_restore_pages_vacuumed_basic_windows(
            self, tmp_path):
        basket, log = durable_basket(tmp_path)
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("tuple", 4, 2), basket,
                                     sub)
        fill(basket, 8)
        tracker.new_basic_windows(0)  # bw0..3 processed, released
        tracker.advance()             # window 0 fired; next needs bw1
        snap = tracker.snapshot()
        assert snap["floor_oid"] == 2
        # eager release dropped even the next window's data from memory
        assert basket.vacuum() == 8
        assert basket.first_oid == 8
        # recovery: fresh tracker + restored cursor; its first basic
        # window [2,4) now lives only in the log
        sub2 = basket.subscribe("q2")
        t2 = BasicWindowTracker(WindowSpec("tuple", 4, 2), basket, sub2)
        t2.restore(snap)
        assert sub2.read_upto == 2
        bws = t2.new_basic_windows(0)
        assert bws == [(1, 2, 4), (2, 4, 6), (3, 6, 8)]
        assert t2.ready(0)
        rel = basket.relation(2, 6)   # the next full window
        assert rel.column("k").values.tolist() == [2, 3, 4, 5]
        assert basket.pager.stats()["paged_reads"] >= 1
        log.close()

    def test_time_tracker_snapshot_floor_consults_pager(self, tmp_path):
        basket, log = durable_basket(tmp_path)
        sub = basket.subscribe("q")
        tracker = BasicWindowTracker(WindowSpec("time", 1000, 500),
                                     basket, sub, anchor_time=0)
        fill(basket, 10, start_ts=0, step_ts=100)
        tracker.new_basic_windows(1000)  # bw0 [0,5), bw1 [5,10)
        tracker.advance()                # window 0 fired
        assert basket.vacuum() == 10     # memory fully drained
        snap = tracker.snapshot()
        # floor = lo of bw1 = first arrival >= 500ms = oid 5, resolved
        # through the log's __ts segments; without the pager the
        # lookup would snap to first_oid (10) and over-report
        assert snap["floor_oid"] == 5
        log.close()

    def test_window_state_restore_pages_window(
            self, tmp_path):
        basket, log = durable_basket(tmp_path)
        sub = basket.subscribe("q")
        state = WindowState(WindowSpec("tuple", 4, 2), basket, sub)
        fill(basket, 6)
        state.advance(0)  # fired [0,4)
        snap = state.snapshot()
        # crash: the basket rebuilt from a later checkpoint holds
        # nothing below oid 6, but the log does
        sub.read_upto = sub.released_upto = 6
        assert basket.vacuum() == 6
        sub2 = basket.subscribe("q2")
        s2 = WindowState(WindowSpec("tuple", 4, 2), basket, sub2)
        s2.restore(snap)
        assert s2.ready(0)  # next_oid=6 >= win_start 2 + size 4
        lo, hi = s2.slice_bounds(0)
        assert (lo, hi) == (2, 6)
        rel = basket.relation(lo, hi)  # head [2,6) is log-resident
        assert rel.column("k").values.tolist() == [2, 3, 4, 5]
        assert basket.pager.stats()["paged_reads"] >= 1
        log.close()

"""Tests for the monitoring panes (the demo's GUI, textually)."""

import pytest

from repro.streams.source import RateSource


@pytest.fixture
def busy_engine(engine):
    engine.register_continuous(
        "SELECT sid, avg(temp) FROM sensors [RANGE 10 SLIDE 5] "
        "GROUP BY sid", name="winq")
    engine.register_continuous(
        "SELECT sid FROM sensors WHERE temp > 50", name="alerts")
    engine.attach_source("sensors", RateSource(
        [(i % 3, float(i)) for i in range(40)], rate=1000))
    engine.run_until_drained()
    return engine


class TestNetworkPane:
    def test_lists_all_components(self, busy_engine):
        text = busy_engine.monitor.network()
        assert "receptor sensors_r0" in text
        assert "basket sensors" in text
        assert "factory winq" in text
        assert "factory alerts" in text
        assert "emitter winq" in text

    def test_shows_subscriptions(self, busy_engine):
        text = busy_engine.monitor.network()
        assert "bound by winq" in text
        assert "released@" in text

    def test_shows_paused_state(self, busy_engine):
        busy_engine.pause_query("alerts")
        text = busy_engine.monitor.network()
        assert "(paused)" in text


class TestAnalysisPane:
    def test_per_factory_lines(self, busy_engine):
        text = busy_engine.monitor.analysis()
        assert "winq:" in text and "alerts:" in text
        assert "ms/fire" in text
        assert "network totals" in text

    def test_cache_stats_for_incremental(self, busy_engine):
        text = busy_engine.monitor.analysis()
        assert "slices_computed" in text


class TestPlansPane:
    def test_plan_dump(self, busy_engine):
        text = busy_engine.monitor.plans("winq")
        assert "logical plan" in text
        assert "StreamScan" in text
        assert "-- continuous plan --" in text

    def test_incremental_split_shown(self, busy_engine):
        text = busy_engine.monitor.plans("winq")
        assert "incremental split" in text
        # the split is shown as the MAL programs it runs
        split = text[text.index("incremental split"):]
        assert "function incr.slice()" in split
        assert "function incr.tail()" in split
        assert 'sql.bind("%merged"' in split


class TestSampling:
    def test_sample_and_timeseries(self, busy_engine):
        busy_engine.monitor.sample()
        busy_engine.feed("sensors", [(1, 1.0)])
        busy_engine.monitor.sample()
        series = busy_engine.monitor.timeseries("sensors",
                                                metric="total_in")
        assert len(series) == 2
        assert series[1][1] == series[0][1] + 1

    def test_timeseries_sums_all_baskets(self, busy_engine):
        busy_engine.monitor.sample()
        series = busy_engine.monitor.timeseries(metric="total_in")
        assert series[0][1] == 40

    def test_report_combines_panes(self, busy_engine):
        report = busy_engine.monitor.report()
        assert "query network" in report and "analysis" in report

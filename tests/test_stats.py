"""Tests for the statistics accumulators."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    Counter,
    Histogram,
    LatencyStats,
    RatioStat,
    TimeSeries,
    geometric_mean,
    weighted_mean,
)


class TestLatencyStats:
    def test_empty(self):
        s = LatencyStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.percentile(50) == 0.0
        assert s.spread() == 0.0

    def test_single_value(self):
        s = LatencyStats()
        s.record(5.0)
        assert s.mean == 5.0
        assert s.min == s.max == 5.0
        assert s.stdev == 0.0

    def test_mean_min_max_exact(self):
        s = LatencyStats()
        s.extend([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.min == 1.0
        assert s.max == 4.0

    def test_spread_is_max_over_min(self):
        s = LatencyStats()
        s.extend([10.0, 50.0])
        assert s.spread() == 5.0

    def test_percentiles_of_uniform_ramp(self):
        s = LatencyStats()
        s.extend(float(i) for i in range(1, 101))
        assert abs(s.percentile(50) - 50.5) < 2.0
        assert s.percentile(0) == 1.0
        assert s.percentile(100) == 100.0

    def test_reservoir_bounded(self):
        s = LatencyStats(capacity=64)
        s.extend(float(i) for i in range(10_000))
        assert len(s._reservoir) == 64
        assert s.count == 10_000

    def test_summary_keys(self):
        s = LatencyStats()
        s.record(1.0)
        summary = s.summary()
        for key in ("count", "mean", "stdev", "min", "max", "p50", "p95", "p99"):
            assert key in summary

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1,
                    max_size=300))
    def test_mean_matches_reference(self, values):
        s = LatencyStats()
        s.extend(values)
        assert s.mean == pytest.approx(sum(values) / len(values), rel=1e-9)
        assert s.min == min(values)
        assert s.max == max(values)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2,
                    max_size=200))
    def test_variance_nonnegative(self, values):
        s = LatencyStats()
        s.extend(values)
        assert s.variance >= 0.0


class TestHistogram:
    def test_bins_and_edges(self):
        h = Histogram(0.0, 10.0, bins=5)
        assert len(h.edges()) == 6
        h.record(0.5)
        h.record(9.9)
        assert h.counts[0] == 1 and h.counts[4] == 1

    def test_under_and_overflow(self):
        h = Histogram(0.0, 10.0, bins=2)
        h.record(-1.0)
        h.record(10.0)
        assert h.underflow == 1 and h.overflow == 1
        assert h.total == 2

    def test_normalized_sums_to_one_without_overflow(self):
        h = Histogram(0.0, 4.0, bins=4)
        for v in (0.5, 1.5, 2.5, 3.5):
            h.record(v)
        assert sum(h.normalized()) == pytest.approx(1.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram(5.0, 5.0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=0)


class TestCounterAndRatio:
    def test_counter_add_get(self):
        c = Counter()
        c.add("x")
        c.add("x", 4)
        assert c["x"] == 5
        assert c["missing"] == 0
        assert c.as_dict() == {"x": 5}

    def test_ratio_stat(self):
        r = RatioStat()
        assert r.ratio == 0.0
        r.record(True)
        r.record(False)
        r.record(True)
        assert r.ratio == pytest.approx(2 / 3)


class TestTimeSeries:
    def test_window_means(self):
        ts = TimeSeries(window=10.0)
        ts.record(1.0, 2.0)
        ts.record(9.0, 4.0)
        ts.record(15.0, 6.0)
        points = list(ts.points())
        assert points == [(5.0, 3.0), (15.0, 6.0)]

    def test_values_in_time_order(self):
        ts = TimeSeries(window=1.0)
        ts.record(5.5, 50.0)
        ts.record(0.5, 10.0)
        assert ts.values() == [10.0, 50.0]


class TestMeans:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_weighted_mean(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == 2.0
        assert weighted_mean([1.0, 3.0], [3.0, 1.0]) == 1.5

    def test_weighted_mean_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [1.0, 2.0])

    def test_weighted_mean_zero_weights(self):
        assert weighted_mean([1.0], [0.0]) == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=50))
    def test_geometric_mean_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9


class TestZeroSampleRendering:
    """Satellite: zero-sample nodes must render everywhere — summaries,
    registry snapshots, the ``repro stats`` outline and JSON — with
    exact zeros, never an inf/NaN leaking from the min/max bookkeeping."""

    def _registry(self):
        from repro.sim import StatsRegistry

        stats = LatencyStats("lat")
        ratio = RatioStat()
        registry = StatsRegistry()
        scope = registry.scoped("memory")
        scope.register("lat", stats)
        scope.register("hit_ratio", lambda: ratio.ratio)
        return registry, stats, ratio

    def test_zero_sample_summary_is_exact_zeros(self):
        summary = LatencyStats().summary()
        assert summary == {"count": 0, "mean": 0.0, "stdev": 0.0,
                           "min": 0.0, "max": 0.0, "p50": 0.0,
                           "p95": 0.0, "p99": 0.0}

    def test_summary_after_reset_matches_fresh(self):
        s = LatencyStats()
        s.extend([3.0, 9.0, 27.0])
        s.reset()
        assert s.summary() == LatencyStats().summary()
        assert s.percentile(99) == 0.0
        assert s.spread() == 0.0

    def test_freshly_reset_registry_snapshot_renders(self):
        import json
        import math as _math

        from repro.analysis.report import render_stats

        registry, stats, ratio = self._registry()
        stats.extend([1.0, 2.0])
        ratio.record(True)
        stats.reset()
        ratio.hits = ratio.total = 0

        tree = registry.snapshot()
        for value in registry.flat().values():
            assert _math.isfinite(value)
        rendered = render_stats(tree)
        assert any("lat" in line for line in rendered)
        assert not any("inf" in line or "nan" in line for line in rendered)
        encoded = json.dumps(tree, sort_keys=True)
        assert "Infinity" not in encoded and "NaN" not in encoded

    def test_summary_is_consistent_with_percentile(self):
        s = LatencyStats()
        s.extend(float(v) for v in range(1, 101))
        summary = s.summary()
        assert summary["p50"] == s.percentile(50)
        assert summary["p95"] == s.percentile(95)
        assert summary["p99"] == s.percentile(99)
        assert summary["min"] == 1.0 and summary["max"] == 100.0

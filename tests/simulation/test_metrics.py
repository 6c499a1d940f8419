"""Tests for measurement instrumentation."""

import math

import numpy as np
import pytest

from repro.simulation import (
    BusyTracker,
    MeasurementWindow,
    SampleStats,
    TimeWeightedStat,
    WindowedCounter,
)


class TestMeasurementWindow:
    def test_paper_default_is_90s_of_100s(self):
        """100 s runs with the first and last 5 s cut off (Section III-A.2)."""
        window = MeasurementWindow.paper_default()
        assert window.start == 5.0
        assert window.end == 95.0
        assert window.duration == 90.0

    def test_trimmed(self):
        window = MeasurementWindow.trimmed(10.0, 1.0)
        assert (window.start, window.end) == (1.0, 9.0)

    def test_trimmed_rejects_empty_window(self):
        with pytest.raises(ValueError):
            MeasurementWindow.trimmed(2.0, 1.0)

    def test_contains_half_open(self):
        window = MeasurementWindow(1.0, 9.0)
        assert window.contains(1.0)
        assert window.contains(8.999)
        assert not window.contains(9.0)
        assert not window.contains(0.999)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            MeasurementWindow(5.0, 5.0)
        with pytest.raises(ValueError):
            MeasurementWindow(-1.0, 5.0)


class TestWindowedCounter:
    def test_counts_only_inside_window(self):
        counter = WindowedCounter(MeasurementWindow(1.0, 9.0))
        counter.record(0.5)  # warmup: excluded
        counter.record(1.0)
        counter.record(5.0, count=3)
        counter.record(9.5)  # cooldown: excluded
        assert counter.in_window == 4
        assert counter.total == 6

    def test_rate(self):
        counter = WindowedCounter(MeasurementWindow(0.0, 10.0))
        for t in np.linspace(0.0, 9.99, 50):
            counter.record(float(t))
        assert counter.rate() == pytest.approx(5.0)

    def test_negative_count_rejected(self):
        counter = WindowedCounter(MeasurementWindow(0.0, 1.0))
        with pytest.raises(ValueError):
            counter.record(0.5, count=-1)


class TestSampleStats:
    def test_moments_and_quantiles(self):
        stats = SampleStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean() == pytest.approx(2.5)
        assert stats.moment(2) == pytest.approx((1 + 4 + 9 + 16) / 4)
        assert stats.quantile(0.5) == 2.0
        assert stats.quantile(1.0) == 4.0

    def test_variance_and_cvar(self):
        stats = SampleStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.variance() == pytest.approx(np.var([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))
        assert stats.cvar() == pytest.approx(stats.std() / stats.mean())

    def test_empty_stats_are_nan(self):
        stats = SampleStats()
        assert math.isnan(stats.mean())
        assert math.isnan(stats.quantile(0.99))
        assert math.isnan(stats.variance())

    def test_windowed_recording(self):
        stats = SampleStats(window=MeasurementWindow(1.0, 9.0))
        stats.record(100.0, time=0.5)  # outside
        stats.record(1.0, time=2.0)
        stats.record(3.0, time=8.0)
        assert stats.count == 2
        assert stats.mean() == 2.0

    def test_windowed_requires_time(self):
        stats = SampleStats(window=MeasurementWindow(0.0, 1.0))
        with pytest.raises(ValueError):
            stats.record(1.0)

    def test_quantile_level_validation(self):
        stats = SampleStats()
        stats.record(1.0)
        with pytest.raises(ValueError):
            stats.quantile(0.0)
        with pytest.raises(ValueError):
            stats.quantile(1.5)

    def test_ccdf(self):
        stats = SampleStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        ccdf = stats.ccdf([0.0, 1.0, 2.5, 4.0, 5.0])
        assert ccdf.tolist() == [1.0, 0.75, 0.5, 0.0, 0.0]

    def test_ccdf_empty(self):
        assert math.isnan(SampleStats().ccdf([1.0])[0])

    def test_quantile_inverse_cdf_definition(self):
        stats = SampleStats()
        stats.extend([1.0] * 99 + [100.0])
        assert stats.quantile(0.99) == 1.0
        assert stats.quantile(0.995) == 100.0


SAMPLE_SETS = {
    "exponential": np.random.default_rng(4).exponential(0.01, size=500),
    "ties": np.asarray([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 7.0, 7.0, 7.0, 7.0]),
}


class TestSampleStatsAgainstNumpy:
    """``SampleStats`` answers what numpy answers for the same values."""

    @pytest.fixture(params=sorted(SAMPLE_SETS))
    def data(self, request):
        return SAMPLE_SETS[request.param]

    @pytest.fixture
    def stats(self, data):
        stats = SampleStats()
        stats.extend(data)
        return stats

    def test_values_is_a_float_array(self, stats, data):
        values = stats.values()
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert (values == data).all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_raw_moment(self, stats, data, k):
        assert stats.moment(k) == pytest.approx(np.mean(data**k), rel=1e-12)

    def test_variance_is_the_unbiased_estimator(self, stats, data):
        assert stats.variance() == pytest.approx(np.var(data, ddof=1), rel=1e-12)

    def test_quantile_is_the_inverted_cdf(self, stats, data):
        for p in (0.1, 0.5, 0.9, 0.99, 1.0):
            assert stats.quantile(p) == np.quantile(data, p, method="inverted_cdf")

    def test_ccdf_counts_values_strictly_above(self, stats, data):
        thresholds = np.concatenate([np.unique(data), [data.min() - 1, data.max() + 1]])
        ccdf = stats.ccdf(thresholds)
        assert isinstance(ccdf, np.ndarray)
        expected = [(data > t).mean() for t in thresholds]
        assert ccdf.tolist() == pytest.approx(expected, abs=0)


class TestTimeWeightedStat:
    def test_integration(self):
        stat = TimeWeightedStat(initial=0.0)
        stat.update(2.0, 3.0)  # level 0 on [0,2)
        stat.update(4.0, 1.0)  # level 3 on [2,4)
        # level 1 on [4,10)
        assert stat.time_average(10.0) == pytest.approx((0 * 2 + 3 * 2 + 1 * 6) / 10)

    def test_windowed_average(self):
        stat = TimeWeightedStat(initial=1.0, window=MeasurementWindow(5.0, 15.0))
        stat.update(10.0, 3.0)  # level 1 on [0,10), 3 afterwards
        assert stat.time_average(15.0) == pytest.approx((1 * 5 + 3 * 5) / 10)

    def test_maximum_tracked(self):
        stat = TimeWeightedStat()
        stat.update(1.0, 7.0)
        stat.update(2.0, 3.0)
        assert stat.maximum == 7.0

    def test_time_going_backwards_rejected(self):
        stat = TimeWeightedStat()
        stat.update(5.0, 1.0)
        with pytest.raises(ValueError):
            stat.update(4.0, 2.0)

    def test_add_delta(self):
        stat = TimeWeightedStat()
        stat.add(1.0, 2.0)
        stat.add(2.0, -1.0)
        assert stat.level == 1.0


class TestBusyTracker:
    def test_utilization(self):
        busy = BusyTracker()
        busy.busy(0.0)
        busy.idle(6.0)
        busy.busy(8.0)
        # busy on [0,6) and [8,10): 8 of 10 seconds.
        assert busy.utilization(10.0) == pytest.approx(0.8)

    def test_windowed_utilization_is_the_sar_reading(self):
        busy = BusyTracker(window=MeasurementWindow(5.0, 95.0))
        busy.busy(0.0)  # busy the whole run
        assert busy.utilization(100.0) == pytest.approx(1.0)

    def test_idle_server(self):
        busy = BusyTracker()
        busy.idle(0.0)
        assert busy.utilization(10.0) == pytest.approx(0.0)

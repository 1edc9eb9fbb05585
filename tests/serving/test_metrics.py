"""Tests for repro.serving.metrics."""

import threading

import pytest

from repro.errors import ValidationError
from repro.runtime import Counter, Gauge, LatencyHistogram
from repro.serving.metrics import ServingMetrics


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter()

        def spin():
            for __ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000


class TestGauge:
    def test_inc_dec_and_peak(self):
        gauge = Gauge()
        gauge.inc(3)
        gauge.dec()
        gauge.inc(1)
        assert gauge.value == 3
        assert gauge.peak == 3
        gauge.set(10)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 10


class TestLatencyHistogram:
    def test_empty_percentiles_are_zero(self):
        hist = LatencyHistogram()
        assert hist.percentile(50) == 0.0
        assert hist.mean() == 0.0

    def test_percentile_within_bucket_resolution(self):
        hist = LatencyHistogram()
        for __ in range(90):
            hist.record(0.001)  # 1ms
        for __ in range(10):
            hist.record(0.1)  # 100ms
        # log-bucketed: exact to within one sqrt(2) bucket (~ +-41%)
        assert hist.percentile(50) == pytest.approx(0.001, rel=0.5)
        assert hist.percentile(99) == pytest.approx(0.1, rel=0.5)
        assert hist.count == 100
        assert hist.mean() == pytest.approx((90 * 0.001 + 10 * 0.1) / 100)

    def test_percentiles_are_monotonic(self):
        hist = LatencyHistogram()
        for i in range(1, 1000):
            hist.record(i * 1e-5)
        values = [hist.percentile(p) for p in (10, 50, 90, 95, 99, 100)]
        assert values == sorted(values)

    def test_extreme_samples_clamp_to_edge_buckets(self):
        hist = LatencyHistogram()
        hist.record(0.0)  # below the 1us base bucket
        hist.record(1e9)  # beyond the last bucket
        assert hist.count == 2
        assert hist.percentile(100) > hist.percentile(1)

    def test_rejects_negative_latency_and_bad_percentile(self):
        hist = LatencyHistogram()
        with pytest.raises(ValidationError):
            hist.record(-1.0)
        with pytest.raises(ValidationError):
            hist.percentile(101)

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        summary = hist.summary()
        assert set(summary) == {"count", "mean_s", "p50_s", "p95_s", "p99_s"}


class TestServingMetrics:
    def test_endpoint_registry_is_stable(self):
        metrics = ServingMetrics()
        first = metrics.endpoint("get_features")
        second = metrics.endpoint("get_features")
        assert first is second
        assert metrics.endpoints() == ["get_features"]

    def test_snapshot_structure(self):
        metrics = ServingMetrics()
        endpoint = metrics.endpoint("enrich")
        endpoint.requests.inc(4)
        endpoint.cache_hits.inc(3)
        endpoint.cache_misses.inc(1)
        endpoint.latency.record(0.002)
        metrics.inflight.inc(2)
        metrics.queue_depth.set(7)
        snap = metrics.snapshot()
        assert snap["inflight"] == 2
        assert snap["queue_depth_peak"] == 7
        stats = snap["endpoints"]["enrich"]
        assert stats["requests"] == 4.0
        assert stats["cache_hit_rate"] == pytest.approx(0.75)
        assert stats["qps"] > 0

    def test_hit_rate_zero_when_no_lookups(self):
        metrics = ServingMetrics()
        assert metrics.endpoint("x").hit_rate() == 0.0

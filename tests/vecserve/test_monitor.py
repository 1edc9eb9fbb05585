"""Tests for repro.vecserve.monitor — recall sampling and metrics."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index.base import SearchResult
from repro.serving.metrics import ServingMetrics
from repro.vecserve.monitor import RecallMonitor, VectorServeMetrics


def _result(*ids):
    ids = np.asarray(ids, dtype=np.int64)
    return SearchResult(ids=ids, scores=np.linspace(1.0, 0.5, len(ids)))


class TestRecallMonitor:
    def test_observe_perfect_and_partial(self):
        truth = _result(1, 2, 3, 4)
        monitor = RecallMonitor(oracle=lambda q, k: truth, k=4, sample_rate=1.0)
        assert monitor.observe(np.zeros(2), _result(1, 2, 3, 4)) == 1.0
        assert monitor.observe(np.zeros(2), _result(1, 2, 9, 8)) == 0.5
        assert monitor.recall_estimate() == pytest.approx(0.75)
        assert monitor.window_size() == 2
        assert monitor.samples.value == 2

    def test_served_shorter_than_k_not_penalized(self):
        # a k=2 request shadowed by a k=10 monitor: judge at depth 2
        truth = _result(1, 2, 3, 4, 5)
        monitor = RecallMonitor(oracle=lambda q, k: truth, k=5, sample_rate=1.0)
        assert monitor.observe(np.zeros(2), _result(1, 2)) == 1.0

    def test_empty_oracle_counts_as_perfect(self):
        monitor = RecallMonitor(oracle=lambda q, k: _result(), k=5)
        assert monitor.observe(np.zeros(2), _result()) == 1.0

    def test_sampling_is_seeded_and_rate_bounded(self):
        truth = _result(1, 2)
        calls = []

        def oracle(query, k):
            calls.append(k)
            return truth

        monitor = RecallMonitor(oracle=oracle, k=2, sample_rate=0.5, seed=0)
        for _ in range(200):
            monitor.maybe_observe(np.zeros(2), _result(1, 2))
        assert 60 <= len(calls) <= 140  # ~0.5 of 200, seeded
        zero = RecallMonitor(oracle=oracle, k=2, sample_rate=0.0)
        assert zero.maybe_observe(np.zeros(2), _result(1, 2)) is None

    def test_sliding_window_forgets_old_quality(self):
        truth = _result(1, 2)
        monitor = RecallMonitor(
            oracle=lambda q, k: truth, k=2, sample_rate=1.0, window=4
        )
        for _ in range(4):
            monitor.observe(np.zeros(2), _result(8, 9))  # recall 0
        for _ in range(4):
            monitor.observe(np.zeros(2), _result(1, 2))  # recall 1
        assert monitor.recall_estimate() == 1.0  # the zeros aged out

    def test_validation(self):
        with pytest.raises(ValidationError):
            RecallMonitor(oracle=lambda q, k: None, sample_rate=1.5)
        with pytest.raises(ValidationError):
            RecallMonitor(oracle=lambda q, k: None, k=0)
        with pytest.raises(ValidationError):
            RecallMonitor(oracle=lambda q, k: None, window=0)


class TestVectorServeMetrics:
    def test_mirrors_into_serving_registry(self):
        serving = ServingMetrics()
        metrics = VectorServeMetrics(
            serving=serving, mirror_endpoint="vector_search:emb"
        )
        metrics.record_query(0.01, partial=False, missed=0)
        metrics.record_query(0.02, partial=True, missed=2)
        endpoint = serving.endpoint("vector_search:emb")
        assert endpoint.requests.value == 2
        assert endpoint.degraded.value == 1
        assert metrics.partials.value == 1
        assert metrics.shard_misses.value == 2

    def test_snapshot_includes_per_shard_latency(self):
        metrics = VectorServeMetrics()
        metrics.shard_latency(0).record(0.001)
        metrics.shard_latency(2).record(0.003)
        metrics.record_compaction(0.5, generation=3)
        snap = metrics.snapshot()
        assert sorted(snap["shards"]) == [0, 2]
        assert snap["generation"] == 3
        assert snap["compactions"] == 1
        assert snap["compaction_seconds"] == pytest.approx(0.5)


class TestDashboardSection:
    def test_vector_section_renders_tables(self):
        from repro.monitoring import vector_section
        from repro.vecserve import VectorService

        rng = np.random.default_rng(0)
        with VectorService(n_workers=2) as service:
            service.serve_matrix(
                "emb", 1,
                np.arange(30, dtype=np.int64), rng.normal(size=(30, 8)),
                n_shards=2, sample_rate=1.0,
            )
            service.search("emb", rng.normal(size=8), k=5)
            rendered = vector_section(service).render()
        assert "vector serving" in rendered
        assert "emb:v1 [latest]: raw x2" in rendered
        assert "recall@10=1.000" in rendered
        assert "delta: rows=0" in rendered

    def test_vector_section_empty(self):
        from repro.monitoring import vector_section
        from repro.vecserve import VectorService

        with VectorService(n_workers=2) as service:
            rendered = vector_section(service).render()
        assert "no vector tables served" in rendered

    def test_render_dashboard_accepts_vectors(self):
        from repro.core.feature_store import FeatureStore
        from repro.monitoring import render_dashboard
        from repro.monitoring.monitor import AlertLog
        from repro.vecserve import VectorService

        rng = np.random.default_rng(1)
        with VectorService(n_workers=2) as service:
            service.serve_matrix(
                "emb", 1,
                np.arange(10, dtype=np.int64), rng.normal(size=(10, 4)),
                n_shards=1, sample_rate=0.0,
            )
            pane = render_dashboard(
                FeatureStore(), AlertLog(), vectors=service
            )
        assert "vector serving" in pane
        assert "emb:v1" in pane


class TestRecallContexts:
    def test_recall_by_context_buckets(self):
        truth = _result(1, 2)
        contexts = iter([("gen1", "fp32"), ("gen1", "fp32"), ("gen2", "int8")])
        monitor = RecallMonitor(
            oracle=lambda q, k: truth, k=2, sample_rate=1.0,
            context=lambda: next(contexts),
        )
        monitor.observe(np.zeros(2), _result(1, 2))  # gen1:fp32 → 1.0
        monitor.observe(np.zeros(2), _result(8, 9))  # gen1:fp32 → 0.0
        monitor.observe(np.zeros(2), _result(1, 9))  # gen2:int8 → 0.5
        by_context = monitor.recall_by_context()
        assert by_context == {"gen1:fp32": 0.5, "gen2:int8": 0.5}

    def test_no_context_provider_means_empty(self):
        monitor = RecallMonitor(
            oracle=lambda q, k: _result(1), k=1, sample_rate=1.0
        )
        monitor.observe(np.zeros(2), _result(1))
        assert monitor.recall_by_context() == {}

    def test_codec_storage_row_rendered(self):
        from repro.monitoring import vector_section
        from repro.vecserve import VectorService

        rng = np.random.default_rng(0)
        with VectorService(n_workers=2) as service:
            service.serve_matrix(
                "emb", 1,
                np.arange(40, dtype=np.int64), rng.normal(size=(40, 16)),
                n_shards=2, sample_rate=1.0,
                codec="int8", keep_oracle=True,
            )
            service.search("emb", rng.normal(size=16), k=5)
            rendered = vector_section(service).render()
        assert "codec=int8" in rendered
        assert "bytes/vec=16" in rendered
        assert "recall by codec:" in rendered
        assert "gen1:int8=" in rendered

"""Tests for repro.serving.gateway — the concurrent serving gateway."""

import threading

import numpy as np
import pytest

from repro.clock import SimClock
from repro.core.embedding_store import EmbeddingStore, Provenance
from repro.embeddings import EmbeddingMatrix
from repro.errors import (
    CompatibilityError,
    DeadlineExceededError,
    StaleFeatureError,
    TransientStoreError,
    ValidationError,
)
from repro.runtime import FaultPolicy
from repro.serving import (
    FaultInjectingOnlineStore,
    GatewayConfig,
    ServingGateway,
)
from repro.storage.online import FreshnessPolicy, OnlineStore

N_ENTITIES = 64
DIM = 8


@pytest.fixture
def clock():
    return SimClock(start=0.0)


@pytest.fixture
def online(clock):
    store = OnlineStore(clock=clock)
    store.create_namespace("stats", ttl=1000.0)
    for i in range(N_ENTITIES):
        store.write("stats", i, {"x": float(i)}, event_time=0.0)
    return store


@pytest.fixture
def embeddings(clock):
    store = EmbeddingStore(clock=clock)
    vectors = np.random.default_rng(0).normal(size=(N_ENTITIES, DIM))
    store.register("ent", EmbeddingMatrix(vectors=vectors), Provenance(trainer="t"))
    return store


def make_gateway(online, embeddings=None, **overrides):
    defaults = dict(batch_wait_s=0.001, n_workers=2, default_deadline_s=0.5)
    defaults.update(overrides)
    return ServingGateway(online, embeddings, GatewayConfig(**defaults))


class TestFeatureServing:
    def test_read_through_and_cache_hit(self, online):
        with make_gateway(online) as gateway:
            assert gateway.get_features("stats", 5) == {"x": 5.0}
            assert gateway.get_features("stats", 5) == {"x": 5.0}
            endpoint = gateway.metrics.endpoint("get_features")
            assert endpoint.cache_misses.value == 1
            assert endpoint.cache_hits.value == 1
            assert endpoint.requests.value == 2
            assert endpoint.latency.count == 2

    def test_missing_entity_returns_none_and_is_not_cached(self, online):
        with make_gateway(online) as gateway:
            assert gateway.get_features("stats", 999) is None
            assert gateway.get_features("stats", 999) is None
            # None results are never cached: both lookups were misses.
            assert gateway.metrics.endpoint("get_features").cache_misses.value == 2

    def test_write_invalidates_cached_value(self, online):
        with make_gateway(online) as gateway:
            assert gateway.get_features("stats", 1) == {"x": 1.0}
            gateway.write_features("stats", 1, {"x": 42.0}, event_time=10.0)
            assert gateway.get_features("stats", 1) == {"x": 42.0}
            stats = gateway.cache.stats()
            assert stats.invalidations == 1

    def test_direct_store_write_also_invalidates(self, online):
        """Any writer invalidates — the listener hook, not just the gateway."""
        with make_gateway(online) as gateway:
            assert gateway.get_features("stats", 2) == {"x": 2.0}
            online.write("stats", 2, {"x": -1.0}, event_time=10.0)
            assert gateway.get_features("stats", 2) == {"x": -1.0}

    def test_dropped_out_of_order_write_does_not_invalidate(self, online):
        with make_gateway(online) as gateway:
            gateway.get_features("stats", 3)
            online.write("stats", 3, {"x": 0.0}, event_time=-5.0)  # dropped
            assert gateway.cache.stats().invalidations == 0

    def test_batch_endpoint_mixes_cache_and_store(self, online):
        with make_gateway(online) as gateway:
            gateway.get_features("stats", 1)
            values = gateway.get_features_batch("stats", [1, 2, 999])
            assert values == [{"x": 1.0}, {"x": 2.0}, None]
            endpoint = gateway.metrics.endpoint("get_features_batch")
            assert endpoint.cache_hits.value == 1
            assert endpoint.cache_misses.value == 2

    def test_cache_disabled_always_reads_store(self, online):
        with make_gateway(online, enable_cache=False) as gateway:
            before = online.read_count
            gateway.get_features("stats", 1)
            gateway.get_features("stats", 1)
            assert online.read_count == before + 2
            assert gateway.cache is None

    def test_freshness_policy_raise_propagates_stale(self, online, clock):
        with make_gateway(online) as gateway:
            clock.advance(5000.0)  # beyond the 1000s namespace TTL
            with pytest.raises(StaleFeatureError):
                gateway.get_features("stats", 1, policy=FreshnessPolicy.RAISE)
            assert gateway.metrics.endpoint("get_features").errors.value == 1

    def test_concurrent_callers_coalesce_into_batches(self, online):
        with make_gateway(online, batch_wait_s=0.02, n_workers=1) as gateway:
            before = online.read_count
            results = {}

            def caller(i):
                results[i] = gateway.get_features("stats", i)

            threads = [
                threading.Thread(target=caller, args=(i,))
                for i in range(N_ENTITIES)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == {i: {"x": float(i)} for i in range(N_ENTITIES)}
            # Coalescing means far fewer store calls than requests; the
            # store counts per-key reads, so use the batcher's own stats.
            assert gateway.batcher.batches.value < N_ENTITIES
            assert gateway.batcher.mean_batch_size() > 1.0
            assert online.read_count == before + N_ENTITIES


class TestRobustness:
    def test_retry_recovers_from_transient_faults(self, online):
        # timeout_rate 0.4 with 4 retries: P(all 5 attempts fail) ~= 1%.
        faulty = FaultInjectingOnlineStore(
            online, FaultPolicy(timeout_rate=0.4, seed=3)
        )
        with make_gateway(
            faulty, enable_batching=False, max_retries=4, retry_backoff_s=0.0
        ) as gateway:
            values = [gateway.get_features("stats", i) for i in range(N_ENTITIES)]
            endpoint = gateway.metrics.endpoint("get_features")
            assert endpoint.retries.value > 0
            # Retries (plus rare stale-serves) keep answers flowing.
            assert sum(v is not None for v in values) >= N_ENTITIES - 5

    def test_degradation_with_ten_percent_timeouts(self, online):
        """Acceptance: 10% injected timeouts => stale-or-default responses,
        never an exception, and the counters record the degradation."""
        faulty = FaultInjectingOnlineStore(
            online, FaultPolicy(timeout_rate=0.10, seed=11)
        )
        with make_gateway(
            faulty,
            enable_batching=False,
            max_retries=0,  # force degradation on first fault
            retry_backoff_s=0.0,
            cache_ttl_s=1e-9,  # everything cached goes stale immediately
        ) as gateway:
            # Warm the cache so degraded requests have stale values to serve.
            for i in range(N_ENTITIES):
                gateway.get_features("stats", i)
            served, nones = 0, 0
            for round_ in range(10):
                for i in range(N_ENTITIES):
                    value = gateway.get_features(
                        "stats", i, policy=FreshnessPolicy.SERVE_ANYWAY
                    )
                    if value is None:
                        nones += 1
                    else:
                        served += 1
            endpoint = gateway.metrics.endpoint("get_features")
            assert endpoint.errors.value == 0  # graceful: nothing raised
            assert endpoint.degraded.value > 0
            assert endpoint.stale_served.value > 0
            assert faulty.injected_timeouts.value > 0
            # Stale-serving keeps the answer rate near 100%.
            assert served >= 10 * N_ENTITIES * 0.9

    def test_degradation_return_none_policy(self, online):
        faulty = FaultInjectingOnlineStore(
            online, FaultPolicy(timeout_rate=1.0, seed=0)
        )
        with make_gateway(
            faulty, enable_batching=False, max_retries=1, retry_backoff_s=0.0
        ) as gateway:
            value = gateway.get_features(
                "stats", 1, policy=FreshnessPolicy.RETURN_NONE
            )
            assert value is None
            endpoint = gateway.metrics.endpoint("get_features")
            assert endpoint.degraded.value == 1
            assert endpoint.retries.value == 1

    def test_degradation_raise_policy(self, online):
        faulty = FaultInjectingOnlineStore(
            online, FaultPolicy(timeout_rate=1.0, seed=0)
        )
        with make_gateway(
            faulty, enable_batching=False, max_retries=0, retry_backoff_s=0.0
        ) as gateway:
            with pytest.raises(DeadlineExceededError) as excinfo:
                gateway.get_features("stats", 1, policy=FreshnessPolicy.RAISE)
            assert isinstance(excinfo.value.__cause__, TransientStoreError)
            endpoint = gateway.metrics.endpoint("get_features")
            assert endpoint.degraded.value == 1
            assert endpoint.errors.value == 1

    def test_serve_stale_on_timeout(self, online):
        """The headline degradation path: cached value survives an outage."""
        faulty = FaultInjectingOnlineStore(online, FaultPolicy(seed=0))
        with make_gateway(
            faulty,
            enable_batching=False,
            max_retries=0,
            cache_ttl_s=1e-9,
        ) as gateway:
            assert gateway.get_features("stats", 7) == {"x": 7.0}
            # Store goes fully dark.
            faulty.policy = FaultPolicy(timeout_rate=1.0)
            value = gateway.get_features(
                "stats", 7, policy=FreshnessPolicy.SERVE_ANYWAY
            )
            assert value == {"x": 7.0}
            assert gateway.metrics.endpoint("get_features").stale_served.value == 1

    def test_batch_endpoint_degrades_per_policy(self, online):
        faulty = FaultInjectingOnlineStore(
            online, FaultPolicy(timeout_rate=1.0, seed=0)
        )
        with make_gateway(
            faulty, enable_batching=False, max_retries=0, retry_backoff_s=0.0
        ) as gateway:
            values = gateway.get_features_batch(
                "stats", [1, 2], policy=FreshnessPolicy.RETURN_NONE
            )
            assert values == [None, None]
            assert gateway.metrics.endpoint("get_features_batch").degraded.value == 2

    def test_deadline_exhaustion_without_faults(self, online):
        with make_gateway(online, enable_batching=False) as gateway:
            with pytest.raises(DeadlineExceededError):
                gateway.get_features(
                    "stats", 1, policy=FreshnessPolicy.RAISE, deadline_s=-1.0
                )


class _AlwaysTransient:
    """An online store whose every read fails transiently; counts calls."""

    def __init__(self):
        self.calls = 0

    def read(self, namespace, entity_id, policy):
        self.calls += 1
        raise TransientStoreError("store down")

    def read_many(self, namespace, entity_ids, policy):
        self.calls += 1
        raise TransientStoreError("store down")


class TestRetryCounts:
    """Each read path makes ``max_retries + 1`` store calls, then degrades."""

    MAX_RETRIES = 3

    @pytest.mark.parametrize(
        "path", ["batched_point", "direct_raise", "batch_endpoint"]
    )
    def test_exhausted_retries_are_counted(self, path):
        store = _AlwaysTransient()
        with make_gateway(
            store,
            max_retries=self.MAX_RETRIES,
            retry_backoff_s=0.0,
            default_deadline_s=30.0,  # retries, not the deadline, end it
        ) as gateway:
            if path == "batched_point":
                assert gateway.get_features("stats", 1) is None
                endpoint = "get_features"
            elif path == "direct_raise":
                with pytest.raises(DeadlineExceededError) as excinfo:
                    gateway.get_features("stats", 1, policy=FreshnessPolicy.RAISE)
                assert isinstance(excinfo.value.__cause__, TransientStoreError)
                endpoint = "get_features"
            else:
                assert gateway.get_features_batch("stats", [1, 2]) == [None, None]
                endpoint = "get_features_batch"
            metrics = gateway.metrics.endpoint(endpoint)
            assert store.calls == self.MAX_RETRIES + 1
            assert metrics.retries.value == self.MAX_RETRIES
            if path == "batched_point":
                assert gateway.batcher.batches.value == self.MAX_RETRIES + 1


class TestEmbeddingServing:
    def test_rows_match_store(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            rows = gateway.get_embeddings("ent", [3, 1])
            expected = embeddings.get("ent").embedding.vectors[[3, 1]]
            np.testing.assert_allclose(rows, expected)

    def test_rows_are_cached(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            gateway.get_embeddings("ent", [3])
            gateway.get_embeddings("ent", [3])
            endpoint = gateway.metrics.endpoint("get_embeddings")
            assert endpoint.cache_hits.value == 1
            assert endpoint.cache_misses.value == 1

    def test_pinned_version_compatibility_enforced(self, online, embeddings):
        vectors = np.random.default_rng(1).normal(size=(N_ENTITIES, DIM))
        embeddings.register(
            "ent", EmbeddingMatrix(vectors=vectors), Provenance(trainer="t2")
        )
        with make_gateway(online, embeddings) as gateway:
            with pytest.raises(CompatibilityError):
                gateway.get_embeddings("ent", [1], pinned_version=1)
            embeddings.mark_compatible("ent", 1, 2)
            rows = gateway.get_embeddings("ent", [1], pinned_version=1)
            np.testing.assert_allclose(rows[0], vectors[1])

    def test_compatibility_checked_even_when_fully_cached(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            gateway.get_embeddings("ent", [1])  # caches v1 row
            vectors = np.random.default_rng(1).normal(size=(N_ENTITIES, DIM))
            embeddings.register(
                "ent", EmbeddingMatrix(vectors=vectors), Provenance(trainer="t2")
            )
            gateway.get_embeddings("ent", [1])  # caches v2 row
            with pytest.raises(CompatibilityError):
                gateway.get_embeddings("ent", [1], pinned_version=1)

    def test_empty_request(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            rows = gateway.get_embeddings("ent", [])
            assert rows.shape == (0, DIM)

    def test_requires_embedding_store(self, online):
        with make_gateway(online) as gateway:
            with pytest.raises(ValidationError):
                gateway.get_embeddings("ent", [1])


class TestEnrich:
    def test_fused_response(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            result = gateway.enrich("stats", 9, "ent")
            assert result.features == {"x": 9.0}
            np.testing.assert_allclose(
                result.embedding, embeddings.get("ent").embedding.vectors[9]
            )
            assert result.embedding_version == 1
            assert result.degraded is False

    def test_entity_outside_embedding_vocab(self, online, embeddings):
        online.write("stats", N_ENTITIES + 5, {"x": 1.0}, event_time=0.0)
        with make_gateway(online, embeddings) as gateway:
            result = gateway.enrich("stats", N_ENTITIES + 5, "ent")
            assert result.features == {"x": 1.0}
            assert result.embedding is None

    def test_enrich_flags_degradation(self, online, embeddings):
        faulty = FaultInjectingOnlineStore(
            online, FaultPolicy(timeout_rate=1.0, seed=0)
        )
        with make_gateway(
            faulty, embeddings, enable_batching=False, max_retries=0,
            retry_backoff_s=0.0,
        ) as gateway:
            result = gateway.enrich(
                "stats", 9, "ent", policy=FreshnessPolicy.RETURN_NONE
            )
            assert result.features is None
            assert result.degraded is True
            assert result.embedding is not None  # embeddings unaffected


class TestLifecycleAndSnapshot:
    def test_close_is_idempotent_and_detaches_listener(self, online):
        gateway = make_gateway(online)
        gateway.get_features("stats", 1)
        gateway.close()
        gateway.close()
        # After close, direct writes no longer touch the (detached) cache.
        online.write("stats", 1, {"x": 0.0}, event_time=99.0)
        assert gateway.cache.stats().invalidations == 0

    def test_snapshot_contains_all_surfaces(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            gateway.get_features("stats", 1)
            gateway.get_embeddings("ent", [1])
            snap = gateway.snapshot()
            assert "get_features" in snap["endpoints"]
            assert "get_embeddings" in snap["endpoints"]
            assert snap["cache"].size > 0
            assert "mean_batch_size" in snap["batch"]

    def test_config_validation(self, online):
        with pytest.raises(ValidationError):
            ServingGateway(online, config=GatewayConfig(default_deadline_s=0.0))
        with pytest.raises(ValidationError):
            ServingGateway(online, config=GatewayConfig(max_retries=-1))


class TestVectorServing:
    """The gateway's vector-plane endpoints (repro.vecserve routing)."""

    def _service(self, embeddings):
        from repro.vecserve import VectorService

        service = VectorService(embeddings=embeddings, n_workers=2)
        service.enable("ent", n_shards=2, sample_rate=0.0)
        return service

    def test_search_neighbors_routes_through_service(self, online, embeddings):
        service = self._service(embeddings)
        try:
            vectors = embeddings.get("ent").embedding.vectors
            with ServingGateway(
                online, embeddings, vectors=service
            ) as gateway:
                result = gateway.search_neighbors("ent", vectors[5], k=3)
                assert result.ids[0] == 5
                assert not result.partial
                endpoint = gateway.metrics.endpoint("search_neighbors")
                assert endpoint.requests.value == 1
                assert endpoint.degraded.value == 0
        finally:
            service.close()

    def test_partial_results_count_as_degraded(self, online, embeddings):
        from repro.vecserve import VectorService

        service = VectorService(embeddings=embeddings, n_workers=2)
        try:
            service.enable(
                "ent",
                n_shards=2,
                sample_rate=0.0,
                fault_policy=FaultPolicy(error_rate=1.0, seed=0),
            )
            vectors = embeddings.get("ent").embedding.vectors
            with ServingGateway(
                online, embeddings, vectors=service
            ) as gateway:
                result = gateway.search_neighbors("ent", vectors[0], k=3)
                assert result.partial
                endpoint = gateway.metrics.endpoint("search_neighbors")
                assert endpoint.degraded.value == 1
        finally:
            service.close()

    def test_without_service_raises(self, online, embeddings):
        with make_gateway(online, embeddings) as gateway:
            with pytest.raises(ValidationError):
                gateway.search_neighbors("ent", np.zeros(DIM), k=3)


class TestStopDuringInflight:
    """Runtime-kernel regression: close() racing live request threads."""

    def test_close_while_clients_hammer_the_read_path(self, online):
        from repro.runtime import LifecycleError, ServiceState

        gateway = make_gateway(online, enable_cache=False)
        unexpected: list[BaseException] = []
        served = {"n": 0}
        start_gate = threading.Event()

        def client():
            start_gate.wait()
            i = 0
            while True:
                try:
                    value = gateway.get_features("stats", i % N_ENTITIES)
                    if value is not None:
                        served["n"] += 1
                except (LifecycleError, ValidationError):
                    return  # draining: expected rejection
                except Exception as exc:  # noqa: BLE001 - recorded
                    unexpected.append(exc)
                    return
                i += 1

        clients = [threading.Thread(target=client) for __ in range(4)]
        for thread in clients:
            thread.start()
        start_gate.set()
        while served["n"] < 50:  # make sure the race is real
            pass
        gateway.close()
        gateway.close()  # double-close stays a no-op under load
        for thread in clients:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in clients)
        assert unexpected == []
        assert gateway.state is ServiceState.STOPPED
        # Every worker the gateway (and its batcher) owned has exited.
        assert all(not t.is_alive() for t in gateway._threads)
        if gateway.batcher is not None:
            assert all(not t.is_alive() for t in gateway.batcher._threads)

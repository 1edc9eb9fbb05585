"""Thread-safety tests for the stores under the gateway's worker pool.

The serving gateway points a bounded worker pool plus N client threads at
``OnlineStore`` and ``EmbeddingStore``; these tests hammer the stores the
same way and assert that counters, namespaces and version lists stay
consistent (the satellite requirement of the serving-gateway issue).
"""

import threading

import numpy as np
import pytest

from repro.clock import SimClock
from repro.core.embedding_store import EmbeddingStore, Provenance
from repro.embeddings import EmbeddingMatrix
from repro.storage.online import OnlineStore
from repro.vecserve import VectorService

pytestmark = pytest.mark.slow

N_THREADS = 8
OPS = 2000


def run_threads(target, n=N_THREADS):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestOnlineStoreThreadSafety:
    def test_counters_not_corrupted_by_concurrent_ops(self):
        store = OnlineStore(clock=SimClock(0.0))
        store.create_namespace("ns")

        def worker(thread_id):
            for op in range(OPS):
                key = (thread_id * OPS + op) % 256
                store.write("ns", key, {"v": float(op)}, event_time=float(op))
                store.read("ns", key)

        run_threads(worker)
        # Every write carried a strictly non-decreasing per-key event time
        # pattern across threads is not guaranteed, so some writes are
        # legitimately dropped; reads however are all counted.
        assert store.read_count == N_THREADS * OPS
        assert store.write_count <= N_THREADS * OPS
        assert store.write_count >= 256  # every key landed at least once
        assert store.size("ns") == 256

    def test_concurrent_namespace_creation_and_writes(self):
        store = OnlineStore(clock=SimClock(0.0))

        def worker(thread_id):
            for op in range(200):
                name = f"ns-{op % 10}"
                store.create_namespace(name, ttl=100.0)
                store.write(name, thread_id, {"v": 1.0}, event_time=float(op))

        run_threads(worker)
        assert store.namespaces() == [f"ns-{i}" for i in range(10)]
        for name in store.namespaces():
            assert store.size(name) == N_THREADS

    def test_read_many_counts_batch(self):
        store = OnlineStore(clock=SimClock(0.0))
        store.create_namespace("ns")
        store.write("ns", 1, {"v": 1.0}, event_time=0.0)
        store.read_many("ns", [1, 2, 3])
        assert store.read_count == 3

    def test_write_listener_fires_outside_lock(self):
        """A listener that re-enters the store must not deadlock."""
        store = OnlineStore(clock=SimClock(0.0))
        store.create_namespace("ns")
        seen = []

        def reentrant_listener(namespace, entity_id):
            seen.append((namespace, entity_id, store.size(namespace)))

        store.add_write_listener(reentrant_listener)
        store.write("ns", 1, {"v": 1.0}, event_time=0.0)
        assert seen == [("ns", 1, 1)]
        store.remove_write_listener(reentrant_listener)
        store.write("ns", 2, {"v": 1.0}, event_time=0.0)
        assert len(seen) == 1

    def test_dropped_write_does_not_notify(self):
        store = OnlineStore(clock=SimClock(0.0))
        store.create_namespace("ns")
        events = []
        store.add_write_listener(lambda ns, eid: events.append(eid))
        store.write("ns", 1, {"v": 2.0}, event_time=10.0)
        store.write("ns", 1, {"v": 1.0}, event_time=5.0)  # dropped
        assert events == [1]


class TestEmbeddingStoreThreadSafety:
    def test_concurrent_registration_assigns_unique_versions(self):
        store = EmbeddingStore(clock=SimClock(0.0))
        rng = np.random.default_rng(0)
        matrices = [
            EmbeddingMatrix(vectors=rng.normal(size=(20, 4))) for __ in range(16)
        ]

        def worker(thread_id):
            for i in range(2):
                store.register(
                    "emb",
                    matrices[thread_id * 2 + i],
                    Provenance(trainer=f"t{thread_id}"),
                )

        run_threads(worker)
        records = store.versions("emb")
        assert [r.version for r in records] == list(range(1, 17))
        assert store.latest_version("emb") == 16

    def test_concurrent_search_during_registrations(self):
        """Registrations, the auto-enabled table builds they trigger and
        searches interleave across threads; every version is served once
        and each thread's row stays its own 1-NN (each version is a
        rescaled copy, so cosine neighbours agree across versions)."""
        store = EmbeddingStore(clock=SimClock(0.0))
        vectors = np.random.default_rng(0).normal(size=(50, 8))
        results = []
        with VectorService(embeddings=store, n_workers=4) as service:
            service.auto_enable(
                "emb", n_shards=2, sample_rate=0.0
            )
            store.register(
                "emb", EmbeddingMatrix(vectors=vectors), Provenance("t")
            )

            def worker(thread_id):
                store.register(
                    "emb",
                    EmbeddingMatrix(vectors=vectors * (thread_id + 2)),
                    Provenance(f"t{thread_id}"),
                )
                result = service.search("emb", vectors[thread_id], k=3)
                results.append(int(result.ids[0]))

            run_threads(worker)
            assert service.served_tables() == [
                ("emb", version) for version in range(1, N_THREADS + 2)
            ]
        assert sorted(results) == list(range(N_THREADS))  # row i is its own 1-NN

    def test_concurrent_serving_and_compatibility(self):
        store = EmbeddingStore(clock=SimClock(0.0))
        rng = np.random.default_rng(0)
        store.register("emb", EmbeddingMatrix(vectors=rng.normal(size=(20, 4))), Provenance("t"))
        store.register("emb", EmbeddingMatrix(vectors=rng.normal(size=(20, 4))), Provenance("t"))
        errors = []

        def worker(thread_id):
            try:
                for __ in range(200):
                    store.mark_compatible("emb", 1, 2)
                    assert store.is_compatible("emb", 1, 2)
                    store.vectors_for_model("emb", 1, np.arange(5))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        run_threads(worker)
        assert not errors
        assert store.read_count == N_THREADS * 200

"""Tests for repro.vecserve.service — routing, subscription, batching."""

import concurrent.futures
import time

import numpy as np
import pytest

from repro.core.embedding_store import EmbeddingStore, Provenance
from repro.embeddings import EmbeddingMatrix
from repro.errors import NotRegisteredError, ValidationError
from repro.index import BruteForceIndex
from repro.vecserve import VectorService


@pytest.fixture()
def corpus():
    rng = np.random.default_rng(0)
    return np.arange(120, dtype=np.int64), rng.normal(size=(120, 8))


def _serve(service, corpus, name="emb", version=1, **kwargs):
    ids, vectors = corpus
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("sample_rate", 0.0)
    service.serve_matrix(name, version, ids, vectors, **kwargs)


class TestRouting:
    def test_pinned_and_latest_versions(self, corpus):
        ids, vectors = corpus
        with VectorService(n_workers=4) as service:
            _serve(service, corpus, version=1)
            shifted = np.roll(vectors, 1, axis=0)  # v2 permutes the rows
            service.serve_matrix(
                "emb", 2, ids, shifted,
                n_shards=2, sample_rate=0.0,
            )
            pinned = service.search("emb", vectors[10], k=1, version=1)
            latest = service.search("emb", vectors[10], k=1)
            assert pinned.ids[0] == 10
            assert latest.ids[0] == 11  # roll moved row 10 to id 11
            assert service.served_tables() == [("emb", 1), ("emb", 2)]

    def test_unknown_table_raises(self):
        with VectorService(n_workers=2) as service:
            with pytest.raises(NotRegisteredError):
                service.search("ghost", np.zeros(4), k=1)

    def test_disable_retargets_latest(self, corpus):
        with VectorService(n_workers=2) as service:
            _serve(service, corpus, version=1)
            _serve(service, corpus, version=2)
            service.disable("emb", 2)
            assert service.served_tables() == [("emb", 1)]
            assert service.search("emb", corpus[1][3], k=1).ids[0] == 3
            service.disable("emb", 1)
            assert service.served_tables() == []
            with pytest.raises(NotRegisteredError):  # no latest to follow
                service.search("emb", corpus[1][3], k=1)

    def test_unknown_backend_rejected(self, corpus):
        ids, vectors = corpus
        with VectorService(n_workers=2) as service:
            with pytest.raises(ValidationError):
                service.serve_matrix("emb", 1, ids, vectors, backend="faiss")


class TestStoreSubscription:
    def test_auto_enable_serves_future_registrations(self, corpus):
        __, vectors = corpus
        store = EmbeddingStore()
        with VectorService(embeddings=store, n_workers=4) as service:
            service.auto_enable(
                "users", n_shards=2, sample_rate=0.0
            )
            store.register(
                "users", EmbeddingMatrix(vectors), Provenance(trainer="t")
            )
            assert service.served_tables() == [("users", 1)]
            store.register(
                "users",
                EmbeddingMatrix(np.roll(vectors, 1, axis=0)),
                Provenance(trainer="t"),
            )
            assert service.served_tables() == [("users", 1), ("users", 2)]
            # latest routing follows the new registration automatically
            assert service.search("users", vectors[10], k=1).ids[0] == 11

    def test_enable_existing_version_and_idempotence(self, corpus):
        __, vectors = corpus
        store = EmbeddingStore()
        with VectorService(embeddings=store, n_workers=4) as service:
            store.register(
                "users", EmbeddingMatrix(vectors), Provenance(trainer="t")
            )
            first = service.enable(
                "users", n_shards=2, sample_rate=0.0
            )
            again = service.enable("users")
            assert first is again  # second enable returns the live table

    def test_brute_tables_match_reference_index(self, corpus):
        """1-shard and 3-shard tables (exact scans) over a stored
        version answer like ``repro.index.BruteForceIndex`` built on the
        same matrix."""
        __, vectors = corpus
        store = EmbeddingStore()
        store.register(
            "users", EmbeddingMatrix(vectors), Provenance(trainer="t")
        )
        reference = BruteForceIndex()
        reference.build(vectors)
        queries = np.vstack(
            [vectors[42], np.random.default_rng(1).normal(size=(4, 8))]
        )
        for n_shards in (1, 3):
            with VectorService(embeddings=store, n_workers=4) as service:
                service.enable(
                    "users", n_shards=n_shards, sample_rate=0.0
                )
                for query in queries:
                    served = service.search("users", query, k=5)
                    expected = reference.query(query, 5)
                    assert served.ids.tolist() == expected.ids.tolist()
                    np.testing.assert_allclose(served.scores, expected.scores)


class TestWritePathAndCompaction:
    def test_maybe_compact_threshold(self, corpus):
        with VectorService(n_workers=2) as service:
            _serve(service, corpus)
            rng = np.random.default_rng(5)
            service.upsert(
                "emb",
                np.arange(1000, 1020, dtype=np.int64),
                rng.normal(size=(20, 8)),
            )
            assert service.maybe_compact(max_pending=100) == 0
            assert service.maybe_compact(max_pending=10) == 1
            assert service.table("emb").pending_mutations == 0

    def test_auto_compaction_thread(self, corpus):
        import time

        with VectorService(n_workers=2) as service:
            _serve(service, corpus)
            service.start_auto_compaction(interval_s=0.01, max_pending=5)
            rng = np.random.default_rng(6)
            service.upsert(
                "emb",
                np.arange(2000, 2020, dtype=np.int64),
                rng.normal(size=(20, 8)),
            )
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if service.table("emb").pending_mutations == 0:
                    break
                time.sleep(0.01)
            assert service.table("emb").pending_mutations == 0
            assert service.table("emb").max_generation >= 2


class TestQueryBatcher:
    def test_concurrent_callers_coalesce(self, corpus):
        ids, vectors = corpus
        with VectorService(
            n_workers=4, batch_queries=True, batch_wait_s=0.002
        ) as service:
            _serve(service, corpus)
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                futures = [
                    pool.submit(service.search, "emb", vectors[i], 3)
                    for i in range(40)
                ]
                results = [f.result() for f in futures]
            for i, result in enumerate(results):
                assert result.ids[0] == i
            assert service.batcher is not None
            assert service.batcher.batched_requests.value == 40
            table = service.table("emb")
            assert table.metrics.batched_queries.value == 40
            snap = service.snapshot()
            assert snap["batch"]["batched_requests"] == 40

    def test_explicit_deadline_goes_through_batcher(self, corpus):
        __, vectors = corpus
        with VectorService(n_workers=4, batch_queries=True) as service:
            _serve(service, corpus)
            result = service.search("emb", vectors[3], k=1, deadline_s=1.0)
            assert result.ids[0] == 3
            assert service.batcher.batched_requests.value == 1

    @pytest.mark.parametrize(
        "bad_query",
        [np.full(8, np.nan), np.zeros(5)],
        ids=["nan", "wrong_dim"],
    )
    def test_bad_query_fails_only_its_own_caller(self, corpus, bad_query):
        """A query that would break the batch's fan-out is rejected
        before it is enqueued, so the good queries it would have been
        co-batched with still get their answers. The wide wait window
        keeps every batch open while the queries arrive, so each of the
        batcher's workers holds a good query when the bad one comes."""
        __, vectors = corpus
        queries = [vectors[i] for i in range(6)]
        queries.insert(2, bad_query)
        with VectorService(
            n_workers=2, batch_queries=True, batch_wait_s=0.3
        ) as service:
            _serve(service, corpus)
            with concurrent.futures.ThreadPoolExecutor(len(queries)) as pool:
                futures = []
                for query in queries:
                    futures.append(pool.submit(service.search, "emb", query, 1))
                    time.sleep(0.02)
                bad = futures.pop(2)
                for i, future in enumerate(futures):
                    assert future.result().ids[0] == i
                with pytest.raises(ValidationError):
                    bad.result()

    def test_batcher_forwards_errors(self, corpus):
        with VectorService(n_workers=2, batch_queries=True) as service:
            _serve(service, corpus)
            with pytest.raises(NotRegisteredError):
                service.search("ghost", np.zeros(8), k=1)


class TestSnapshotShape:
    def test_snapshot_reports_quality_and_pressure(self, corpus):
        with VectorService(n_workers=2) as service:
            _serve(service, corpus, sample_rate=1.0)
            service.search("emb", corpus[1][0], k=5)
            stats = service.snapshot()["tables"]["emb:v1"]
            assert "backend" not in stats
            assert stats["codec"] == "raw"
            assert stats["latest"] is True
            assert stats["recall_estimate"] == 1.0
            assert stats["queries"] == 1
            assert stats["snapshot_rows"] == 120


class TestServiceLifecycle:
    """Runtime-kernel regressions: idempotent close, stop under load."""

    def test_double_close_is_a_noop(self, corpus):
        service = VectorService(n_workers=2)
        _serve(service, corpus)
        service.close()
        service.close()
        service.stop()
        from repro.runtime import ServiceState

        assert service.state is ServiceState.STOPPED

    def test_query_after_close_raises_lifecycle_error(self, corpus):
        from repro.runtime import LifecycleError

        service = VectorService(n_workers=2)
        _serve(service, corpus)
        service.close()
        with pytest.raises(LifecycleError):
            service.search("emb", corpus[1][0], k=1)

    def test_stop_during_inflight_queries(self, corpus):
        """close() while a thread pool is mid-query must not deadlock or
        leak; in-flight queries either complete or fail with the
        lifecycle rejection, never anything else."""
        import threading

        service = VectorService(n_workers=4, batch_queries=True)
        _serve(service, corpus)
        unexpected: list[BaseException] = []
        completed = {"n": 0}
        start_gate = threading.Event()

        def client():
            from repro.runtime import LifecycleError

            rng = np.random.default_rng(3)
            start_gate.wait()
            for __ in range(200):
                try:
                    service.search("emb", rng.normal(size=8), k=3)
                    completed["n"] += 1
                except LifecycleError:
                    return
                except Exception as exc:  # noqa: BLE001 - recorded
                    unexpected.append(exc)
                    return

        clients = [threading.Thread(target=client) for __ in range(4)]
        for thread in clients:
            thread.start()
        start_gate.set()
        service.close()  # pull the plug mid-flight
        for thread in clients:
            thread.join(timeout=5.0)
        assert unexpected == []
        assert not service.running

    def test_health_reports_tables_and_batcher(self, corpus):
        with VectorService(n_workers=2, batch_queries=True) as service:
            _serve(service, corpus)
            record = service.health()
            assert record["healthy"] is True
            assert record["tables"] == 1
            assert record["batcher"]["name"] == "vector-query-batcher"

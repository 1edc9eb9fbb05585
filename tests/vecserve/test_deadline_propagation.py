"""Regression: a request deadline must bound the *batched* vector path.

Historically ``VectorService.search`` only routed through the query
batcher (a :class:`~repro.runtime.Batcher`) when the caller
passed no deadline, and the batched future wait was unbounded — so a
request-scoped deadline handed to :meth:`ServingGateway.search_neighbors`
silently stopped applying the moment query batching was enabled. These
tests pin the fixed contract:

* deadline-carrying queries still coalesce through the batcher (the
  perf property batching exists for);
* the shard fan-out inherits the tightest deadline in the batch;
* the caller's wall-time wait is bounded by its own budget even when a
  shard worker stalls far past it, degrading to a ``partial`` result —
  never hanging.
"""

import time

import numpy as np
import pytest

from repro.runtime import FaultPolicy
from repro.serving import ServingGateway
from repro.storage.online import OnlineStore
from repro.vecserve import VectorService


@pytest.fixture()
def corpus():
    rng = np.random.default_rng(7)
    return np.arange(64, dtype=np.int64), rng.normal(size=(64, 8))


def _serve(service, corpus, **kwargs):
    ids, vectors = corpus
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("sample_rate", 0.0)
    service.serve_matrix("emb", 1, ids, vectors, **kwargs)


class TestBatchedDeadline:
    def test_deadline_queries_still_batch(self, corpus):
        """The fix must not fork deadline traffic off the batched path."""
        with VectorService(n_workers=4, batch_queries=True) as service:
            _serve(service, corpus)
            for query in corpus[1][:8]:
                result = service.search("emb", query, k=3, deadline_s=0.5)
                assert len(result.ids) == 3
            assert service.batcher.batched_requests.value >= 8

    def test_batched_result_correct_under_deadline(self, corpus):
        ids, vectors = corpus
        with VectorService(n_workers=4, batch_queries=True) as service:
            _serve(service, corpus)
            result = service.search("emb", vectors[5], k=1, deadline_s=0.5)
            assert not result.partial
            assert result.ids[0] == 5

    def test_stalled_shard_cannot_hang_caller(self, corpus):
        """A shard sleeping far past the budget: the caller gets a
        bounded, partial answer instead of waiting the stall out."""
        stall_s = 1.5
        with VectorService(n_workers=2, batch_queries=True) as service:
            _serve(
                service,
                corpus,
                n_shards=2,
                fault_policy=FaultPolicy(base_latency_s=stall_s),
            )
            start = time.monotonic()
            result = service.search(
                "emb", corpus[1][0], k=3, deadline_s=0.05
            )
            elapsed = time.monotonic() - start
            assert elapsed < stall_s  # never waits the stall out
            assert result.partial
            assert service.batcher.batched_requests.value >= 1

    def test_gateway_deadline_reaches_scatter_gather(self, corpus):
        """End to end: ``ServingGateway.search_neighbors(deadline_s=...)``
        bounds the vecserve path even with query batching enabled."""
        stall_s = 1.5
        store = OnlineStore()
        store.create_namespace("ns")
        with VectorService(n_workers=2, batch_queries=True) as service:
            _serve(
                service,
                corpus,
                fault_policy=FaultPolicy(base_latency_s=stall_s),
            )
            gateway = ServingGateway(store, vectors=service)
            try:
                start = time.monotonic()
                result = gateway.search_neighbors(
                    "emb", corpus[1][0], k=3, deadline_s=0.05
                )
                elapsed = time.monotonic() - start
                assert elapsed < stall_s
                assert result.partial
                # the gateway mirrors partials into its degraded counter
                endpoint = gateway.metrics.endpoint("search_neighbors")
                assert endpoint.degraded.value >= 1
            finally:
                gateway.stop()

    def test_unbatched_path_unchanged(self, corpus):
        with VectorService(n_workers=4, batch_queries=False) as service:
            _serve(service, corpus)
            result = service.search("emb", corpus[1][9], k=1, deadline_s=0.5)
            assert result.ids[0] == 9
            assert service.batcher is None

"""Raw/codec parity: every sealed storage format is served by one exact
scan through the serving plane's snapshot + delta merge machinery.

Three invariants pin the plane's correctness:

* with an *empty* delta, a single-shard raw table is a pure
  pass-through — its results must match a bare
  :class:`~repro.index.BruteForceIndex` over the same rows (the merge,
  masking and routing layers add nothing), and sharding the table costs
  no recall;
* a *fresh upsert* must be the top hit for its own vector in every
  storage format before any compaction runs — freshness comes from the
  exact delta, so quantized codes cannot hide a new row;
* ``backend`` accepts only ``"brute"``: no approximate index serves a
  table (ANN experiments use :mod:`repro.index` directly).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index import BruteForceIndex, recall_at_k
from repro.vecserve import ShardedVectorIndex, VectorService

CODECS = pytest.mark.parametrize(
    "codec", [None, "fp32", "int8", "pq"], ids=["raw", "fp32", "int8", "pq"]
)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(0)
    return rng.normal(size=(400, 16))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1)
    return rng.normal(size=(8, 16))


class TestPassThroughParity:
    def test_single_shard_empty_delta_matches_bare_index(self, corpus, queries):
        bare = BruteForceIndex()
        bare.build(corpus)
        with ShardedVectorIndex(dim=16, n_shards=1) as served:
            served.bulk_load(np.arange(400, dtype=np.int64), corpus)
            for query in queries:
                expected = bare.query(query, k=10)
                got = served.search(query, k=10)
                assert not got.partial
                assert got.ids.tolist() == expected.ids.tolist()
                np.testing.assert_allclose(got.scores, expected.scores)

    def test_sharded_recall_matches_exact_oracle_for_float64(
        self, corpus, queries
    ):
        """Sharding itself must not cost recall: the merge of per-shard
        exact scans is exact, so a 4-shard raw table reads recall 1.0
        against an unpartitioned brute-force index."""
        bare = BruteForceIndex()
        bare.build(corpus)
        with ShardedVectorIndex(dim=16, n_shards=4) as served:
            served.bulk_load(np.arange(400, dtype=np.int64), corpus)
            for query in queries:
                got = served.search(query, k=10)
                assert recall_at_k(got, bare.query(query, k=10), k=10) == 1.0


class TestFreshUpsertParity:
    @CODECS
    def test_fresh_upsert_is_exact_before_compaction(self, codec, corpus):
        """A just-written vector is served from the exact delta: querying
        for it must return it as the top hit in every storage format."""
        with VectorService(n_workers=4) as service:
            service.serve_matrix(
                "emb", 1,
                np.arange(400, dtype=np.int64), corpus,
                n_shards=4, sample_rate=0.0, codec=codec,
            )
            rng = np.random.default_rng(7)
            fresh = rng.normal(size=(5, 16))
            fresh_ids = np.arange(9000, 9005, dtype=np.int64)
            service.upsert("emb", fresh_ids, fresh)
            for entity, vector in zip(fresh_ids.tolist(), fresh):
                result = service.search("emb", vector, k=1)
                assert result.ids[0] == entity, (
                    f"{codec}: fresh upsert {entity} not retrievable "
                    f"pre-compaction"
                )

    @CODECS
    def test_tombstone_masks_on_every_codec(self, codec, corpus):
        with VectorService(n_workers=4) as service:
            service.serve_matrix(
                "emb", 1,
                np.arange(400, dtype=np.int64), corpus,
                n_shards=2, sample_rate=0.0, codec=codec,
            )
            victim = corpus[33]
            service.remove("emb", np.asarray([33], dtype=np.int64))
            result = service.search("emb", victim, k=20)
            assert 33 not in result.ids.tolist()
            # ...and stays dead through a compaction
            service.compact("emb")
            result = service.search("emb", victim, k=20)
            assert 33 not in result.ids.tolist()


class TestNoAnnBackend:
    def test_hnsw_backend_rejected(self, corpus):
        with VectorService(n_workers=2) as service:
            with pytest.raises(ValidationError, match="repro.index"):
                service.serve_matrix(
                    "emb", 1, np.arange(400, dtype=np.int64), corpus,
                    backend="hnsw",
                )
            assert service.served_tables() == []

"""Tests for repro.vecserve.shards — scatter-gather over partitions."""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index import BruteForceIndex, recall_at_k
from repro.index.base import SearchResult
from repro.runtime import FaultPolicy
from repro.vecserve.shards import (
    ShardedVectorIndex,
    merge_topk,
    shard_for,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return np.arange(300, dtype=np.int64), rng.normal(size=(300, 8))


def _sharded(data, n_shards=4, **kwargs):
    ids, vectors = data
    index = ShardedVectorIndex(dim=8, n_shards=n_shards, **kwargs)
    index.bulk_load(ids, vectors)
    return index


class TestRouting:
    def test_shard_for_is_stable_and_in_range(self):
        for external in (-5, 0, 1, 2**40, 12345):
            shard = shard_for(external, 4)
            assert 0 <= shard < 4
            assert shard == shard_for(external, 4)

    def test_merge_topk_is_exact_over_disjoint_parts(self):
        a = SearchResult(
            ids=np.asarray([1, 2], dtype=np.int64),
            scores=np.asarray([0.9, 0.5]),
        )
        b = SearchResult(
            ids=np.asarray([3], dtype=np.int64), scores=np.asarray([0.7])
        )
        merged = merge_topk([a, b], k=2)
        assert merged.ids.tolist() == [1, 3]
        assert merged.scores.tolist() == [0.9, 0.7]

    def test_merge_topk_empty(self):
        assert len(merge_topk([], k=5)) == 0


class TestParity:
    def test_sharded_equals_single_index(self, data):
        """Scatter-gather over disjoint partitions is an exact merge: the
        sharded result must equal one unpartitioned brute-force index."""
        ids, vectors = data
        single = BruteForceIndex()
        single.build(vectors)
        with _sharded(data, n_shards=4) as sharded:
            rng = np.random.default_rng(1)
            for query in rng.normal(size=(10, 8)):
                expected = single.query(query, k=10)
                got = sharded.search(query, k=10)
                assert not got.partial
                assert got.ids.tolist() == expected.ids.tolist()
                np.testing.assert_allclose(got.scores, expected.scores)

    def test_search_batch_matches_single_queries(self, data):
        """``search(q)`` and ``search_batch`` answer identically on every
        storage format, over a live set with upserts (new and
        shadowing) and tombstones, with oracle re-ranking, and at a k
        larger than the live row count."""
        ids, vectors = data
        rng = np.random.default_rng(2)
        queries = rng.normal(size=(6, 8))
        fresh_ids = np.asarray([9001, 9002, 17, 42], dtype=np.int64)
        fresh = rng.normal(size=(4, 8))
        dead = np.asarray([3, 99, 9002, 123], dtype=np.int64)
        configs = [{"codec": codec} for codec in (None, "fp32", "int8", "pq")] + [
            {"codec": "int8", "keep_oracle": True, "rerank_oversample": 4}
        ]
        for options in configs:
            with ShardedVectorIndex(
                dim=8,
                n_shards=4,
                default_deadline_s=30.0,
                **options,
            ) as sharded:
                sharded.bulk_load(ids, vectors)
                sharded.upsert(fresh_ids, fresh)
                sharded.remove(dead)
                live = len(ids) + 2 - 3
                for k in (5, live + 50):
                    label = f"{options} k={k}"
                    batched = sharded.search_batch(queries, k=k)
                    for query, batch_result in zip(queries, batched):
                        single = sharded.search(query, k=k)
                        (alone,) = sharded.search_batch(query[None], k=k)
                        assert not single.partial and not alone.partial
                        assert alone.ids.tolist() == single.ids.tolist(), label
                        np.testing.assert_allclose(
                            alone.scores, single.scores, rtol=1e-12,
                            err_msg=label,
                        )
                        # a wider batch scores through float32 matmuls
                        # that may round differently from a one-row one
                        assert (
                            batch_result.ids.tolist() == single.ids.tolist()
                        ), label
                        np.testing.assert_allclose(
                            batch_result.scores, single.scores, atol=1e-6,
                            err_msg=label,
                        )
                        assert not set(dead.tolist()) & set(single.ids.tolist())
                        assert len(single) <= live


class TestLiveMutations:
    def test_fresh_upsert_visible_before_compaction(self, data):
        with _sharded(data) as sharded:
            target = np.full(8, 0.5)
            sharded.upsert(np.asarray([9999], dtype=np.int64), target[None])
            result = sharded.search(target, k=1)
            assert result.ids[0] == 9999
            assert sharded.pending_mutations == 1

    def test_remove_masks_snapshot_row(self, data):
        ids, vectors = data
        with _sharded(data) as sharded:
            query = vectors[17]
            assert sharded.search(query, k=1).ids[0] == 17
            sharded.remove(np.asarray([17], dtype=np.int64))
            result = sharded.search(query, k=10)
            assert 17 not in result.ids.tolist()
            assert 17 not in sharded.search_exact(query, k=10).ids.tolist()

    def test_upsert_overwrites_snapshot_row(self, data):
        ids, vectors = data
        with _sharded(data) as sharded:
            replacement = -vectors[17]
            sharded.upsert(np.asarray([17], dtype=np.int64), replacement[None])
            result = sharded.search(replacement, k=1)
            assert result.ids[0] == 17
            # the delta row shadows the stale snapshot row
            stale = sharded.search(vectors[17], k=300)
            assert (
                np.flatnonzero(stale.ids == 17).size == 1
            ), "stale and fresh rows must not both surface"

    def test_compaction_folds_and_preserves_results(self, data):
        with _sharded(data) as sharded:
            target = np.full(8, -0.3)
            sharded.upsert(np.asarray([5000], dtype=np.int64), target[None])
            sharded.remove(np.asarray([23], dtype=np.int64))
            stats = sharded.compact()
            assert sharded.pending_mutations == 0
            assert sharded.max_generation == 2
            assert sum(s.folded_upserts for s in stats) == 1
            assert sum(s.dropped_tombstones for s in stats) == 1
            assert sharded.search(target, k=1).ids[0] == 5000
            assert 23 not in sharded.search(data[1][23], k=50).ids.tolist()

    def test_duplicate_bulk_load_ids_rejected(self):
        index = ShardedVectorIndex(dim=8, n_shards=2)
        with pytest.raises(ValidationError):
            index.bulk_load(
                np.asarray([1, 1], dtype=np.int64), np.zeros((2, 8))
            )
        index.close()


class TestDegradation:
    def test_all_shards_faulty_yields_empty_partial(self, data):
        policy = FaultPolicy(error_rate=1.0, seed=0)
        with _sharded(data, fault_policy=policy) as sharded:
            result = sharded.search(np.ones(8), k=5)
            assert result.partial
            assert result.shards_missed == sharded.n_shards
            assert len(result) == 0
            assert sharded.metrics.shard_errors.value == sharded.n_shards
            assert sharded.metrics.partials.value == 1

    def test_deadline_miss_returns_partial_subset(self, data):
        policy = FaultPolicy(
            timeout_rate=0.5, timeout_latency_s=0.2, seed=3
        )
        with _sharded(data, fault_policy=policy, default_deadline_s=0.05) as sharded:
            result = sharded.search(np.ones(8), k=5)
            # seeded rng: some shards time out past the deadline
            assert result.partial
            assert 0 < result.shards_missed <= sharded.n_shards
            assert sharded.metrics.shard_misses.value >= 1

    def test_no_faults_never_partial(self, data):
        with _sharded(data) as sharded:
            for _ in range(5):
                assert not sharded.search(np.ones(8), k=3).partial


class TestConcurrentRebuild:
    def test_zero_failed_queries_during_background_swaps(self, data):
        """The acceptance gate: continuous queries while upserts land and
        blue/green compactions swap generations — nothing fails, nothing
        blocks, and post-hoc recall over the sealed set is exact."""
        ids, vectors = data
        with _sharded(data, n_shards=4) as sharded:
            stop = threading.Event()
            failures: list[BaseException] = []
            completed = [0]

            def reader():
                rng = np.random.default_rng(11)
                while not stop.is_set():
                    query = rng.normal(size=8)
                    try:
                        result = sharded.search(query, k=5, deadline_s=2.0)
                        assert len(result) == 5
                        assert not result.partial
                        completed[0] += 1
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
                        return

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            rng = np.random.default_rng(12)
            for wave in range(10):
                fresh = np.arange(
                    10_000 + wave * 10, 10_010 + wave * 10, dtype=np.int64
                )
                sharded.upsert(fresh, rng.normal(size=(10, 8)))
                sharded.compact()  # builds run on this thread, not the pool
            stop.set()
            for thread in threads:
                thread.join()
            assert not failures
            assert completed[0] > 0
            assert sharded.pending_mutations == 0
            assert sharded.snapshot_rows == 400
            # after the dust settles: approximate path == exact oracle
            query = rng.normal(size=8)
            exact = sharded.search_exact(query, k=10)
            got = sharded.search(query, k=10)
            assert recall_at_k(got, exact, k=10) == 1.0

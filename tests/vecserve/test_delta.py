"""Tests for repro.vecserve.delta — the live mutation side-buffer."""

import numpy as np
import pytest

from repro.codec.codecs import _scan_block_rows
from repro.errors import ValidationError
from repro.vecserve.delta import DeltaIndex


def _ids(*values):
    return np.asarray(values, dtype=np.int64)


def _vecs(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


class TestMutation:
    def test_upsert_then_search_returns_external_ids(self):
        delta = DeltaIndex(dim=4)
        vectors = _vecs(3)
        delta.upsert(_ids(100, 200, 300), vectors)
        query = vectors[1] / np.linalg.norm(vectors[1])
        result = delta.search_batch(query[None], k=1)[0]
        assert result.ids[0] == 200
        assert delta.size == 3

    def test_search_across_scan_blocks_matches_exact_ranking(self):
        dim = 64
        n = 2 * _scan_block_rows(dim, 3, itemsize=8) + 5
        vectors = _vecs(n, dim=dim, seed=3)
        delta = DeltaIndex(dim=dim)
        delta.upsert(np.arange(n, dtype=np.int64) * 7, vectors)
        queries = _vecs(3, dim=dim, seed=4)
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        rows = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        expected = np.argsort(-(rows @ queries.T), axis=0)[:10].T * 7
        for result, want in zip(delta.search_batch(queries, k=10), expected):
            np.testing.assert_array_equal(result.ids, want)

    def test_upsert_overwrites_in_place(self):
        delta = DeltaIndex(dim=4)
        delta.upsert(_ids(7), _vecs(1, seed=1))
        replacement = np.asarray([[1.0, 0.0, 0.0, 0.0]])
        delta.upsert(_ids(7), replacement)
        assert delta.size == 1  # overwrite, not append
        result = delta.search_batch(np.asarray([[1.0, 0.0, 0.0, 0.0]]), k=1)[0]
        assert result.ids[0] == 7
        assert result.scores[0] == pytest.approx(1.0)

    def test_remove_tombstones_and_drops_row(self):
        delta = DeltaIndex(dim=4)
        delta.upsert(_ids(1, 2), _vecs(2))
        newly = delta.remove(_ids(1))
        assert newly == 1
        assert delta.size == 1
        assert delta.tombstone_count == 1
        assert 1 in delta.masked_ids() and 2 in delta.masked_ids()

    def test_remove_unseen_id_records_tombstone(self):
        # The serving plane may tombstone a snapshot-only id the delta
        # never saw; the mask must still hide it.
        delta = DeltaIndex(dim=4)
        newly = delta.remove(_ids(999))
        assert newly == 1
        assert 999 in delta.masked_ids()
        assert delta.remove(_ids(999)) == 0  # already dead

    def test_upsert_resurrects_tombstoned_id(self):
        delta = DeltaIndex(dim=4)
        delta.remove(_ids(5))
        delta.upsert(_ids(5), _vecs(1))
        assert delta.tombstone_count == 0
        assert delta.size == 1

    def test_growth_beyond_initial_capacity(self):
        delta = DeltaIndex(dim=4)
        n = 100  # > initial capacity of 16
        vectors = _vecs(n, seed=2)
        delta.upsert(np.arange(n, dtype=np.int64), vectors)
        assert delta.size == n
        query = vectors[77] / np.linalg.norm(vectors[77])
        assert delta.search_batch(query[None], k=1)[0].ids[0] == 77

    def test_swap_remove_keeps_matrix_consistent(self):
        delta = DeltaIndex(dim=4)
        vectors = _vecs(5, seed=3)
        delta.upsert(np.arange(5, dtype=np.int64), vectors)
        delta.remove(_ids(0))  # row 0 replaced by the last row
        for i in range(1, 5):
            query = vectors[i] / np.linalg.norm(vectors[i])
            assert delta.search_batch(query[None], k=1)[0].ids[0] == i

    def test_validation(self):
        delta = DeltaIndex(dim=4)
        with pytest.raises(ValidationError):
            DeltaIndex(dim=0)
        with pytest.raises(ValidationError):
            delta.upsert(_ids(1), _vecs(1, dim=3))
        with pytest.raises(ValidationError):
            delta.upsert(_ids(1, 2), _vecs(1))
        with pytest.raises(ValidationError):
            delta.search_batch(np.zeros((1, 4)), k=0)


class TestFreezeRelease:
    def test_release_drains_frozen_entries(self):
        delta = DeltaIndex(dim=4)
        delta.upsert(_ids(1, 2), _vecs(2))
        delta.remove(_ids(3))
        freeze = delta.freeze()
        assert freeze.size == 2
        assert freeze.tombstones == frozenset({3})
        drained = delta.release(freeze)
        assert drained == 3
        assert delta.size == 0
        assert delta.tombstone_count == 0

    def test_write_racing_build_survives_release(self):
        # The watermark protocol: an id re-upserted *after* the freeze is
        # not drained — it stays pending for the next compaction cycle.
        delta = DeltaIndex(dim=4)
        delta.upsert(_ids(1, 2), _vecs(2))
        freeze = delta.freeze()
        racing = _vecs(1, seed=9)
        delta.upsert(_ids(1), racing)  # arrives while the "build" runs
        delta.release(freeze)
        assert delta.size == 1  # id 1's newer write survived
        query = racing[0] / np.linalg.norm(racing[0])
        assert delta.search_batch(query[None], k=1)[0].ids[0] == 1

    def test_remove_racing_build_survives_release(self):
        delta = DeltaIndex(dim=4)
        delta.upsert(_ids(1), _vecs(1))
        freeze = delta.freeze()
        delta.remove(_ids(1))  # kill it mid-build
        delta.release(freeze)
        # The tombstone postdates the watermark: still masking.
        assert delta.tombstone_count == 1
        assert 1 in delta.masked_ids()

    def test_tombstone_racing_build_not_drained(self):
        delta = DeltaIndex(dim=4)
        delta.remove(_ids(1))
        freeze = delta.freeze()
        delta.remove(_ids(2))  # new tombstone during the build
        drained = delta.release(freeze)
        assert drained == 1
        assert delta.tombstone_count == 1
        assert 2 in delta.masked_ids()

    def test_freeze_is_a_copy(self):
        delta = DeltaIndex(dim=4)
        vectors = _vecs(1)
        delta.upsert(_ids(1), vectors)
        freeze = delta.freeze()
        delta.upsert(_ids(1), -vectors)  # mutate after the freeze
        normalized = vectors[0] / np.linalg.norm(vectors[0])
        assert np.allclose(freeze.vectors[0], normalized)

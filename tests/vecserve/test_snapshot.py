"""Tests for repro.vecserve.snapshot — sealed generations + blue/green."""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.vecserve.delta import DeltaIndex
from repro.vecserve.snapshot import (
    SnapshotCell,
    build_snapshot,
    compact,
    compose_live,
    empty_snapshot,
)


def _matrix(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


class TestSnapshot:
    def test_search_maps_rows_to_external_ids(self):
        vectors = _matrix(10)
        ids = np.arange(100, 110, dtype=np.int64)
        snapshot = build_snapshot(ids, vectors, generation=1)
        query = vectors[4] / np.linalg.norm(vectors[4])
        assert snapshot.search_batch(query[None], k=1)[0].ids[0] == 104
        np.testing.assert_allclose(np.linalg.norm(snapshot.matrix, axis=1), 1.0)
        assert snapshot.generation == 1
        assert snapshot.size == 10
        assert snapshot.build_seconds >= 0

    def test_empty_snapshot_returns_empty(self):
        snapshot = empty_snapshot()
        assert snapshot.size == 0
        assert len(snapshot.search_batch(np.zeros((1, 4)), k=5)[0]) == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            build_snapshot(
                np.asarray([1, 1], dtype=np.int64),
                _matrix(2),
                generation=1,
            )

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            build_snapshot(
                np.asarray([1], dtype=np.int64),
                _matrix(2),
                generation=1,
            )
        with pytest.raises(ValidationError):  # one row, not an (n, d) matrix
            build_snapshot(
                np.arange(4, dtype=np.int64), _matrix(1)[0], generation=1
            )

    def test_cell_swap_counts_and_returns_previous(self):
        cell = SnapshotCell()
        first = cell.current()
        replacement = build_snapshot(
            np.arange(3, dtype=np.int64), _matrix(3), 1
        )
        previous = cell.swap(replacement)
        assert previous is first
        assert cell.current() is replacement
        assert cell.swaps == 1


class TestComposeLive:
    def test_masked_rows_dropped_and_delta_appended(self):
        vectors = _matrix(4)
        snapshot = build_snapshot(
            np.arange(4, dtype=np.int64), vectors, 1
        )
        delta = DeltaIndex(dim=4)
        delta.upsert(np.asarray([2], dtype=np.int64), _matrix(1, seed=5))
        delta.remove(np.asarray([0], dtype=np.int64))
        ids, composed = compose_live(snapshot, delta.freeze())
        # 0 tombstoned, 2 shadowed by the delta, 1/3 survive, + delta's 2
        assert sorted(ids.tolist()) == [1, 2, 3]
        assert len(composed) == 3

    def test_empty_freeze_passthrough(self):
        vectors = _matrix(3)
        snapshot = build_snapshot(
            np.arange(3, dtype=np.int64), vectors, 1
        )
        ids, composed = compose_live(snapshot, DeltaIndex(dim=4).freeze())
        assert ids.tolist() == [0, 1, 2]
        assert len(composed) == 3


class TestCompact:
    def test_cycle_folds_delta_and_advances_generation(self):
        vectors = _matrix(8)
        cell = SnapshotCell(
            build_snapshot(
                np.arange(8, dtype=np.int64), vectors, 1
            )
        )
        delta = DeltaIndex(dim=4)
        fresh = _matrix(2, seed=7)
        delta.upsert(np.asarray([100, 101], dtype=np.int64), fresh)
        delta.remove(np.asarray([3], dtype=np.int64))

        stats = compact(cell, delta)

        assert stats.generation == 2
        assert stats.folded_upserts == 2
        assert stats.dropped_tombstones == 1
        assert stats.drained == 3
        assert cell.current().generation == 2
        assert cell.current().size == 9  # 8 - 1 tombstone + 2 fresh
        assert delta.size == 0 and delta.tombstone_count == 0
        query = fresh[0] / np.linalg.norm(fresh[0])
        assert cell.current().search_batch(query[None], k=1)[0].ids[0] == 100

    def test_compact_to_empty(self):
        vectors = _matrix(2)
        cell = SnapshotCell(
            build_snapshot(
                np.arange(2, dtype=np.int64), vectors, 1
            )
        )
        delta = DeltaIndex(dim=4)
        delta.remove(np.arange(2, dtype=np.int64))
        stats = compact(cell, delta)
        assert cell.current().size == 0
        assert stats.base_rows == 0

    def test_readers_never_blocked_during_build(self):
        """Queries running concurrently with compactions never fail and
        always see a complete generation."""
        vectors = _matrix(64, seed=1)
        ids = np.arange(64, dtype=np.int64)
        cell = SnapshotCell(build_snapshot(ids, vectors, 1))
        delta = DeltaIndex(dim=4)
        stop = threading.Event()
        failures: list[BaseException] = []

        def reader():
            query = vectors[5] / np.linalg.norm(vectors[5])
            while not stop.is_set():
                try:
                    result = cell.current().search_batch(query[None], k=5)[0]
                    assert len(result) == 5
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        rng = np.random.default_rng(2)
        for i in range(20):
            delta.upsert(
                np.asarray([1000 + i], dtype=np.int64), rng.normal(size=(1, 4))
            )
            compact(cell, delta)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        assert cell.current().generation == 21
        assert cell.current().size == 84

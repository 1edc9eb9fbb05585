"""Tests for coded snapshot storage and live re-encode."""

import threading

import numpy as np
import pytest

from repro.codec import Int8Codec, make_codec
from repro.errors import ValidationError
from repro.vecserve.delta import DeltaIndex
from repro.vecserve.shards import ShardedVectorIndex
from repro.vecserve.snapshot import SnapshotCell, build_snapshot, compact


def _matrix(n, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _normalize(v):
    return v / np.linalg.norm(v)


class TestCodedSnapshot:
    def test_coded_search_maps_ids(self):
        vectors = _matrix(20)
        ids = np.arange(500, 520, dtype=np.int64)
        snapshot = build_snapshot(
            ids, vectors, generation=1, codec="int8"
        )
        assert snapshot.codec_kind == "int8"
        query = _normalize(vectors[7])
        assert snapshot.search_batch(query[None], k=1)[0].ids[0] == 507

    def test_codec_factory_callable_accepted(self):
        vectors = _matrix(10)
        ids = np.arange(10, dtype=np.int64)
        snapshot = build_snapshot(
            ids,
            vectors,
            generation=1,
            codec=lambda: Int8Codec(mode="meanscale"),
        )
        assert snapshot.codec_kind == "int8"

    def test_coded_resident_bytes_smaller_than_raw(self):
        vectors = _matrix(200, dim=32)
        ids = np.arange(200, dtype=np.int64)
        raw = build_snapshot(ids, vectors, generation=1)
        coded = build_snapshot(
            ids, vectors, generation=1, codec="int8"
        )
        assert coded.bytes_resident < raw.bytes_resident / 4

    def test_coded_vectors_property_decodes(self):
        vectors = _matrix(15)
        ids = np.arange(15, dtype=np.int64)
        snapshot = build_snapshot(
            ids, vectors, generation=1, codec="int8"
        )
        decoded = snapshot.vectors
        assert decoded.shape == vectors.shape
        assert np.abs(decoded - vectors).max() < 0.05

    def test_compact_reencodes_generation(self):
        vectors = _matrix(30)
        ids = np.arange(30, dtype=np.int64)
        cell = SnapshotCell(
            build_snapshot(ids, vectors, generation=1)
        )
        delta = DeltaIndex(dim=8)
        stats = compact(cell, delta, codec="pq")
        assert stats.codec_kind == "pq"
        assert cell.current().codec_kind == "pq"
        query = _normalize(vectors[3])
        assert 3 in cell.current().search_batch(query[None], k=5)[0].ids


class TestShardedCodedIndex:
    def _loaded(self, n=400, dim=16, **kwargs):
        vectors = _matrix(n, dim=dim, seed=1)
        ids = np.arange(n, dtype=np.int64)
        sharded = ShardedVectorIndex(
            dim=dim, n_shards=2, **kwargs
        )
        sharded.bulk_load(ids, vectors)
        return sharded, ids, vectors

    def test_coded_bulk_load_and_query(self):
        sharded, ids, vectors = self._loaded(codec="int8")
        assert sharded.codec_kind == "int8"
        query = _normalize(vectors[17])
        assert sharded.search(query, k=1).ids[0] == 17

    def test_oracle_rerank_recovers_exact_topk(self):
        sharded, ids, vectors = self._loaded(
            codec="pq",
            codec_options={"n_subspaces": 8, "n_codes": 32},
            keep_oracle=True,
            rerank_oversample=8,
        )
        query = _normalize(vectors[40])
        exact = set(sharded.search_exact(query, k=10).ids.tolist())
        approx = set(sharded.search(query, k=10).ids.tolist())
        assert len(exact & approx) >= 9

    def test_rerank_without_oracle_rejected(self):
        with pytest.raises(ValidationError, match="oracle"):
            ShardedVectorIndex(
                dim=8,
                n_shards=1,
                codec="int8",
                rerank_oversample=4,
            )

    def test_unknown_codec_rejected_eagerly(self):
        with pytest.raises(ValidationError, match="unknown codec kind"):
            ShardedVectorIndex(
                dim=8, n_shards=1, codec="zstd"
            )

    def test_reencode_transitions_codec_kind(self):
        sharded, ids, vectors = self._loaded(codec=None)
        assert sharded.codec_kind == "raw"
        stats = sharded.reencode("int8")
        assert all(s.codec_kind == "int8" for s in stats)
        assert sharded.codec_kind == "int8"
        stats = sharded.reencode("pq", {"n_subspaces": 8, "n_codes": 32})
        assert sharded.codec_kind == "pq"
        query = _normalize(vectors[3])
        assert 3 in sharded.search(query, k=5).ids

    def test_bytes_per_vector_gauge_tracks_codec(self):
        sharded, ids, vectors = self._loaded(codec=None)
        raw_bpv = sharded.bytes_per_vector
        assert raw_bpv == 8.0 * 16
        sharded.reencode("int8")
        assert sharded.bytes_per_vector == 16.0
        sharded.refresh_gauges()
        metrics = sharded.metrics.snapshot()
        assert metrics["bytes_per_vector"] == 16

    def test_live_reencode_under_sustained_upserts(self):
        """Blue/green fp32 → int8 re-encode with writers and readers
        running: zero failed queries, no lost upserts."""
        sharded, ids, vectors = self._loaded(n=600, codec=None)
        dim = 16
        stop = threading.Event()
        failures = []
        rng = np.random.default_rng(99)
        written = []

        def writer():
            n = 0
            while not stop.is_set() and n < 200:
                vid = 10_000 + n
                vec = rng.normal(size=dim)
                sharded.upsert(np.asarray([vid]), vec.reshape(1, -1))
                written.append((vid, vec / np.linalg.norm(vec)))
                n += 1

        def reader():
            while not stop.is_set():
                try:
                    query = _normalize(rng.normal(size=dim))
                    sharded.search(query, k=5)
                except Exception as exc:  # pragma: no cover
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        stats = sharded.reencode("int8")
        stop.set()
        for t in threads:
            t.join()

        assert failures == []
        assert all(s.codec_kind == "int8" for s in stats)
        # every upsert is findable afterwards (sealed or in the delta)
        sharded.compact()
        missed = 0
        for vid, vec in written:
            if sharded.search(vec, k=1).ids[0] != vid:
                missed += 1
        assert missed == 0

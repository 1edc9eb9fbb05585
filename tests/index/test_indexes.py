"""Tests for repro.index — all four index families share a contract."""

import numpy as np
import pytest

from repro.codec.codecs import _scan_block_rows
from repro.errors import ValidationError
from repro.index import (
    BruteForceIndex,
    HNSWIndex,
    IVFFlatIndex,
    LSHIndex,
    recall_at_k,
)


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(0)
    return rng.normal(size=(800, 16))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1)
    return rng.normal(size=(20, 16))


def all_indexes():
    return [
        BruteForceIndex(),
        LSHIndex(n_tables=8, n_bits=10, seed=0),
        IVFFlatIndex(n_cells=16, n_probes=4, seed=0),
        HNSWIndex(m=8, ef_construction=64, ef_search=48, seed=0),
    ]


class TestContract:
    @pytest.mark.parametrize("index", all_indexes(), ids=lambda i: type(i).__name__)
    def test_query_shape_and_ordering(self, index, vectors, queries):
        index.build(vectors)
        result = index.query(queries[0], k=10)
        assert len(result) == 10
        assert (np.diff(result.scores) <= 1e-12).all()  # descending
        assert len(set(result.ids.tolist())) == 10  # distinct

    @pytest.mark.parametrize("index", all_indexes(), ids=lambda i: type(i).__name__)
    def test_self_query_returns_self_first(self, index, vectors):
        index.build(vectors)
        result = index.query(vectors[5], k=1)
        assert result.ids[0] == 5

    @pytest.mark.parametrize("index", all_indexes(), ids=lambda i: type(i).__name__)
    def test_k_clamped_to_size(self, index):
        rng = np.random.default_rng(2)
        small = rng.normal(size=(5, 8))
        index.build(small)
        result = index.query(small[0], k=100)
        assert len(result) == 5

    @pytest.mark.parametrize("index", all_indexes(), ids=lambda i: type(i).__name__)
    def test_unbuilt_query_raises(self, index):
        with pytest.raises(ValidationError):
            index.query(np.zeros(16), k=1)

    @pytest.mark.parametrize("index", all_indexes(), ids=lambda i: type(i).__name__)
    def test_bad_inputs_rejected(self, index, vectors):
        with pytest.raises(ValidationError):
            index.build(np.zeros((0, 4)))
        index.build(vectors)
        with pytest.raises(ValidationError):
            index.query(np.zeros(3), k=1)
        with pytest.raises(ValidationError):
            index.query(np.zeros(16), k=0)


class TestBruteForce:
    def test_matches_manual_exact_search(self, vectors, queries):
        index = BruteForceIndex()
        index.build(vectors)
        normalized = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        q = queries[0] / np.linalg.norm(queries[0])
        expected = np.argsort(-(normalized @ q))[:5]
        result = index.query(queries[0], k=5)
        np.testing.assert_array_equal(result.ids, expected)

    def test_batch_matches_manual_exact_search_across_blocks(self, queries):
        """A batch scan spanning several scan blocks ranks every query
        exactly like one whole-matrix product."""
        block = _scan_block_rows(16, len(queries), itemsize=8)
        rng = np.random.default_rng(2)
        corpus = rng.normal(size=(2 * block + 3, 16))
        index = BruteForceIndex()
        index.build(corpus)
        normalized = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
        q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        expected = np.argsort(-(normalized @ q.T), axis=0)[:10].T
        for result, want in zip(index.query_batch(queries, k=10), expected):
            np.testing.assert_array_equal(result.ids, want)

    def test_evaluates_everything(self, vectors):
        index = BruteForceIndex()
        index.build(vectors)
        index.query(vectors[0], k=1)
        assert index.distance_evaluations == len(vectors)


class TestApproximateRecall:
    @pytest.mark.parametrize(
        "make_index,min_recall",
        [
            (lambda: LSHIndex(n_tables=12, n_bits=10, seed=0), 0.6),
            (lambda: IVFFlatIndex(n_cells=16, n_probes=6, seed=0), 0.8),
            (lambda: HNSWIndex(m=8, ef_construction=96, ef_search=64, seed=0), 0.85),
        ],
        ids=["lsh", "ivf", "hnsw"],
    )
    def test_recall_against_exact(self, make_index, min_recall, vectors, queries):
        exact = BruteForceIndex()
        exact.build(vectors)
        approx = make_index()
        approx.build(vectors)
        recalls = []
        for q in queries:
            recalls.append(
                recall_at_k(approx.query(q, k=10), exact.query(q, k=10), k=10)
            )
        assert np.mean(recalls) >= min_recall

    @pytest.mark.parametrize(
        "make_index",
        [
            lambda: LSHIndex(n_tables=6, n_bits=10, seed=0),
            lambda: IVFFlatIndex(n_cells=32, n_probes=4, seed=0),
            lambda: HNSWIndex(m=8, ef_construction=48, ef_search=32, seed=0),
        ],
        ids=["lsh", "ivf", "hnsw"],
    )
    def test_does_less_work_than_brute_force(self, make_index, vectors, queries):
        index = make_index()
        index.build(vectors)
        index.distance_evaluations = 0
        for q in queries:
            index.query(q, k=10)
        brute_work = len(vectors) * len(queries)
        assert index.distance_evaluations < brute_work

    def test_ivf_more_probes_higher_recall(self, vectors, queries):
        exact = BruteForceIndex()
        exact.build(vectors)

        def mean_recall(probes):
            index = IVFFlatIndex(n_cells=32, n_probes=probes, seed=0)
            index.build(vectors)
            return np.mean(
                [
                    recall_at_k(index.query(q, k=10), exact.query(q, k=10), k=10)
                    for q in queries
                ]
            )

        assert mean_recall(16) >= mean_recall(1)

    def test_hnsw_more_ef_higher_recall(self, vectors, queries):
        exact = BruteForceIndex()
        exact.build(vectors)

        def mean_recall(ef):
            index = HNSWIndex(m=6, ef_construction=64, ef_search=ef, seed=0)
            index.build(vectors)
            return np.mean(
                [
                    recall_at_k(index.query(q, k=10), exact.query(q, k=10), k=10)
                    for q in queries
                ]
            )

        assert mean_recall(128) >= mean_recall(4)


class TestRecallAtK:
    def test_perfect_recall(self):
        exact = BruteForceIndex()
        exact.build(np.eye(5))
        r = exact.query(np.eye(5)[0], k=3)
        assert recall_at_k(r, r, k=3) == 1.0

    def test_zero_recall(self):
        from repro.index.base import SearchResult

        a = SearchResult(ids=np.array([1, 2]), scores=np.array([1.0, 0.9]))
        b = SearchResult(ids=np.array([3, 4]), scores=np.array([1.0, 0.9]))
        assert recall_at_k(a, b, k=2) == 0.0

    def test_k_validation(self):
        from repro.index.base import SearchResult

        r = SearchResult(ids=np.array([1]), scores=np.array([1.0]))
        with pytest.raises(ValidationError):
            recall_at_k(r, r, k=0)

"""ADC kernel tests: scores match decode-then-dot, top-k is exact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import codecs as codecs_module
from repro.codec import (
    adc_scores,
    adc_scores_batch,
    adc_topk,
    adc_topk_batch,
    make_codec,
)
from repro.errors import ValidationError

ALL_CODECS = [
    ("fp32", {}),
    ("int8", {}),
    ("int8", {"mode": "meanscale"}),
    ("pq", {"n_subspaces": 8, "n_codes": 64}),
]


def _corpus(n=800, d=32, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    query = rng.normal(size=d)
    return vectors, query / np.linalg.norm(query)


class TestScores:
    @pytest.mark.parametrize("kind,kwargs", ALL_CODECS)
    def test_adc_equals_decode_then_dot(self, kind, kwargs):
        """The asymmetric kernel must be *exact over the codes*: any
        difference from scoring the decoded matrix is a kernel bug, not
        quantization."""
        vectors, query = _corpus()
        codec = make_codec(kind, **kwargs).train(vectors)
        coded = codec.encode(vectors)
        scores = adc_scores(codec, coded, query)
        reference = codec.decode(coded) @ query
        assert np.abs(scores - reference).max() < 1e-4

    @pytest.mark.parametrize("kind,kwargs", ALL_CODECS)
    def test_batch_matches_single(self, kind, kwargs):
        vectors, _ = _corpus()
        rng = np.random.default_rng(42)
        queries = rng.normal(size=(5, 32))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        codec = make_codec(kind, **kwargs).train(vectors)
        coded = codec.encode(vectors)
        batch = adc_scores_batch(codec, coded, queries)
        assert batch.shape == (len(vectors), 5)
        for j, query in enumerate(queries):
            assert np.abs(
                batch[:, j] - adc_scores(codec, coded, query)
            ).max() < 1e-5

    def test_int8_chunked_scan_matches_unchunked(self):
        """Corpora larger than the scan block must score identically."""
        vectors, query = _corpus(n=codecs_module._scan_block_rows(32) + 100)
        codec = make_codec("int8").train(vectors)
        coded = codec.encode(vectors)
        scores = adc_scores(codec, coded, query)
        reference = codec.decode(coded) @ query
        assert np.abs(scores - reference).max() < 1e-4

    @pytest.mark.parametrize("kind", ["fp32", "int8"])
    @pytest.mark.parametrize("d", [8, 64, 300])
    def test_block_boundaries(self, kind, d):
        """Corpora ending just before, on and just past a scan-block edge
        score like the decoded matrix, and a query ranks the same rows
        alone as inside a batch of five."""
        block = codecs_module._scan_block_rows(d)
        rng = np.random.default_rng(d)
        queries = rng.normal(size=(5, d))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        for n in (1, block - 1, block, block + 1, 3 * block + 7):
            vectors, __ = _corpus(n=n, d=d, seed=n)
            codec = make_codec(kind).train(vectors)
            coded = codec.encode(vectors)
            batch = adc_scores_batch(codec, coded, queries)
            reference = codec.decode(coded) @ queries.T
            np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-4)
            batched = adc_topk_batch(codec, coded, queries, 10)
            for query, (positions, scores) in zip(queries, batched):
                alone, alone_scores = adc_topk(codec, coded, query, 10)
                np.testing.assert_array_equal(positions, alone)
                np.testing.assert_allclose(scores, alone_scores, rtol=0, atol=1e-4)

    def test_int8_zero_spread_dimensions_score_exactly(self):
        """A one-row corpus has no spread in any dimension: every code is
        0 and decodes to the row itself, so the kernel adds no rounding
        and a query scores the same alone as inside a batch."""
        vectors, __ = _corpus(n=1, d=8, seed=1)
        rng = np.random.default_rng(8)
        queries = rng.normal(size=(5, 8))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        codec = make_codec("int8").train(vectors)
        coded = codec.encode(vectors)
        np.testing.assert_array_equal(codec.decode(coded), vectors)
        batch = adc_scores_batch(codec, coded, queries)
        np.testing.assert_allclose(
            batch, codec.decode(coded) @ queries.T, rtol=0, atol=1e-9
        )
        for j, query in enumerate(queries):
            np.testing.assert_allclose(
                adc_scores(codec, coded, query), batch[:, j], rtol=0, atol=1e-9
            )

    def test_query_dim_mismatch_rejected(self):
        vectors, _ = _corpus()
        codec = make_codec("int8").train(vectors)
        coded = codec.encode(vectors)
        with pytest.raises(ValidationError):
            adc_scores(codec, coded, np.zeros(16))


class TestTopK:
    @pytest.mark.parametrize("kind,kwargs", ALL_CODECS)
    def test_topk_is_exact_over_codes(self, kind, kwargs):
        vectors, query = _corpus(seed=kind == "pq" and 2 or 1)
        codec = make_codec(kind, **kwargs).train(vectors)
        coded = codec.encode(vectors)
        positions, scores = adc_topk(codec, coded, query, 10)
        full = adc_scores(codec, coded, query)
        assert np.all(np.diff(scores) <= 1e-12)  # descending
        # the returned set is the true top-10 of the full ADC scan
        threshold = np.sort(full)[-10]
        assert (full[positions] >= threshold - 1e-12).all()

    def test_topk_k_larger_than_corpus(self):
        vectors, query = _corpus(n=5)
        codec = make_codec("fp32").train(vectors)
        positions, scores = adc_topk(codec, codec.encode(vectors), query, 50)
        assert len(positions) == 5

    def test_topk_zero_k_and_empty(self):
        vectors, query = _corpus(n=20)
        codec = make_codec("fp32").train(vectors)
        coded = codec.encode(vectors)
        positions, scores = adc_topk(codec, coded, query, 0)
        assert len(positions) == 0
        empty = codec.encode(np.empty((0, 32)))
        positions, scores = adc_topk(codec, empty, query, 10)
        assert len(positions) == 0

    def test_topk_negative_k_rejected(self):
        vectors, query = _corpus(n=20)
        codec = make_codec("fp32").train(vectors)
        with pytest.raises(ValidationError):
            adc_topk(codec, codec.encode(vectors), query, -1)

    def test_topk_batch_matches_single(self):
        vectors, _ = _corpus()
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(4, 32))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        codec = make_codec("int8").train(vectors)
        coded = codec.encode(vectors)
        batched = adc_topk_batch(codec, coded, queries, 7)
        assert len(batched) == 4
        for query, (positions, scores) in zip(queries, batched):
            single_positions, single_scores = adc_topk(codec, coded, query, 7)
            assert set(positions.tolist()) == set(single_positions.tolist())
            assert np.abs(scores - single_scores).max() < 1e-6

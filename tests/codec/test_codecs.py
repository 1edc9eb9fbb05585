"""Codec property tests: error bounds, determinism, edges, registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import (
    CODEC_KINDS,
    Fp32Codec,
    Int8Codec,
    PQCodec,
    make_codec,
)
from repro.errors import ValidationError


def _normalized(n: int, d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, d))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


ALL_CODECS = [
    ("fp32", {}),
    ("int8", {}),
    ("int8", {"mode": "meanscale"}),
    ("pq", {"n_subspaces": 8, "n_codes": 64}),
]


class TestRoundTrip:
    @pytest.mark.parametrize("kind,kwargs", ALL_CODECS)
    def test_decode_shape_and_dtype(self, kind, kwargs):
        vectors = _normalized(200, 32)
        codec = make_codec(kind, **kwargs).train(vectors)
        decoded = codec.decode(codec.encode(vectors))
        assert decoded.shape == vectors.shape
        assert decoded.dtype == np.float64

    def test_fp32_error_is_float32_rounding(self):
        vectors = _normalized(100, 16)
        codec = Fp32Codec().train(vectors)
        decoded = codec.decode(codec.encode(vectors))
        assert np.abs(decoded - vectors).max() < 1e-6

    @pytest.mark.parametrize("mode", ["minmax", "meanscale"])
    def test_int8_error_bounded_by_half_step(self, mode):
        vectors = _normalized(500, 24, seed=3)
        codec = Int8Codec(mode=mode).train(vectors)
        decoded = codec.decode(codec.encode(vectors))
        # per-dimension quantization error <= scale/2 (+ float slop)
        bound = codec._scale / 2 + 1e-9
        assert (np.abs(decoded - vectors) <= bound).all()

    def test_pq_reduces_quantization_error_vs_random_codebook(self):
        vectors = _normalized(600, 32, seed=5)
        trained = PQCodec(n_subspaces=8, n_codes=64, seed=0).train(vectors)
        error = np.linalg.norm(
            trained.decode(trained.encode(vectors)) - vectors, axis=1
        ).mean()
        # k-means on unit-norm data must beat the trivial bound of 1.0
        # (distance to the origin) by a wide margin
        assert error < 0.6

    def test_bytes_per_vector_ordering(self):
        vectors = _normalized(300, 32)
        sizes = {
            kind: make_codec(kind, **kwargs).train(vectors).bytes_per_vector
            for kind, kwargs in [("fp32", {}), ("int8", {}), ("pq", {})]
        }
        raw = 8.0 * 32
        assert sizes["fp32"] == raw / 2
        assert sizes["int8"] == raw / 8
        assert sizes["pq"] < sizes["int8"] < sizes["fp32"]


class TestDeterminism:
    def test_pq_training_is_seed_deterministic(self):
        vectors = _normalized(400, 16, seed=7)
        a = PQCodec(n_subspaces=4, n_codes=32, seed=11).train(vectors)
        b = PQCodec(n_subspaces=4, n_codes=32, seed=11).train(vectors)
        assert np.array_equal(a._codebooks, b._codebooks)
        assert np.array_equal(a.encode(vectors).codes, b.encode(vectors).codes)

    def test_pq_seed_changes_codebooks(self):
        vectors = _normalized(400, 16, seed=7)
        a = PQCodec(n_subspaces=4, n_codes=32, seed=1).train(vectors)
        b = PQCodec(n_subspaces=4, n_codes=32, seed=2).train(vectors)
        assert not np.array_equal(a._codebooks, b._codebooks)

    def test_int8_training_is_deterministic(self):
        vectors = _normalized(400, 16, seed=9)
        a = Int8Codec().train(vectors)
        b = Int8Codec().train(vectors)
        assert np.array_equal(a._scale, b._scale)
        assert np.array_equal(a._offset, b._offset)


class TestEdgeCases:
    @pytest.mark.parametrize("kind,kwargs", ALL_CODECS)
    def test_single_vector_roundtrip(self, kind, kwargs):
        vectors = _normalized(1, 32)
        codec = make_codec(kind, **kwargs).train(vectors)
        coded = codec.encode(vectors)
        assert coded.n == 1
        decoded = codec.decode(coded)
        # one training vector: int8 minmax and PQ represent it ~exactly
        assert np.abs(decoded - vectors).max() < 1e-6 or kind == "int8"

    @pytest.mark.parametrize("kind,kwargs", ALL_CODECS)
    def test_empty_encode_after_training(self, kind, kwargs):
        codec = make_codec(kind, **kwargs).train(_normalized(50, 32))
        coded = codec.encode(np.empty((0, 32)))
        assert coded.n == 0
        assert codec.decode(coded).shape == (0, 32)

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            Int8Codec().train(np.empty((0, 8)))

    def test_untrained_encode_rejected(self):
        with pytest.raises(ValidationError, match="untrained"):
            Int8Codec().encode(_normalized(5, 8))

    def test_dim_mismatch_rejected(self):
        codec = Int8Codec().train(_normalized(50, 8))
        with pytest.raises(ValidationError, match="dim"):
            codec.encode(_normalized(5, 16))

    def test_constant_dimension_decodes_exactly(self):
        vectors = _normalized(100, 8)
        vectors[:, 3] = 0.25  # zero spread on one dimension
        codec = Int8Codec().train(vectors)
        decoded = codec.decode(codec.encode(vectors))
        assert np.abs(decoded[:, 3] - 0.25).max() < 1e-12

    def test_pq_dim_not_divisible_rejected(self):
        with pytest.raises(ValidationError, match="divisible"):
            PQCodec(n_subspaces=5).train(_normalized(50, 32))

    def test_pq_codebook_capped_at_training_size(self):
        vectors = _normalized(10, 8)
        codec = PQCodec(n_subspaces=2, n_codes=256).train(vectors)
        assert codec._codebooks.shape[1] == 10

    def test_pq_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            PQCodec(n_codes=257)
        with pytest.raises(ValidationError):
            PQCodec(n_subspaces=0)
        with pytest.raises(ValidationError):
            Int8Codec(mode="nope")


class TestRegistryAndState:
    def test_make_codec_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown codec kind"):
            make_codec("zstd")

    def test_make_codec_passthrough_rejects_kwargs(self):
        with pytest.raises(ValidationError):
            make_codec(Int8Codec(), mode="minmax")

    def test_registry_covers_all_kinds(self):
        assert set(CODEC_KINDS) == {"fp32", "int8", "pq"}

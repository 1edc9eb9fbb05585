"""Embedding compression.

The paper (section 3.1.2, citing May et al.) discusses choosing embeddings
"given compute or memory constraints". Three standard compressors are
implemented; each returns a :class:`CompressionResult` carrying the
reconstructed (decompressed) matrix — so downstream models can consume it
directly — plus honest memory accounting for the compressed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codec import kmeans
from repro.embeddings.base import EmbeddingMatrix
from repro.errors import ValidationError


@dataclass(frozen=True)
class CompressionResult:
    """A compressed embedding and its bookkeeping."""

    method: str
    embedding: EmbeddingMatrix
    compressed_bytes: int
    original_bytes: int
    parameters: dict[str, object]

    @property
    def compression_ratio(self) -> float:
        return self.original_bytes / max(1, self.compressed_bytes)


def uniform_quantize(
    embedding: EmbeddingMatrix, bits: int
) -> CompressionResult:
    """Uniform scalar quantization to ``bits`` bits per weight.

    Each weight is snapped to one of ``2^bits`` evenly spaced levels between
    the matrix min and max. This is the compression family May et al.
    analyze with the eigenspace overlap score.
    """
    if not 1 <= bits <= 16:
        raise ValidationError(f"bits must be in [1, 16] ({bits=})")
    vectors = embedding.vectors
    lo = float(vectors.min())
    hi = float(vectors.max())
    if hi == lo:
        hi = lo + 1e-12
    levels = (1 << bits) - 1
    codes = np.round((vectors - lo) / (hi - lo) * levels)
    reconstructed = codes / levels * (hi - lo) + lo
    compressed_bytes = int(np.ceil(vectors.size * bits / 8)) + 16  # + two floats
    return CompressionResult(
        method="uniform_quantization",
        embedding=EmbeddingMatrix(vectors=reconstructed),
        compressed_bytes=compressed_bytes,
        original_bytes=vectors.nbytes,
        parameters={"bits": bits},
    )


def pca_compress(embedding: EmbeddingMatrix, rank: int) -> CompressionResult:
    """Low-rank (PCA) compression: keep the top ``rank`` principal directions.

    Stores the ``(n, rank)`` scores plus the ``(rank, d)`` basis; the
    reconstruction is their product (plus the mean).
    """
    if not 1 <= rank <= embedding.dim:
        raise ValidationError(f"rank must be in [1, {embedding.dim}] ({rank=})")
    vectors = embedding.vectors
    mean = vectors.mean(axis=0, keepdims=True)
    centered = vectors - mean
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    scores = u[:, :rank] * s[:rank]
    basis = vt[:rank]
    reconstructed = scores @ basis + mean
    compressed_bytes = scores.nbytes + basis.nbytes + mean.nbytes
    return CompressionResult(
        method="pca",
        embedding=EmbeddingMatrix(vectors=reconstructed),
        compressed_bytes=compressed_bytes,
        original_bytes=vectors.nbytes,
        parameters={"rank": rank},
    )


def product_quantize(
    embedding: EmbeddingMatrix,
    n_subvectors: int = 4,
    n_codes: int = 16,
    n_iterations: int = 15,
    seed: int = 0,
) -> CompressionResult:
    """Product quantization: independent k-means per dimension block.

    The matrix is split column-wise into ``n_subvectors`` blocks; each block
    gets its own ``n_codes``-entry codebook and each row stores one code per
    block. PQ reaches far lower distortion than whole-vector quantization at
    the same bit budget because the effective codebook size is
    ``n_codes ** n_subvectors`` — the industry-standard ANN compression.
    """
    if n_subvectors < 1 or n_codes < 1:
        raise ValidationError("n_subvectors and n_codes must be positive")
    if embedding.dim % n_subvectors != 0:
        raise ValidationError(
            f"dim {embedding.dim} not divisible by n_subvectors {n_subvectors}"
        )
    vectors = embedding.vectors
    block = embedding.dim // n_subvectors
    reconstructed = np.empty_like(vectors)
    codebook_bytes = 0
    for sub in range(n_subvectors):
        columns = slice(sub * block, (sub + 1) * block)
        result = kmeans_codebook_compress(
            EmbeddingMatrix(vectors=vectors[:, columns].copy()),
            n_codes=n_codes,
            n_iterations=n_iterations,
            seed=seed + sub,
        )
        reconstructed[:, columns] = result.embedding.vectors
        codebook_bytes += min(n_codes, len(vectors)) * block * 8
    code_bits = max(1, int(np.ceil(np.log2(max(2, n_codes)))))
    compressed_bytes = codebook_bytes + int(
        np.ceil(len(vectors) * n_subvectors * code_bits / 8)
    )
    return CompressionResult(
        method="product_quantization",
        embedding=EmbeddingMatrix(vectors=reconstructed),
        compressed_bytes=compressed_bytes,
        original_bytes=vectors.nbytes,
        parameters={"n_subvectors": n_subvectors, "n_codes": n_codes},
    )


def kmeans_codebook_compress(
    embedding: EmbeddingMatrix,
    n_codes: int,
    n_iterations: int = 20,
    seed: int = 0,
) -> CompressionResult:
    """Vector quantization: k-means over rows, store one code per row.

    Rows are replaced by their nearest of ``n_codes`` centroids
    (:func:`repro.codec.kmeans`, the seeded k-means++ + Lloyd routine that
    also trains the PQ codec). Storage is the codebook plus one integer
    code per row.
    """
    if n_codes < 1:
        raise ValidationError(f"n_codes must be positive ({n_codes=})")
    if n_iterations < 1:
        raise ValidationError(f"n_iterations must be positive ({n_iterations=})")
    vectors = embedding.vectors
    n = len(vectors)
    centroids, assignments = kmeans(
        vectors, n_codes, n_iterations, np.random.default_rng(seed)
    )
    n_codes = len(centroids)
    reconstructed = centroids[assignments]
    code_bits = max(1, int(np.ceil(np.log2(max(2, n_codes)))))
    compressed_bytes = centroids.nbytes + int(np.ceil(n * code_bits / 8))
    return CompressionResult(
        method="kmeans_codebook",
        embedding=EmbeddingMatrix(vectors=reconstructed),
        compressed_bytes=compressed_bytes,
        original_bytes=vectors.nbytes,
        parameters={"n_codes": n_codes, "iterations": n_iterations},
    )

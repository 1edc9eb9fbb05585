"""Vector codecs: fp32 passthrough, int8 scalar quantization, PQ.

A codec turns a ``(n, d)`` float matrix into a :class:`CodedVectors`
block (and back), and scores full-precision queries *directly against
the codes* — asymmetric distance computation (ADC). The asymmetry is the
whole trick: the database pays the quantization error once at encode
time, the query stays exact, and the inner products the serving plane
ranks by are computed without ever materializing the decoded matrix.

The math per codec:

* **fp32** — codes are the float32 matrix itself. ADC is the block scan
  below with scale 1 and bias 0; the decoded error is float32 rounding
  (~1e-7 relative).
* **int8 (scalar)** — per-dimension affine maps ``v ≈ c * scale + offset``
  with ``c`` in int8, trained from per-dimension min/max (or mean/scale).
  The ADC dot distributes over the affine map::

      q . decode(c) = q . (c * scale + offset)
                    = (q * scale) . c  +  q . offset

  — one pre-scaled query vector, one block scan over the codes, one
  scalar bias added once at the end. The scale and offset never touch a
  database row.
* **PQ (product quantization)** — the dimension axis splits into ``m``
  subspaces, each with its own ``k``-entry k-means codebook; a row
  stores one uint8 code per subspace, so the effective codebook is
  ``k^m`` entries for ``m`` bytes/vector. ADC builds one ``(m, k)``
  lookup table of subspace inner products per query::

      lut[s, j] = q_s . codebook[s][j]
      score(row) = sum_s lut[s, code[row, s]]

  — the scan is ``m`` table gathers per row instead of ``d`` multiplies.

**The block scan.** fp32 and int8 (and the exact float64 scans in
``repro.index`` and ``repro.vecserve``) score rows through one helper,
:func:`_block_scores`: rows are taken :data:`_SCAN_BLOCK_BYTES` (256 KiB)
at a time, int8 blocks are widened into one float32 staging buffer that
every block of the call reuses, and each block's BLAS call writes
straight into the score array. A widened copy of one block is the only
decoded state that exists, and it stays L2-resident. Blocks also stay at
or below OpenBLAS's threading threshold (:data:`_SCAN_BLOCK_WORK`;
large query batches get shorter blocks), so a scan running on a
vecserve pool thread never fans out inside BLAS: vecserve's shard
fan-out owns parallelism.

Training is deterministic under a fixed seed (seeded k-means++ with
Lloyd iterations), so re-encoding the same generation twice yields
byte-identical codes — the property the coded snapshot tests and the
blue/green re-encode path both lean on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

#: Bytes of rows one BLAS call scores: 64k float32 elements stay
#: L2-resident.
_SCAN_BLOCK_BYTES = 256 * 1024
#: Multiply-adds per BLAS call past which OpenBLAS 0.3 splits a gemm across
#: threads (a 1,024 x 64 x 8 sgemm runs on one thread, 1,024 x 64 x 16 on
#: two; its gemv threshold is higher still). Blocks stay at or below it.
_SCAN_BLOCK_WORK = 524_288


def _scan_block_rows(dim: int, n_queries: int = 1, itemsize: int = 4) -> int:
    """Rows per scan block: 1,024 at d = 64 and 85 at d = 768 for up to
    eight float32 queries, fewer for larger batches."""
    by_bytes = _SCAN_BLOCK_BYTES // (dim * itemsize)
    return max(1, min(by_bytes, _SCAN_BLOCK_WORK // (dim * n_queries)))


def _block_scores(
    rows: np.ndarray, queries: np.ndarray, dtype: type = np.float32
) -> np.ndarray:
    """``rows @ queries.T`` as an ``(n, q)`` ``dtype`` array, one block of
    rows per BLAS call.

    Rows not already in ``dtype`` (int8 codes) are widened block by block
    into one staging buffer reused across the call; rows in ``dtype`` are
    scored in place. Blocks split rows, never a row's d-long dot product.
    """
    n, dim = rows.shape
    weights = np.ascontiguousarray(queries.T, dtype=dtype)  # (d, q)
    scores = np.empty((n, len(queries)), dtype=dtype)
    step = _scan_block_rows(dim, len(queries), scores.itemsize)
    staging = (
        None if rows.dtype == dtype else np.empty((min(step, n), dim), dtype=dtype)
    )
    for start in range(0, n, step):
        block = rows[start : start + step]
        if staging is not None:
            np.copyto(staging[: len(block)], block)
            block = staging[: len(block)]
        np.matmul(block, weights, out=scores[start : start + len(block)])
    return scores


def _column_topk(
    scores: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per query column of an ``(n, q)`` score matrix, the ``k`` best
    ``(row positions, scores)``, best first. The exact float64 scans
    (brute-force index, vecserve delta and raw snapshots) all rank
    through here; ``k`` must not exceed ``n``."""
    top = np.argpartition(-scores, kth=k - 1, axis=0)[:k]  # (k, q)
    out = []
    for column in range(scores.shape[1]):
        rows = top[:, column]
        column_scores = scores[rows, column]
        order = np.argsort(-column_scores)
        out.append((rows[order], column_scores[order]))
    return out


@dataclass(frozen=True)
class CodedVectors:
    """One encoded block: the codes plus the shape they decode back to.

    ``codes`` layout is codec-specific (float32 rows, int8 rows, or
    uint8 PQ codewords); ``dim`` is always the *decoded* dimensionality.
    Immutable by convention — a coded block belongs to a sealed snapshot
    generation and is shared lock-free across query threads.
    """

    kind: str
    codes: np.ndarray
    dim: int

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the per-row codes (codec state not included)."""
        return int(self.codes.nbytes)


class VectorCodec(ABC):
    """The codec protocol: ``train / encode / decode`` + ADC scoring.

    Lifecycle: construct → :meth:`train` on a representative (normalized)
    matrix → :meth:`encode` any number of row blocks. ``encode`` before
    ``train`` raises; training twice re-fits (a fresh codec per snapshot
    generation is the intended usage).
    """

    #: registry key; subclasses override.
    kind: str = "abstract"

    def __init__(self) -> None:
        self._trained = False

    @property
    def is_trained(self) -> bool:
        return self._trained

    # -- training --------------------------------------------------------------

    def train(self, vectors: np.ndarray) -> "VectorCodec":
        """Fit codec parameters on an ``(n, d)`` sample; returns ``self``."""
        vectors = _as_matrix(vectors, "train")
        self._train(vectors)
        self._trained = True
        return self

    @abstractmethod
    def _train(self, vectors: np.ndarray) -> None:
        """Codec-specific fitting over a validated non-empty matrix."""

    # -- transcoding -----------------------------------------------------------

    def encode(self, vectors: np.ndarray) -> CodedVectors:
        """Encode ``(n, d)`` rows into codes (requires :meth:`train`)."""
        self._check_trained("encode")
        vectors = _as_matrix(vectors, "encode", allow_empty=True)
        if vectors.shape[1] != self.dim:
            raise ValidationError(
                f"{self.kind} codec trained at dim {self.dim}, "
                f"cannot encode dim {vectors.shape[1]}"
            )
        return CodedVectors(
            kind=self.kind, codes=self._encode(vectors), dim=self.dim
        )

    @abstractmethod
    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """Codec-specific encoding of validated rows."""

    def decode(self, coded: CodedVectors) -> np.ndarray:
        """Reconstruct the float64 matrix the codes approximate."""
        self._check_trained("decode")
        if coded.kind != self.kind:
            raise ValidationError(
                f"cannot decode {coded.kind!r} codes with a {self.kind!r} codec"
            )
        return self._decode(coded.codes)

    @abstractmethod
    def _decode(self, codes: np.ndarray) -> np.ndarray:
        """Codec-specific reconstruction to float64."""

    # -- asymmetric distance ---------------------------------------------------

    def adc_scores(
        self, coded: CodedVectors, normalized_query: np.ndarray
    ) -> np.ndarray:
        """Inner products of one fp query against every coded row: the
        batched kernel over a batch of one.

        Exactly equals ``decode(coded) @ query`` up to float32 rounding —
        the approximation lives in the codes, not in the kernel.
        """
        self._check_trained("score")
        query = np.asarray(normalized_query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValidationError(
                f"adc query dim {query.shape} != codec dim ({self.dim},)"
            )
        return self.adc_scores_batch(coded, query[None])[:, 0]

    def adc_scores_batch(
        self, coded: CodedVectors, normalized_queries: np.ndarray
    ) -> np.ndarray:
        """ADC scores for a query batch; returns ``(n_rows, n_queries)``."""
        self._check_trained("score")
        queries = np.asarray(normalized_queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValidationError(
                f"adc batch expects (q, {self.dim}) queries, got {queries.shape}"
            )
        if coded.n == 0:
            return np.empty((0, len(queries)), dtype=np.float64)
        return self._adc_scores_batch(coded.codes, queries)

    @abstractmethod
    def _adc_scores_batch(
        self, codes: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        """Codec-specific ADC kernel (validated ``(q, d)`` queries,
        non-empty codes); one column per query."""

    # -- accounting & state ----------------------------------------------------

    @property
    @abstractmethod
    def dim(self) -> int:
        """Decoded dimensionality (valid after training)."""

    @property
    @abstractmethod
    def bytes_per_vector(self) -> float:
        """Per-row code bytes (codec state excluded; see ``state_bytes``)."""

    @property
    def state_bytes(self) -> int:
        """Resident bytes of the trained codec state (codebooks, scales)."""
        return 0

    def _check_trained(self, action: str) -> None:
        if not self._trained:
            raise ValidationError(
                f"{self.kind} codec is untrained; call train() before {action}"
            )


def _as_matrix(
    vectors: np.ndarray, action: str, allow_empty: bool = False
) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or (not allow_empty and len(vectors) == 0):
        raise ValidationError(
            f"{action} expects a non-empty (n, d) matrix, got shape {vectors.shape}"
        )
    if vectors.ndim == 2 and vectors.shape[1] == 0:
        raise ValidationError(f"{action} got zero-dimensional vectors")
    return vectors


class Fp32Codec(VectorCodec):
    """Float32 passthrough: halves the float64 raw matrix, loses ~1e-7.

    The baseline coded format — the int8 block scan with scale 1 and
    bias 0, useful as the parity anchor for the other codecs and
    as a free 2x when float64 precision is pointless (it always is for
    cosine ranking).
    """

    kind = "fp32"

    def __init__(self) -> None:
        super().__init__()
        self._dim = 0

    def _train(self, vectors: np.ndarray) -> None:
        self._dim = int(vectors.shape[1])

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return vectors.astype(np.float32)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return codes.astype(np.float64)

    def _adc_scores_batch(
        self, codes: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        return _block_scores(codes, queries).astype(np.float64)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def bytes_per_vector(self) -> float:
        return 4.0 * self._dim


class Int8Codec(VectorCodec):
    """Per-dimension affine int8 quantization (``minmax`` or ``meanscale``).

    ``minmax`` spans each dimension's observed range with 256 levels;
    ``meanscale`` centers on the mean and spans ±max-abs-deviation with
    254 levels (symmetric, slightly more outlier-robust). Either way the
    trained state is two ``(d,)`` vectors — ``scale`` and an effective
    ``offset`` — and decode is ``codes * scale + offset``.

    Dimensions with zero spread get ``scale=1`` and encode to code 0, so
    decode is exact there and adds no rounding to the scores.
    """

    kind = "int8"

    def __init__(self, mode: str = "minmax") -> None:
        super().__init__()
        if mode not in ("minmax", "meanscale"):
            raise ValidationError(
                f"int8 mode must be 'minmax' or 'meanscale' ({mode=})"
            )
        self.mode = mode
        self._scale = np.empty(0)
        self._offset = np.empty(0)

    def _train(self, vectors: np.ndarray) -> None:
        if self.mode == "minmax":
            lo = vectors.min(axis=0)
            hi = vectors.max(axis=0)
            spread = (hi - lo) / 255.0
            scale = np.where(spread == 0, 1.0, spread)
            # codes in [-128, 127]; effective offset folds the +128 shift.
            # It uses the unclamped spread, so a constant dimension codes to
            # 0 and decodes to `lo` exactly.
            self._scale = scale
            self._offset = lo + 128.0 * spread
        else:
            mean = vectors.mean(axis=0)
            spread = np.abs(vectors - mean).max(axis=0)
            scale = spread / 127.0
            scale[scale == 0] = 1.0
            self._scale = scale
            self._offset = mean

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        levels = np.rint((vectors - self._offset) / self._scale)
        return np.clip(levels, -128, 127).astype(np.int8)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return codes.astype(np.float64) * self._scale + self._offset

    def _adc_scores_batch(
        self, codes: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        # (q*scale).codes + q.offset: the affine map is applied to the
        # *queries* once, never to the n database rows.
        scores = _block_scores(codes, queries * self._scale).astype(np.float64)
        scores += queries @ self._offset  # (q,) bias, added once in float64
        return scores

    @property
    def dim(self) -> int:
        return len(self._scale)

    @property
    def bytes_per_vector(self) -> float:
        return float(self.dim)

    @property
    def state_bytes(self) -> int:
        return int(self._scale.nbytes + self._offset.nbytes)


def kmeans(
    vectors: np.ndarray, n_codes: int, n_iterations: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ + Lloyd; returns ``(centroids, assignments)``.

    ``centroids`` is the ``(min(n_codes, n), d)`` codebook and
    ``assignments`` the final row → centroid index. Deterministic for a
    given generator state — train-determinism of the PQ codec and of
    :func:`repro.embeddings.kmeans_codebook_compress` reduces to this
    function.
    """
    n = len(vectors)
    n_codes = min(n_codes, n)
    centroids = np.empty((n_codes, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(0, n)]
    closest = np.full(n, np.inf)
    for c in range(1, n_codes):
        dist = np.sum((vectors - centroids[c - 1]) ** 2, axis=1)
        closest = np.minimum(closest, dist)
        total = closest.sum()
        if total == 0:
            centroids[c:] = vectors[rng.integers(0, n, size=n_codes - c)]
            break
        centroids[c] = vectors[rng.choice(n, p=closest / total)]
    assignments = np.zeros(n, dtype=np.int64)
    for __ in range(n_iterations):
        distances = (
            np.sum(vectors**2, axis=1, keepdims=True)
            - 2.0 * vectors @ centroids.T
            + np.sum(centroids**2, axis=1)
        )
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(n_codes):
            members = vectors[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assignments


class PQCodec(VectorCodec):
    """Product quantization: per-subspace k-means codebooks, uint8 codes.

    ``n_subspaces`` must divide the trained dimension; ``n_codes`` is
    capped at 256 so a code fits one byte (and at the training-set size).
    Codebooks are stored float32 — the dominant state cost — so the
    resident overhead at serving time is ``m * k * (d/m) * 4`` bytes.
    """

    kind = "pq"

    def __init__(
        self,
        n_subspaces: int = 8,
        n_codes: int = 256,
        n_iterations: int = 20,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_subspaces < 1:
            raise ValidationError(f"n_subspaces must be positive ({n_subspaces=})")
        if not 1 <= n_codes <= 256:
            raise ValidationError(
                f"n_codes must be in [1, 256] for uint8 codes ({n_codes=})"
            )
        if n_iterations < 1:
            raise ValidationError(f"n_iterations must be positive ({n_iterations=})")
        self.n_subspaces = n_subspaces
        self.n_codes = n_codes
        self.n_iterations = n_iterations
        self.seed = seed
        self._codebooks = np.empty((0, 0, 0), dtype=np.float32)

    def _train(self, vectors: np.ndarray) -> None:
        dim = vectors.shape[1]
        if dim % self.n_subspaces != 0:
            raise ValidationError(
                f"dim {dim} not divisible by n_subspaces {self.n_subspaces}"
            )
        sub_dim = dim // self.n_subspaces
        n_codes = min(self.n_codes, len(vectors))
        codebooks = np.zeros(
            (self.n_subspaces, n_codes, sub_dim), dtype=np.float32
        )
        for sub in range(self.n_subspaces):
            rng = np.random.default_rng(self.seed + sub)
            block = vectors[:, sub * sub_dim : (sub + 1) * sub_dim]
            centroids, __ = kmeans(block, n_codes, self.n_iterations, rng)
            codebooks[sub] = centroids.astype(np.float32)
        self._codebooks = codebooks

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        m, __, sub_dim = self._codebooks.shape
        codes = np.empty((len(vectors), m), dtype=np.uint8)
        for sub in range(m):
            block = vectors[:, sub * sub_dim : (sub + 1) * sub_dim]
            book = self._codebooks[sub].astype(np.float64)
            distances = (
                np.sum(block**2, axis=1, keepdims=True)
                - 2.0 * block @ book.T
                + np.sum(book**2, axis=1)
            )
            codes[:, sub] = distances.argmin(axis=1)
        return codes

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        m, __, sub_dim = self._codebooks.shape
        out = np.empty((len(codes), m * sub_dim), dtype=np.float64)
        for sub in range(m):
            out[:, sub * sub_dim : (sub + 1) * sub_dim] = self._codebooks[sub][
                codes[:, sub]
            ]
        return out

    def _lut(self, query: np.ndarray) -> np.ndarray:
        """The per-query ``(m, k)`` table of subspace inner products."""
        m, k, sub_dim = self._codebooks.shape
        blocks = query.reshape(m, sub_dim).astype(np.float32)
        # einsum over (m, k, s) x (m, s) -> (m, k): one small sgemm per call.
        return np.einsum("mks,ms->mk", self._codebooks, blocks).astype(
            np.float64
        )

    def _adc_scores_batch(
        self, codes: np.ndarray, queries: np.ndarray
    ) -> np.ndarray:
        subspaces = np.arange(codes.shape[1])
        scores = np.empty((len(codes), len(queries)), dtype=np.float64)
        for column, query in enumerate(queries):
            # Gather each row's m table entries and sum: the PQ scan is m
            # byte-indexed lookups per row — no d-wide arithmetic at all.
            scores[:, column] = self._lut(query)[subspaces, codes].sum(axis=1)
        return scores

    @property
    def dim(self) -> int:
        m, __, sub_dim = self._codebooks.shape
        return m * sub_dim

    @property
    def bytes_per_vector(self) -> float:
        return float(self.n_subspaces)

    @property
    def state_bytes(self) -> int:
        return int(self._codebooks.nbytes)


#: registry: codec kind -> constructor.
CODEC_KINDS: dict[str, type[VectorCodec]] = {
    Fp32Codec.kind: Fp32Codec,
    Int8Codec.kind: Int8Codec,
    PQCodec.kind: PQCodec,
}


def make_codec(spec: str | VectorCodec, **kwargs) -> VectorCodec:
    """Build an untrained codec from a kind name (or pass one through)."""
    if isinstance(spec, VectorCodec):
        if kwargs:
            raise ValidationError(
                "codec kwargs only apply when building from a kind name"
            )
        return spec
    if spec not in CODEC_KINDS:
        raise ValidationError(
            f"unknown codec kind {spec!r}; allowed {sorted(CODEC_KINDS)}"
        )
    return CODEC_KINDS[spec](**kwargs)

"""Immutable index snapshots and the blue/green compaction cycle.

The availability trick that makes the vector serving plane rebuildable
under load is the classic blue/green swap: readers always query a
*sealed* :class:`IndexSnapshot` — an index generation that will never
mutate again, so snapshot reads need no coordination beyond grabbing the
current reference — while a background builder composes the next
generation (snapshot live rows minus tombstones, plus the frozen delta)
off to the side. When the build finishes, :func:`compact` swaps the
reference atomically and releases the folded delta entries. A query that
started before the swap finishes on the old generation; one that starts
after sees the new one; none ever blocks or fails because a rebuild is
in flight.

Reads are batched: :meth:`IndexSnapshot.search_batch` answers ``(q, d)``
queries with one exact block scan of the sealed rows (float64, or the
codec's batched ADC kernel over codes), and a single query is a batch of
one. There is no approximate index underneath: at the sizes this plane
serves the exact scan is the measured winner, and it is the one read
path. Index families for experiments live in :mod:`repro.index`.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.codec import CodedVectors, VectorCodec, adc_topk_batch, make_codec
from repro.codec.codecs import _block_scores, _column_topk
from repro.errors import ValidationError
from repro.index.base import SearchResult, _normalize_rows
from repro.vecserve.delta import DeltaFreeze, DeltaIndex

#: A fresh untrained codec per sealed generation (or ``None`` for raw
#: float64 storage): the builder trains/encodes a new instance per
#: snapshot so generations never share mutable state.
CodecFactory = Callable[[], VectorCodec]

_EMPTY_RESULT = SearchResult(
    ids=np.empty(0, dtype=np.int64), scores=np.empty(0, dtype=float)
)


@dataclass(frozen=True)
class IndexSnapshot:
    """One sealed generation: normalized float64 rows *or* coded rows,
    plus the id map.

    Storage comes in two sealed formats:

    * **raw** — ``matrix`` holds the L2-normalized float64 rows
      (``codec``/``coded`` are ``None``); queries block-scan it;
    * **coded** — ``codec``/``coded`` hold a trained
      :class:`~repro.codec.VectorCodec` and its encoded rows; queries run
      the codec's ADC kernels over the codes (``matrix`` is ``None``).

    Either way nothing mutates after sealing, so concurrent queries are
    safe without coordination. All three of ``matrix``/``codec``/``coded``
    are ``None`` only for the empty generation.
    """

    generation: int
    ids: np.ndarray  # internal row -> external id
    created_at: float  # wall time the generation was sealed
    build_seconds: float = 0.0
    matrix: np.ndarray | None = None  # normalized float64 rows, parallel to ids
    codec: VectorCodec | None = None  # trained codec for coded storage
    coded: CodedVectors | None = None  # the encoded rows, parallel to ids

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def codec_kind(self) -> str:
        """Storage format label: ``"raw"`` or the codec kind."""
        return "raw" if self.codec is None else self.codec.kind

    @property
    def bytes_resident(self) -> int:
        """Resident bytes of this generation: rows + codec state + id map."""
        total = int(self.ids.nbytes)
        if self.coded is not None and self.codec is not None:
            total += self.coded.nbytes + self.codec.state_bytes
        elif self.matrix is not None:
            total += int(self.matrix.nbytes)
        return total

    @property
    def vectors(self) -> np.ndarray | None:
        """The sealed normalized matrix (oracle scans, next-gen rebuilds).

        Coded generations *decode* on access — a full float64
        materialization, meant for the compaction/rebuild path, never the
        per-query path.
        """
        if self.coded is not None and self.codec is not None:
            return self.codec.decode(self.coded)
        return self.matrix

    def search_batch(
        self, normalized_queries: np.ndarray, k: int
    ) -> list[SearchResult]:
        """Exact top-k over the sealed rows for ``(q, d)`` normalized
        queries, in external ids; a single query is a batch of one.

        Raw generations are scored in one float64 block scan, coded ones
        through the codec's batched ADC kernel (exact with respect to the
        codes; quantization loss is only visible against the fp32 reserve
        a shard may keep, see ``keep_oracle`` in
        :mod:`repro.vecserve.shards`). Either way a shard answers a
        micro-batch with one lock-free pass instead of q serialized ones.
        """
        if self.coded is not None and self.codec is not None:
            ranked = adc_topk_batch(
                self.codec, self.coded, normalized_queries, min(k, self.size)
            )
        elif self.matrix is not None:
            scores = _block_scores(self.matrix, normalized_queries, np.float64)
            ranked = _column_topk(scores, min(k, self.size))
        else:
            return [_EMPTY_RESULT] * len(normalized_queries)
        return [
            SearchResult(ids=self.ids[positions], scores=scores)
            for positions, scores in ranked
        ]


def empty_snapshot(generation: int = 0) -> IndexSnapshot:
    return IndexSnapshot(
        generation=generation,
        ids=np.empty(0, dtype=np.int64),
        created_at=time.time(),
    )


def build_snapshot(
    ids: np.ndarray,
    vectors: np.ndarray,
    generation: int,
    codec: str | VectorCodec | CodecFactory | None = None,
) -> IndexSnapshot:
    """Seal a new generation from parallel ``(ids, vectors)`` arrays.

    Rows are L2-normalized (every search is cosine). Without ``codec``
    the generation keeps the normalized float64 matrix. With ``codec`` (a
    kind name, an untrained codec, or a factory) it is sealed *coded*:
    the codec trains on the normalized rows, and only the codes + trained
    state are retained.
    """
    ids = np.asarray(ids, dtype=np.int64)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValidationError(
            f"snapshot expects an (n, d) matrix, got shape {vectors.shape}"
        )
    if len(ids) != len(vectors):
        raise ValidationError(
            f"snapshot got {len(ids)} ids for {len(vectors)} vectors"
        )
    if len(set(ids.tolist())) != len(ids):
        raise ValidationError("snapshot ids must be unique")
    if len(ids) == 0:
        return empty_snapshot(generation)
    start = time.perf_counter()
    normalized = _normalize_rows(vectors)
    if codec is None:
        return IndexSnapshot(
            generation=generation,
            ids=ids,
            created_at=time.time(),
            build_seconds=time.perf_counter() - start,
            matrix=normalized,
        )
    if callable(codec) and not isinstance(codec, VectorCodec):
        codec = codec()  # CodecFactory: fresh instance per generation
    built_codec = make_codec(codec)
    built_codec.train(normalized)
    return IndexSnapshot(
        generation=generation,
        ids=ids,
        created_at=time.time(),
        build_seconds=time.perf_counter() - start,
        codec=built_codec,
        coded=built_codec.encode(normalized),
    )


class SnapshotCell:
    """The blue/green reference readers grab and compaction swaps.

    Reads return the current sealed snapshot without blocking; ``swap``
    replaces it atomically and counts generations. (A bare attribute read
    is already atomic under the GIL — the lock documents intent and
    guards the swap-count bookkeeping.)
    """

    def __init__(self, initial: IndexSnapshot | None = None) -> None:
        self._lock = threading.Lock()
        self._current = initial or empty_snapshot()
        self.swaps = 0

    def current(self) -> IndexSnapshot:
        return self._current

    def swap(self, snapshot: IndexSnapshot) -> IndexSnapshot:
        """Install ``snapshot``; returns the generation it replaced."""
        with self._lock:
            previous = self._current
            self._current = snapshot
            self.swaps += 1
            return previous


@dataclass(frozen=True)
class CompactionStats:
    """What one compaction cycle did."""

    generation: int
    base_rows: int  # live rows carried over from the old snapshot
    folded_upserts: int  # delta rows folded into the new generation
    dropped_tombstones: int  # rows the cycle physically removed
    drained: int  # delta entries released after the swap
    build_seconds: float
    total_seconds: float
    codec_kind: str = "raw"  # storage format the new generation sealed with


def compose_live(
    snapshot: IndexSnapshot, freeze: DeltaFreeze
) -> tuple[np.ndarray, np.ndarray]:
    """The next generation's contents: base rows minus masked, plus delta.

    A snapshot row is *masked* when the freeze shadows it (re-upserted)
    or kills it (tombstoned); the frozen delta rows are appended after
    the survivors, so the (ids, vectors) pair stays parallel and unique.
    """
    masked = set(freeze.ids.tolist()) | set(freeze.tombstones)
    base_vectors = snapshot.vectors
    if snapshot.size and base_vectors is not None:
        if masked:
            keep = np.asarray(
                [external not in masked for external in snapshot.ids.tolist()],
                dtype=bool,
            )
            kept_ids = snapshot.ids[keep]
            kept_vectors = base_vectors[keep]
        else:
            kept_ids = snapshot.ids
            kept_vectors = base_vectors
    else:
        kept_ids = np.empty(0, dtype=np.int64)
        kept_vectors = np.empty((0, freeze.vectors.shape[1] if freeze.size else 0))
    if freeze.size == 0:
        return kept_ids, kept_vectors
    if len(kept_ids) == 0:
        return freeze.ids, freeze.vectors
    return (
        np.concatenate([kept_ids, freeze.ids]),
        np.vstack([kept_vectors, freeze.vectors]),
    )


def compact(
    cell: SnapshotCell,
    delta: DeltaIndex,
    codec: str | VectorCodec | CodecFactory | None = None,
) -> CompactionStats:
    """Run one blue/green cycle: freeze → build off to the side → swap.

    Readers keep hitting the old generation for the entire build; the
    swap is a pointer replacement plus a watermark-bounded delta release,
    so the write-path pause is O(delta), never O(index).

    ``codec`` selects the storage format of the *next* generation, which
    is how a live re-encode works: compose the live rows exactly as
    usual (decoding the old generation if it was coded), seal them in
    the new format, swap. The watermark-safe delta drain is untouched —
    re-encoding is just compaction with a different sealer.
    """
    start = time.perf_counter()
    base = cell.current()
    freeze = delta.freeze()
    ids, vectors = compose_live(base, freeze)
    next_generation = base.generation + 1
    if len(ids) == 0:
        snapshot = empty_snapshot(next_generation)
    else:
        snapshot = build_snapshot(ids, vectors, next_generation, codec=codec)
    cell.swap(snapshot)
    drained = delta.release(freeze)
    return CompactionStats(
        generation=next_generation,
        base_rows=int(len(ids) - freeze.size),
        folded_upserts=int(freeze.size),
        dropped_tombstones=len(freeze.tombstones),
        drained=drained,
        build_seconds=snapshot.build_seconds,
        total_seconds=time.perf_counter() - start,
        codec_kind=snapshot.codec_kind,
    )


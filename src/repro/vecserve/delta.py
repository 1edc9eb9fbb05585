"""The delta index: a small exact side-buffer absorbing live mutations.

A sealed snapshot (:mod:`repro.vecserve.snapshot`) is immutable — that is
what makes its reads lock-free — so freshness has to come from somewhere
else. The delta is that somewhere: a brute-force mini-index keyed by
*external* entity id that absorbs upserts and tombstones the moment they
arrive. Queries merge it with the snapshot (delta rows shadow snapshot
rows with the same id); a background compaction periodically folds the
delta into the next snapshot generation and drains what it folded.

The drain protocol is watermark-based so compaction never loses a write
that raced it: every mutation gets a monotonically increasing sequence
number; :meth:`DeltaIndex.freeze` copies the current contents plus the
sequence watermark; after the new snapshot (built from the frozen copy)
is swapped in, :meth:`DeltaIndex.release` drops only entries whose *last*
mutation is at or below the watermark — anything upserted while the
builder was running stays in the delta for the next cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.codec.codecs import _block_scores, _column_topk
from repro.errors import ValidationError
from repro.index.base import SearchResult, _normalize_rows


@dataclass(frozen=True)
class DeltaFreeze:
    """An immutable copy of the delta taken at a sequence watermark."""

    ids: np.ndarray  # external ids of pending upserts
    vectors: np.ndarray  # their normalized rows, parallel to ids
    tombstones: frozenset[int]  # external ids deleted since last compaction
    watermark: int  # last sequence number included in this freeze

    @property
    def size(self) -> int:
        return len(self.ids)


_EMPTY_RESULT = SearchResult(
    ids=np.empty(0, dtype=np.int64), scores=np.empty(0, dtype=float)
)


class DeltaIndex:
    """Thread-safe brute-force buffer of live upserts and tombstones.

    Invariants (held under the internal lock):

    * an id appears in at most one of ``rows`` / ``tombstones`` — an
      upsert clears the id's tombstone, a remove drops the id's row;
    * every mutation advances ``last_sequence``; per-id sequence stamps
      make :meth:`release` safe against writes racing a compaction.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValidationError(f"dim must be positive ({dim=})")
        self.dim = dim
        self._lock = threading.Lock()
        self._capacity = 16
        self._matrix = np.zeros((self._capacity, dim), dtype=float)
        self._ids: list[int] = []  # row position -> external id
        self._row_of: dict[int, int] = {}  # external id -> row position
        self._upsert_seq: dict[int, int] = {}
        self._tombstones: dict[int, int] = {}  # external id -> tombstone seq
        self._sequence = 0
        self.total_upserts = 0
        self.total_removes = 0

    # -- mutation -------------------------------------------------------------

    def upsert(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Insert or overwrite rows for external ``ids`` (clears tombstones)."""
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValidationError(
                f"upsert expects (n, {self.dim}) vectors, got {vectors.shape}"
            )
        if len(ids) != len(vectors):
            raise ValidationError(
                f"upsert got {len(ids)} ids for {len(vectors)} vectors"
            )
        if len(ids) == 0:
            return
        normalized = _normalize_rows(vectors)
        with self._lock:
            for external, row_vector in zip(ids.tolist(), normalized):
                self._sequence += 1
                self._tombstones.pop(external, None)
                position = self._row_of.get(external)
                if position is None:
                    position = len(self._ids)
                    if position >= self._capacity:
                        self._grow()
                    self._ids.append(external)
                    self._row_of[external] = position
                self._matrix[position] = row_vector
                self._upsert_seq[external] = self._sequence
                self.total_upserts += 1

    def remove(self, ids: np.ndarray) -> int:
        """Tombstone external ``ids``; returns how many were newly dead.

        A tombstone masks the id everywhere — in this delta *and* in the
        sealed snapshot underneath — until compaction rebuilds without it.
        Removing an id the serving plane has never seen is a no-op (the
        tombstone is still recorded, so a racing snapshot row stays
        masked).
        """
        ids = np.asarray(ids, dtype=np.int64)
        newly = 0
        with self._lock:
            for external in ids.tolist():
                self._sequence += 1
                if external not in self._tombstones:
                    newly += 1
                self._tombstones[external] = self._sequence
                self.total_removes += 1
                position = self._row_of.pop(external, None)
                self._upsert_seq.pop(external, None)
                if position is not None:
                    self._evict_row(position)
        return newly

    def _grow(self) -> None:
        self._capacity *= 2
        grown = np.zeros((self._capacity, self.dim), dtype=float)
        grown[: len(self._ids)] = self._matrix[: len(self._ids)]
        self._matrix = grown

    def _evict_row(self, position: int) -> None:
        """Swap-remove a row, keeping the matrix dense."""
        last = len(self._ids) - 1
        if position != last:
            moved = self._ids[last]
            self._matrix[position] = self._matrix[last]
            self._ids[position] = moved
            self._row_of[moved] = position
        self._ids.pop()

    # -- read path ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Live upserted rows currently buffered."""
        with self._lock:
            return len(self._ids)

    @property
    def tombstone_count(self) -> int:
        with self._lock:
            return len(self._tombstones)

    @property
    def last_sequence(self) -> int:
        with self._lock:
            return self._sequence

    @property
    def memory_bytes(self) -> int:
        """Resident bytes of the float64 buffer (capacity, not just rows)."""
        with self._lock:
            return int(self._matrix.nbytes)

    def masked_ids(self) -> frozenset[int]:
        """External ids that must be filtered out of snapshot results:
        everything this delta shadows (upserted) or killed (tombstoned)."""
        with self._lock:
            return frozenset(self._row_of) | frozenset(self._tombstones)

    def get_vectors(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fetch buffered rows by external id: ``(found_ids, vectors)``.

        Ids with no buffered row (never upserted, or tombstoned) are
        silently skipped — the caller re-ranks what it can and keeps its
        original scores for the rest.
        """
        ids = np.asarray(ids, dtype=np.int64)
        with self._lock:
            positions = [
                (external, self._row_of[external])
                for external in ids.tolist()
                if external in self._row_of
            ]
            if not positions:
                return np.empty(0, dtype=np.int64), np.empty((0, self.dim))
            found = np.asarray([external for external, __ in positions], dtype=np.int64)
            rows = self._matrix[[position for __, position in positions]].copy()
        return found, rows

    def search_batch(
        self, normalized_queries: np.ndarray, k: int
    ) -> list[SearchResult]:
        """Exact top-k over the buffered rows (external ids) for ``(q, d)``
        normalized queries, in one block scan; a single query is a batch
        of one."""
        if k <= 0:
            raise ValidationError(f"k must be positive ({k=})")
        with self._lock:
            n = len(self._ids)
            if n == 0:
                return [_EMPTY_RESULT] * len(normalized_queries)
            scores = _block_scores(self._matrix[:n], normalized_queries, np.float64)
            ids = np.asarray(self._ids, dtype=np.int64)
        return [
            SearchResult(ids=ids[rows], scores=column_scores)
            for rows, column_scores in _column_topk(scores, min(k, n))
        ]

    # -- compaction protocol --------------------------------------------------

    def freeze(self) -> DeltaFreeze:
        """Copy the current contents + watermark for a compaction cycle."""
        with self._lock:
            n = len(self._ids)
            return DeltaFreeze(
                ids=np.asarray(self._ids, dtype=np.int64),
                vectors=self._matrix[:n].copy(),
                tombstones=frozenset(self._tombstones),
                watermark=self._sequence,
            )

    def release(self, freeze: DeltaFreeze) -> int:
        """Drop entries folded into a snapshot built from ``freeze``.

        Only entries whose last mutation is at or below the freeze
        watermark are dropped; anything mutated during the build survives
        for the next cycle. Returns how many rows+tombstones were drained.
        """
        drained = 0
        with self._lock:
            for external in freeze.ids.tolist():
                sequence = self._upsert_seq.get(external)
                if sequence is None or sequence > freeze.watermark:
                    continue  # re-upserted (or removed) during the build
                position = self._row_of.pop(external)
                self._upsert_seq.pop(external)
                self._evict_row(position)
                drained += 1
            for external in freeze.tombstones:
                sequence = self._tombstones.get(external)
                if sequence is None or sequence > freeze.watermark:
                    continue
                del self._tombstones[external]
                drained += 1
        return drained

"""The vector index interface.

Indexes operate on cosine similarity: vectors are L2-normalized at build
time, and queries are normalized on entry, so inner product equals cosine.

Thread safety: every index carries an internal readers/writer lock
(:class:`RWLock`). ``query`` holds the read side, the mutators (``build``,
``add``, ``update``, ``remove``) hold the write side — so concurrent
readers never observe a partially-appended matrix or a half-rebuilt graph
while the serving tier hammers the same index from a worker pool. The only
deliberately unguarded state is ``distance_evaluations``, a best-effort
work counter (lost increments under contention are acceptable; corruption
is not possible on a Python int).

Mutability: beyond append-only :meth:`VectorIndex.add`, indexes support
the two operations a *serving* delta plane needs (``repro.vecserve``):

* :meth:`VectorIndex.remove` — tombstone rows. Removed ids stay in the
  backing structures (graphs keep their nodes as navigation waypoints)
  but are filtered out of every query result; ``query`` widens its
  internal fetch by the tombstone count so callers still receive ``k``
  live results whenever that many exist.
* :meth:`VectorIndex.update` — overwrite rows in place (id-stable
  upsert). The default hook rebuilds the index-specific structure;
  brute force overrides it with a no-op because the matrix *is* the
  index.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError


class RWLock:
    """A readers/writer lock with writer preference.

    Many readers may hold the lock simultaneously; writers are exclusive.
    A waiting writer blocks *new* readers, so a steady query stream cannot
    starve index mutations. Not reentrant — internal index hooks
    (``_build``/``_add``/``_query``) are called with the lock already
    held and must not re-acquire it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self):
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


@dataclass(frozen=True)
class SearchResult:
    """Top-k result for one query: parallel id and score arrays."""

    ids: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vectors / norms


class VectorIndex(ABC):
    """Approximate (or exact) nearest-neighbour index over row vectors."""

    def __init__(self) -> None:
        self._vectors: np.ndarray | None = None
        self._removed: set[int] = set()
        self._guard = RWLock()
        self.distance_evaluations = 0

    @property
    def size(self) -> int:
        """Total indexed rows, including tombstoned ones."""
        return 0 if self._vectors is None else len(self._vectors)

    @property
    def live_size(self) -> int:
        """Rows that queries may return (``size`` minus tombstones)."""
        return self.size - len(self._removed)

    @property
    def is_built(self) -> bool:
        return self._vectors is not None

    @property
    def matrix(self) -> np.ndarray | None:
        """The normalized backing matrix (read-only by convention).

        Exposed so sealed-snapshot machinery (``repro.vecserve``) can run
        exact oracle scans and generation rebuilds without re-normalizing;
        mutating it directly bypasses the lock and the index structures.
        """
        return self._vectors

    def build(self, vectors: np.ndarray) -> None:
        """Index an ``(n, d)`` matrix (replaces any previous contents)."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or len(vectors) == 0:
            raise ValidationError(
                f"build expects a non-empty (n, d) matrix, got shape {vectors.shape}"
            )
        normalized = _normalize_rows(vectors)
        with self._guard.write_locked():
            self._vectors = normalized
            self._removed = set()
            self.distance_evaluations = 0
            self._build(self._vectors)

    @abstractmethod
    def _build(self, normalized: np.ndarray) -> None:
        """Index-specific construction over the normalized matrix."""

    def add(self, vectors: np.ndarray) -> np.ndarray:
        """Incrementally index new vectors; returns their assigned ids.

        Embedding stores grow (new entities, new vocabulary); rebuilding the
        whole index per addition is wasteful. The default implementation
        appends to the stored matrix and delegates to :meth:`_add`; ids are
        assigned contiguously after the existing rows.
        """
        if self._vectors is None:
            raise ValidationError("index not built; call build() first")
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self._vectors.shape[1]:
            raise ValidationError(
                f"add expects (n, {self._vectors.shape[1]}) vectors, "
                f"got {vectors.shape}"
            )
        normalized = _normalize_rows(vectors)
        with self._guard.write_locked():
            start = len(self._vectors)
            self._vectors = np.vstack([self._vectors, normalized])
            new_ids = np.arange(start, start + len(normalized), dtype=np.int64)
            self._add(normalized, new_ids)
        return new_ids

    def _add(self, normalized: np.ndarray, ids: np.ndarray) -> None:
        """Index-specific incremental insertion (default: full rebuild)."""
        self._build(self._vectors)  # type: ignore[arg-type]

    def remove(self, ids: np.ndarray) -> int:
        """Tombstone rows so queries can no longer return them.

        Rows are *not* physically deleted — graph indexes keep them as
        navigation waypoints — but every query filters them out. Returns
        the number of rows newly tombstoned (already-removed ids are
        counted as zero, out-of-range ids raise).
        """
        if self._vectors is None:
            raise ValidationError("index not built; call build() first")
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.size):
            raise ValidationError(
                f"remove ids out of range [0, {self.size}) "
                f"(got min={ids.min()}, max={ids.max()})"
            )
        with self._guard.write_locked():
            before = len(self._removed)
            self._removed.update(int(i) for i in ids)
            newly = len(self._removed) - before
            if newly:
                self._on_remove(ids)
            return newly

    def _on_remove(self, ids: np.ndarray) -> None:
        """Index-specific reaction to tombstones (default: none needed —
        filtering happens generically in :meth:`query`)."""

    def update(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Overwrite existing rows in place (id-stable upsert).

        Updated ids lose any tombstone (an overwrite resurrects the row).
        The default :meth:`_on_update` rebuilds the index-specific
        structure over the patched matrix; exact indexes override it with
        a no-op.
        """
        if self._vectors is None:
            raise ValidationError("index not built; call build() first")
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self._vectors.shape[1]:
            raise ValidationError(
                f"update expects (n, {self._vectors.shape[1]}) vectors, "
                f"got {vectors.shape}"
            )
        if len(ids) != len(vectors):
            raise ValidationError(
                f"update got {len(ids)} ids for {len(vectors)} vectors"
            )
        if len(ids) == 0:
            return
        if ids.min() < 0 or ids.max() >= self.size:
            raise ValidationError(
                f"update ids out of range [0, {self.size}) "
                f"(got min={ids.min()}, max={ids.max()})"
            )
        normalized = _normalize_rows(vectors)
        with self._guard.write_locked():
            self._vectors[ids] = normalized
            self._removed.difference_update(int(i) for i in ids)
            self._on_update(ids)

    def _on_update(self, ids: np.ndarray) -> None:
        """Index-specific reaction to overwrites (default: full rebuild)."""
        self._build(self._vectors)  # type: ignore[arg-type]

    def query(self, vector: np.ndarray, k: int) -> SearchResult:
        """Top-k most similar *live* indexed vectors to ``vector``."""
        if self._vectors is None:
            raise ValidationError("index not built; call build() first")
        if k <= 0:
            raise ValidationError(f"k must be positive ({k=})")
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self._vectors.shape[1],):
            raise ValidationError(
                f"query dim {vector.shape} != index dim ({self._vectors.shape[1]},)"
            )
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        with self._guard.read_locked():
            if self.live_size == 0:
                raise ValidationError("index has no live vectors (all removed)")
            k = min(k, self.live_size)
            # Widen the internal fetch so tombstone filtering still leaves
            # k live results whenever that many exist.
            fetch = min(k + len(self._removed), self.size)
            result = self._query(vector, fetch)
            if self._removed:
                keep = [
                    position
                    for position, row in enumerate(result.ids.tolist())
                    if row not in self._removed
                ]
                keep = keep[:k]
                result = SearchResult(
                    ids=result.ids[keep], scores=result.scores[keep]
                )
            elif len(result) > k:
                result = SearchResult(
                    ids=result.ids[:k], scores=result.scores[:k]
                )
            return result

    def query_batch(self, vectors: np.ndarray, k: int) -> list[SearchResult]:
        """Top-k for many queries under one lock acquisition.

        The default walks :meth:`_query` per query; exact indexes override
        :meth:`_query_batch` with one vectorized scoring pass (a block
        scan of GIL-releasing matmuls), which is what makes sharded
        scatter-gather of micro-batches real parallelism rather than
        serialized Python.
        """
        if self._vectors is None:
            raise ValidationError("index not built; call build() first")
        if k <= 0:
            raise ValidationError(f"k must be positive ({k=})")
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self._vectors.shape[1]:
            raise ValidationError(
                f"query_batch expects (q, {self._vectors.shape[1]}) queries, "
                f"got {vectors.shape}"
            )
        normalized = _normalize_rows(vectors)
        with self._guard.read_locked():
            if self.live_size == 0:
                raise ValidationError("index has no live vectors (all removed)")
            k = min(k, self.live_size)
            fetch = min(k + len(self._removed), self.size)
            raw = self._query_batch(normalized, fetch)
            out = []
            for result in raw:
                if self._removed:
                    keep = [
                        position
                        for position, row in enumerate(result.ids.tolist())
                        if row not in self._removed
                    ][:k]
                    result = SearchResult(
                        ids=result.ids[keep], scores=result.scores[keep]
                    )
                elif len(result) > k:
                    result = SearchResult(
                        ids=result.ids[:k], scores=result.scores[:k]
                    )
                out.append(result)
            return out

    def _query_batch(
        self, normalized: np.ndarray, k: int
    ) -> list[SearchResult]:
        """Index-specific batched search (default: per-query loop)."""
        return [self._query(query, k) for query in normalized]

    @abstractmethod
    def _query(self, normalized_query: np.ndarray, k: int) -> SearchResult:
        """Index-specific search with a normalized query and valid k."""

    def _rank_candidates(
        self, query: np.ndarray, candidates: np.ndarray, k: int
    ) -> SearchResult:
        """Exactly score a candidate id set and keep the top k.

        When the candidate set is smaller than ``k`` (sparse buckets/cells on
        tiny datasets) the scan widens to the whole index so callers always
        receive ``k`` results when the index holds at least ``k`` vectors.
        """
        assert self._vectors is not None
        if len(candidates) < k:
            candidates = np.arange(self.size, dtype=np.int64)
        scores = self._vectors[candidates] @ query
        self.distance_evaluations += len(candidates)
        k = min(k, len(candidates))
        top = np.argpartition(-scores, kth=k - 1)[:k]
        order = np.argsort(-scores[top])
        keep = top[order]
        return SearchResult(ids=candidates[keep], scores=scores[keep])


def recall_at_k(approximate: SearchResult, exact: SearchResult, k: int) -> float:
    """Fraction of the exact top-k the approximate result recovered.

    ``exact`` must contain at least ``k`` results: computing recall against
    a truncated truth set silently *inflates* the estimate (a 5-element
    truth for k=10 halves the denominator), so that case raises instead.
    """
    if k <= 0:
        raise ValidationError(f"k must be positive ({k=})")
    if k > len(exact):
        raise ValidationError(
            f"recall_at_k needs >= k exact results (k={k}, exact has "
            f"{len(exact)}); a truncated truth set would inflate recall"
        )
    truth = set(exact.ids[:k].tolist())
    found = set(approximate.ids[:k].tolist())
    return len(found & truth) / len(truth)

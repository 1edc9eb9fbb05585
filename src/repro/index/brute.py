"""Exact brute-force search: the recall-1.0 / highest-latency baseline."""

from __future__ import annotations

import numpy as np

from repro.codec.codecs import _block_scores, _column_topk
from repro.index.base import SearchResult, VectorIndex


class BruteForceIndex(VectorIndex):
    """Scores every indexed vector against the query."""

    def _build(self, normalized: np.ndarray) -> None:
        pass  # nothing beyond the normalized matrix itself

    def _add(self, normalized: np.ndarray, ids: np.ndarray) -> None:
        pass  # the appended matrix is already everything brute force needs

    def _on_update(self, ids: np.ndarray) -> None:
        pass  # overwritten rows are scored in place; nothing to rebuild

    def _query(self, normalized_query: np.ndarray, k: int) -> SearchResult:
        candidates = np.arange(self.size, dtype=np.int64)
        return self._rank_candidates(normalized_query, candidates, k)

    def _query_batch(
        self, normalized: np.ndarray, k: int
    ) -> list[SearchResult]:
        """One block scan scores the whole batch: GIL-releasing matmuls,
        each small enough to stay single-threaded inside BLAS."""
        assert self._vectors is not None
        scores = _block_scores(self._vectors, normalized, np.float64)  # (n, q)
        self.distance_evaluations += scores.size
        return [
            SearchResult(ids=rows.astype(np.int64), scores=column_scores)
            for rows, column_scores in _column_topk(scores, min(k, self.size))
        ]

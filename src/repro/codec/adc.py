"""ADC scan primitives: exact top-k over coded rows, raw positions out.

These are the functions the vector serving plane actually calls per
query. They stay deliberately dumb: score every coded row with the
codec's asymmetric kernel, partial-sort, return *row positions* and
scores. Each codec has one kernel, the batched
``VectorCodec._adc_scores_batch``; a single query (``adc_scores``,
``adc_topk``) is a batch of one through it. Id mapping, delta merging,
masking and re-ranking all belong to the caller — keeping this module
importable from anywhere in the DAG (it depends only on
:mod:`repro.codec.codecs` and numpy).

"Exact" here means exact **with respect to the codes**: ``adc_topk``
returns the true top-k of ``decode(coded) @ query``. Any recall loss a
caller observes is quantization error in the codes, never scan error —
which is what makes oversample-then-rerank against an fp32 reserve a
sound recovery strategy (see ``repro.vecserve.shards``).
"""

from __future__ import annotations

import numpy as np

from repro.codec.codecs import CodedVectors, VectorCodec
from repro.errors import ValidationError


def adc_scores(
    codec: VectorCodec, coded: CodedVectors, query: np.ndarray
) -> np.ndarray:
    """Score one fp query against every coded row (a batch of one);
    ``(n,)`` float64."""
    return codec.adc_scores(coded, query)


def adc_scores_batch(
    codec: VectorCodec, coded: CodedVectors, queries: np.ndarray
) -> np.ndarray:
    """Score a query batch; ``(n_rows, n_queries)`` float64."""
    return codec.adc_scores_batch(coded, queries)


def _topk_from_scores(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions + scores of the k largest entries, descending."""
    n = len(scores)
    if n == 0 or k == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64)
    k = min(k, n)
    if k < n:
        positions = np.argpartition(scores, -k)[-k:]
    else:
        positions = np.arange(n)
    order = np.argsort(scores[positions])[::-1]
    positions = positions[order].astype(np.int64)
    return positions, scores[positions]


def adc_topk(
    codec: VectorCodec, coded: CodedVectors, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k coded rows for one query: ``(positions, scores)``, descending.

    Exact over the codes (full scan + partial sort, scored as a batch of
    one); positions index into ``coded`` row order.
    """
    if k < 0:
        raise ValidationError(f"k must be non-negative ({k=})")
    return _topk_from_scores(codec.adc_scores(coded, query), k)


def adc_topk_batch(
    codec: VectorCodec, coded: CodedVectors, queries: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Top-k per query for a batch, sharing one batched ADC pass."""
    if k < 0:
        raise ValidationError(f"k must be non-negative ({k=})")
    scores = codec.adc_scores_batch(coded, queries)  # (n, q)
    return [_topk_from_scores(scores[:, j], k) for j in range(scores.shape[1])]

"""Counted witness: the bytes one dense ADC scan allocates.

Traced allocation peaks are deterministic where timings are not, so
these assert a byte bound. One q = 1 ``adc_scores_batch`` over a
10,000 x 64 shard (the served table's shard shape) may hold at most one
scan block of staged float32 rows plus its score arrays (the float32
scores and their float64 widening): the int8 kernel widens codes one
block at a time into a single staging buffer, and fp32 scores its rows
in place. A kernel that widened a larger slice of the codes per BLAS
call, or allocated a fresh block per iteration without freeing the
last, would show here as a higher peak.
"""

import tracemalloc

import numpy as np
import pytest

from repro.codec import adc_scores_batch, make_codec

N_ROWS = 10_000
DIM = 64
#: one scan block: 64k float32 elements
BLOCK_BYTES = 256 * 1024
#: small per-call arrays: the pre-scaled query, its float32 transpose,
#: the bias and numpy's array headers
SLACK_BYTES = 8 * 1024


@pytest.fixture(scope="module")
def rows() -> np.ndarray:
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(N_ROWS, DIM))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


@pytest.mark.parametrize("kind", ["int8", "fp32"])
def test_scan_peak_is_one_block_plus_scores(kind, rows):
    codec = make_codec(kind).train(rows)
    coded = codec.encode(rows)
    query = rows[:1].copy()
    adc_scores_batch(codec, coded, query)  # warm any lazy numpy state
    scores_bytes = N_ROWS * (4 + 8)  # float32 scores + float64 result
    bound = BLOCK_BYTES + scores_bytes + SLACK_BYTES
    assert bound <= 500_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scores = adc_scores_batch(codec, coded, query)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert scores.shape == (N_ROWS, 1)
    assert peak <= bound, f"{kind} scan peaked at {peak} traced bytes > {bound}"

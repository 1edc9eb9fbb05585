"""The compressed embedding codec plane: coded vectors + ADC kernels.

The *Unified Embedding* production recipe (PAPERS.md) for web-scale
embedding tables has two halves, and this package is the storage half:
stored vectors are *codes* — int8 scalar-quantized rows or product-
quantization codewords — while queries stay full-precision, scored
against the codes through asymmetric distance computation (ADC) kernels
that never materialize the decoded database.

* :mod:`repro.codec.codecs` — the :class:`VectorCodec` protocol
  (``train / encode / decode / bytes_per_vector``) and its three
  implementations: :class:`Fp32Codec` (float32 passthrough, 2x vs the
  float64 raw matrix), :class:`Int8Codec` (per-dimension scalar
  quantization, 8x), and :class:`PQCodec` (k-means codebooks over
  subspaces, 16-64x).
* :mod:`repro.codec.adc` — the scan primitives: exact top-k over coded
  rows for a query batch (a single query is a batch of one through the
  same kernel), returning raw row positions so callers
  (``repro.vecserve`` snapshots) can map to their own id spaces.

Layering: this package sits *below* every plane — it imports only numpy
and ``repro.errors`` (``tools/check_layering.py`` enforces it), so the
vector serving plane, the embedding store, and offline tooling can all
share one compression substrate without import cycles.
"""

from repro.codec.adc import adc_scores, adc_scores_batch, adc_topk, adc_topk_batch
from repro.codec.codecs import (
    CODEC_KINDS,
    CodedVectors,
    Fp32Codec,
    Int8Codec,
    PQCodec,
    VectorCodec,
    kmeans,
    make_codec,
)

__all__ = [
    "CODEC_KINDS",
    "CodedVectors",
    "Fp32Codec",
    "Int8Codec",
    "PQCodec",
    "VectorCodec",
    "adc_scores",
    "adc_scores_batch",
    "adc_topk",
    "adc_topk_batch",
    "kmeans",
    "make_codec",
]

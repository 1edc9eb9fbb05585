"""The vector serving plane: sharded, versioned k-NN search that stays live.

The paper's §3–4 thesis is that pretrained embeddings must become
first-class feature-store citizens — which means they need a *serving
plane*, not just a store. This package is that plane, and every sealed
generation is answered by one exact block scan (the approximate index
families of :mod:`repro.index` are for experiments such as E10):

* :mod:`repro.vecserve.shards` — hash-partitioned shards, scatter-gather
  top-k with deadline-bounded partial degradation (one batched read path;
  a single query is a batch of one);
* :mod:`repro.vecserve.snapshot` — immutable generations with
  blue/green atomic swaps (rebuilds never block or fail a query), stored
  as normalized float64 rows or in a coded format (:mod:`repro.codec`
  int8/PQ, scanned through ADC kernels);
* :mod:`repro.vecserve.delta` — an exact side-buffer absorbing live
  upserts and tombstones, merged at query time, drained by compaction;
* :mod:`repro.vecserve.service` — the :class:`VectorService` façade:
  version routing, registration subscription, micro-batched queries;
* :mod:`repro.vecserve.monitor` — per-shard latency histograms, delta
  staleness gauges, and sampled online recall@k against an exact oracle;
* :mod:`repro.vecserve.bus_sink` — embedding upserts flowing through the
  durable ingestion bus, applied effectively once.
"""

from repro.vecserve.bus_sink import (
    VectorUpsertSink,
    decode_record,
    tombstone_record,
    upsert_record,
)
from repro.vecserve.delta import DeltaFreeze, DeltaIndex
from repro.vecserve.monitor import RecallMonitor, VectorServeMetrics
from repro.vecserve.service import VectorService
from repro.vecserve.shards import (
    ShardedSearchResult,
    ShardedVectorIndex,
    VectorShard,
    merge_topk,
    shard_for,
)
from repro.vecserve.snapshot import (
    CodecFactory,
    CompactionStats,
    IndexSnapshot,
    SnapshotCell,
    build_snapshot,
    compact,
    compose_live,
    empty_snapshot,
)

__all__ = [
    "CodecFactory",
    "CompactionStats",
    "DeltaFreeze",
    "DeltaIndex",
    "IndexSnapshot",
    "RecallMonitor",
    "ShardedSearchResult",
    "ShardedVectorIndex",
    "SnapshotCell",
    "VectorServeMetrics",
    "VectorService",
    "VectorShard",
    "VectorUpsertSink",
    "build_snapshot",
    "compact",
    "compose_live",
    "decode_record",
    "empty_snapshot",
    "merge_topk",
    "shard_for",
    "tombstone_record",
    "upsert_record",
]

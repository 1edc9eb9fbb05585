"""Hash-partitioned index shards with scatter-gather top-k search.

One giant index serializes everything behind one structure: builds are
monolithic, one hot lock covers all reads and writes, and a rebuild is an
outage. Sharding by a stable hash of the external id fixes all three at
once — shards build/compact independently, queries fan out across a
thread pool (numpy releases the GIL in the scoring kernels, so the
fan-out is real parallelism), and the top-k merge of per-shard top-ks is
exact because every id lives on exactly one shard.

Each :class:`VectorShard` pairs a sealed :class:`IndexSnapshot` (lock-free
reads, see :mod:`repro.vecserve.snapshot`) with a live
:class:`~repro.vecserve.delta.DeltaIndex`; a per-shard readers/writer
lock makes the snapshot+delta *merge view* consistent — a reader never
sees a swap or an upsert halfway through.

There is one read path, and a single query is a batch of one:
:meth:`ShardedVectorIndex.search` and ``search_batch`` share one
scatter-gather (``_scatter_gather``), and :meth:`VectorShard._live_topk`
is the one routine that scans the sealed snapshot, masks tombstoned or
re-upserted rows, and merges the delta through :func:`merge_topk`. Every
scan is exact, so the recall oracle (:meth:`VectorShard.query_exact`)
reads the same routine unless the shard keeps an fp32 reserve.

Scatter-gather degrades instead of failing: a per-query deadline bounds
the gather, shards that miss it (or raise — the per-shard
:class:`~repro.runtime.resilience.FaultInjector` rehearses exactly that)
are simply left out, and the merged result is marked ``partial`` with the
miss count, mirroring the serving gateway's stale-over-unavailable
philosophy.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro.codec import make_codec
from repro.errors import TransientStoreError, ValidationError
from repro.index.base import RWLock, SearchResult
from repro.runtime.resilience import FaultInjector, FaultPolicy
from repro.vecserve.delta import DeltaIndex
from repro.vecserve.monitor import VectorServeMetrics
from repro.vecserve.snapshot import (
    CodecFactory,
    CompactionStats,
    SnapshotCell,
    build_snapshot,
    compact,
)

_EMPTY = SearchResult(
    ids=np.empty(0, dtype=np.int64), scores=np.empty(0, dtype=float)
)


@dataclass(frozen=True)
class ShardedSearchResult(SearchResult):
    """A merged top-k plus how complete the scatter-gather was."""

    partial: bool = False
    shards_missed: int = 0


def shard_for(external_id: int, n_shards: int) -> int:
    """Stable id→shard hash (same crc32 idiom as the bus's partitioner)."""
    key = int(external_id).to_bytes(8, "little", signed=True)
    return zlib.crc32(key) % n_shards


def _as_batch_of_one(vector: np.ndarray, dim: int) -> np.ndarray:
    """A single ``(dim,)`` finite query as a ``(1, dim)`` batch. The
    query batcher runs it before enqueueing, so a bad query fails its
    own caller instead of every query co-batched with it."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (dim,):
        raise ValidationError(f"query dim {vector.shape} != index dim ({dim},)")
    if not np.isfinite(vector).all():
        raise ValidationError("query vectors must be finite")
    return vector[None]


def _normalize_queries(queries: np.ndarray) -> np.ndarray:
    """L2-normalize ``(q, d)`` query rows. Every read passes through
    here, so a NaN or infinite query fails closed instead of ranking
    rows by NaN scores."""
    if not np.isfinite(queries).all():
        raise ValidationError("query vectors must be finite")
    norms = np.linalg.norm(queries, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return queries / norms


def merge_topk(parts: list[SearchResult], k: int) -> SearchResult:
    """Exact merge of disjoint per-shard top-ks (score-descending)."""
    parts = [part for part in parts if len(part)]
    if not parts:
        return _EMPTY
    ids = np.concatenate([part.ids for part in parts])
    scores = np.concatenate([part.scores for part in parts])
    order = np.argsort(-scores, kind="stable")[:k]
    return SearchResult(ids=ids[order], scores=scores[order])


class VectorShard:
    """One partition: sealed snapshot + live delta behind an RW lock.

    With ``keep_oracle=True`` the shard also maintains an **fp32 oracle
    reserve**: a full-precision copy of every live row (a
    :class:`~repro.vecserve.delta.DeltaIndex` that is fed but never
    drained). Coded snapshots need it for two jobs codes cannot do:
    exact re-ranking of oversampled ADC candidates, and recall truth —
    an ADC scan is exact *over the codes*, so only a float-precision
    side store can measure what quantization actually lost.
    """

    def __init__(
        self, shard_id: int, dim: int, keep_oracle: bool = False
    ) -> None:
        self.shard_id = shard_id
        self.dim = dim
        self.cell = SnapshotCell()
        self.delta = DeltaIndex(dim)
        self.oracle = DeltaIndex(dim) if keep_oracle else None
        self._rw = RWLock()
        self._compacting = threading.Lock()
        self._first_pending_at: float | None = None

    # -- write path -----------------------------------------------------------

    def bulk_load(
        self,
        ids: np.ndarray,
        vectors: np.ndarray,
        codec: CodecFactory | None = None,
    ) -> None:
        """Seal the initial generation for this shard's id subset."""
        snapshot = build_snapshot(
            ids, vectors, self.cell.current().generation + 1, codec=codec
        )
        with self._rw.write_locked():
            self.cell.swap(snapshot)
            if self.oracle is not None and len(ids):
                self.oracle.upsert(ids, vectors)

    def upsert(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        with self._rw.write_locked():
            self.delta.upsert(ids, vectors)
            if self.oracle is not None:
                self.oracle.upsert(ids, vectors)
            if self._first_pending_at is None:
                self._first_pending_at = time.time()

    def remove(self, ids: np.ndarray) -> int:
        with self._rw.write_locked():
            removed = self.delta.remove(ids)
            if self.oracle is not None:
                self.oracle.remove(ids)
            if self._first_pending_at is None:
                self._first_pending_at = time.time()
            return removed

    # -- read path ------------------------------------------------------------

    def _live_topk(
        self, normalized_queries: np.ndarray, k: int
    ) -> list[SearchResult]:
        """Top-k per query over the live set: the sealed scan minus rows
        the delta masks (tombstoned or re-upserted), merged with the delta
        (delta wins). The shard's one merge-and-mask routine, read under
        one consistent snapshot+delta view for the whole batch."""
        with self._rw.read_locked():
            snapshot = self.cell.current()
            mask = self.delta.masked_ids()
            fetch = min(k + len(mask), max(snapshot.size, 1))
            base = snapshot.search_batch(normalized_queries, fetch)
            if mask:
                filtered = []
                for result in base:
                    keep = [
                        position
                        for position, external in enumerate(result.ids.tolist())
                        if external not in mask
                    ]
                    if len(keep) != len(result.ids):
                        result = SearchResult(
                            ids=result.ids[keep], scores=result.scores[keep]
                        )
                    filtered.append(result)
                base = filtered
            fresh = self.delta.search_batch(normalized_queries, k)
        return [
            merge_topk([base_result, fresh_result], k)
            for base_result, fresh_result in zip(base, fresh)
        ]

    def _rerank(
        self, normalized_query: np.ndarray, candidates: SearchResult, k: int
    ) -> SearchResult:
        """Re-score oversampled ADC candidates against the fp32 reserve.

        Candidates without a reserve row (shouldn't happen when the
        oracle tracks every write, but cheap to tolerate) keep their ADC
        scores.
        """
        if self.oracle is None or len(candidates) <= k:
            return SearchResult(ids=candidates.ids[:k], scores=candidates.scores[:k])
        found, rows = self.oracle.get_vectors(candidates.ids)
        exact_of = dict(zip(found.tolist(), (rows @ normalized_query).tolist()))
        scores = np.asarray(
            [
                exact_of.get(external, float(score))
                for external, score in zip(
                    candidates.ids.tolist(), candidates.scores.tolist()
                )
            ]
        )
        order = np.argsort(-scores, kind="stable")[:k]
        return SearchResult(ids=candidates.ids[order], scores=scores[order])

    def query_batch(
        self, normalized_queries: np.ndarray, k: int, oversample: int = 1
    ) -> list[SearchResult]:
        """Top-k per query over the live set: sealed snapshot ∪ delta,
        delta wins, scored by block scans (GIL-releasing matmuls instead
        of q serialized scans).

        ``oversample > 1`` (with an oracle reserve) fetches ``k *
        oversample`` ADC candidates and exact-re-ranks them down to k —
        the standard recovery for quantization-induced rank inversions.
        """
        if oversample > 1 and self.oracle is not None:
            candidates = self._live_topk(normalized_queries, k * oversample)
            return [
                self._rerank(query, candidate, k)
                for query, candidate in zip(normalized_queries, candidates)
            ]
        return self._live_topk(normalized_queries, k)

    def query_exact(self, normalized_query: np.ndarray, k: int) -> SearchResult:
        """Exact top-k over the same live set (the recall oracle path).

        With an fp32 reserve this scans full-precision rows — true
        ground truth even when the sealed generation is coded; without
        one it is the live top-k itself (every sealed scan is exact), so
        it measures the merge but not quantization loss.
        """
        if self.oracle is not None:
            return self.oracle.search_batch(normalized_query[None], k)[0]
        return self._live_topk(normalized_query[None], k)[0]

    # -- maintenance ----------------------------------------------------------

    def compact(self, codec: CodecFactory | None = None) -> CompactionStats:
        """One blue/green cycle; queries proceed throughout. ``codec``
        selects the next generation's storage format (a live re-encode
        is just a compaction with a different sealer)."""
        with self._compacting:  # one builder per shard at a time
            stats = compact(self.cell, self.delta, codec=codec)
            with self._rw.write_locked():
                self._first_pending_at = (
                    time.time() if self.pending_mutations else None
                )
            return stats

    @property
    def pending_mutations(self) -> int:
        return self.delta.size + self.delta.tombstone_count

    @property
    def generation(self) -> int:
        return self.cell.current().generation

    @property
    def snapshot_rows(self) -> int:
        return self.cell.current().size

    @property
    def bytes_resident(self) -> int:
        """Resident bytes: sealed rows + delta buffer + oracle reserve."""
        total = self.cell.current().bytes_resident + self.delta.memory_bytes
        if self.oracle is not None:
            total += self.oracle.memory_bytes
        return total

    @property
    def staleness_s(self) -> float:
        first = self._first_pending_at
        return 0.0 if first is None else max(0.0, time.time() - first)


class ShardedVectorIndex:
    """Scatter-gather top-k over hash-partitioned, independently
    compactable shards.

    Every shard generation is answered by one exact block scan of its
    sealed rows (float64, or codes when ``codec`` is set). The query
    pool is shared with the owning service when ``executor`` is passed;
    compactions deliberately run on the *caller's* thread so a rebuild
    can never occupy the query workers and block traffic.
    """

    def __init__(
        self,
        dim: int,
        n_shards: int = 4,
        executor: ThreadPoolExecutor | None = None,
        n_workers: int | None = None,
        default_deadline_s: float | None = 0.25,
        fault_policy: FaultPolicy | None = None,
        metrics: VectorServeMetrics | None = None,
        codec: str | None = None,
        codec_options: dict | None = None,
        keep_oracle: bool = False,
        rerank_oversample: int = 1,
    ) -> None:
        if n_shards <= 0:
            raise ValidationError(f"n_shards must be positive ({n_shards=})")
        if dim <= 0:
            raise ValidationError(f"dim must be positive ({dim=})")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValidationError(
                f"default_deadline_s must be positive ({default_deadline_s=})"
            )
        if rerank_oversample < 1:
            raise ValidationError(
                f"rerank_oversample must be >= 1 ({rerank_oversample=})"
            )
        if rerank_oversample > 1 and not keep_oracle:
            raise ValidationError(
                "rerank_oversample > 1 needs keep_oracle=True (exact "
                "re-ranking reads the fp32 reserve)"
            )
        if codec is not None:
            make_codec(codec, **(codec_options or {}))  # validate eagerly
        if fault_policy is not None:
            fault_policy.validate()
        self.dim = dim
        self.n_shards = n_shards
        self.shards = [
            VectorShard(i, dim, keep_oracle=keep_oracle) for i in range(n_shards)
        ]
        self.keep_oracle = keep_oracle
        self.rerank_oversample = rerank_oversample
        self._codec_spec = codec
        self._codec_options = dict(codec_options or {})
        self.default_deadline_s = default_deadline_s
        self.metrics = metrics or VectorServeMetrics()
        self.fault_policy = fault_policy
        self._fault = (
            FaultInjector(fault_policy) if fault_policy is not None else None
        )
        self._owns_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(
            max_workers=n_workers or min(8, max(2, n_shards)),
            thread_name_prefix="vecshard",
        )
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedVectorIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- codec ----------------------------------------------------------------

    def _codec_factory(self) -> CodecFactory | None:
        """A fresh-codec-per-generation factory for the current spec.

        Each shard build trains its own instance (bulk loads run shards
        in parallel on the executor), so codec state is never shared
        across builders.
        """
        if self._codec_spec is None:
            return None
        spec, options = self._codec_spec, dict(self._codec_options)
        return lambda: make_codec(spec, **options)

    @property
    def codec_kind(self) -> str:
        """Storage format of the sealed generations: ``"raw"``, a codec
        kind, or ``"mixed"`` mid-re-encode."""
        kinds = {shard.cell.current().codec_kind for shard in self.shards}
        return kinds.pop() if len(kinds) == 1 else "mixed"

    # -- routing --------------------------------------------------------------

    def shard_for(self, external_id: int) -> int:
        return shard_for(external_id, self.n_shards)

    def _group(self, ids: np.ndarray) -> dict[int, np.ndarray]:
        ids = np.asarray(ids, dtype=np.int64)
        assignments = np.asarray([self.shard_for(i) for i in ids.tolist()])
        return {
            shard: np.flatnonzero(assignments == shard)
            for shard in set(assignments.tolist())
        }

    # -- write path -----------------------------------------------------------

    def bulk_load(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Partition and seal the initial generation on every shard."""
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=float)
        if len(ids) != len(vectors):
            raise ValidationError(
                f"bulk_load got {len(ids)} ids for {len(vectors)} vectors"
            )
        if len(set(ids.tolist())) != len(ids):
            raise ValidationError("bulk_load ids must be unique")
        groups = self._group(ids)
        codec = self._codec_factory()
        futures = [
            self._executor.submit(
                self.shards[shard].bulk_load,
                ids[positions],
                vectors[positions],
                codec,
            )
            for shard, positions in groups.items()
        ]
        done, __ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in done:
            future.result()  # surface builder exceptions
        self.refresh_gauges()

    def upsert(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Route upserts to their shards' deltas (visible immediately)."""
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=float)
        for shard, positions in self._group(ids).items():
            self.shards[shard].upsert(ids[positions], vectors[positions])
        self.metrics.upserts.inc(len(ids))
        self.refresh_gauges()

    def remove(self, ids: np.ndarray) -> int:
        """Tombstone external ids across shards; returns newly-dead count."""
        ids = np.asarray(ids, dtype=np.int64)
        removed = 0
        for shard, positions in self._group(ids).items():
            removed += self.shards[shard].remove(ids[positions])
        self.metrics.removes.inc(len(ids))
        self.refresh_gauges()
        return removed

    # -- read path ------------------------------------------------------------

    def _inject_fault(self) -> None:
        """One per-shard-call roll through the shared injector engine."""
        if self._fault is not None:
            self._fault.inject(n_keys=1)

    def _shard_query_batch(
        self, shard: VectorShard, queries: np.ndarray, k: int
    ) -> list[SearchResult]:
        start = time.monotonic()
        self._inject_fault()
        results = shard.query_batch(
            queries, k, oversample=self.rerank_oversample
        )
        self.metrics.shard_latency(shard.shard_id).record(
            time.monotonic() - start
        )
        return results

    def _scatter_gather(
        self, queries: np.ndarray, k: int, deadline_s: float | None
    ) -> list[ShardedSearchResult]:
        """The one fan-out: every shard answers the whole ``(q, d)`` batch.

        The scatter overhead (task submission, lock acquisition, future
        bookkeeping) is paid once per shard, not once per shard×query. A
        shard missing the deadline (or raising) is left out and marks the
        whole batch partial — the same all-or-nothing grouping the feature
        micro-batcher exhibits.
        """
        if k <= 0:
            raise ValidationError(f"k must be positive ({k=})")
        normalized = _normalize_queries(queries)
        deadline = deadline_s if deadline_s is not None else self.default_deadline_s
        start = time.monotonic()
        futures = {
            self._executor.submit(
                self._shard_query_batch, shard, normalized, k
            ): shard
            for shard in self.shards
        }
        done, not_done = wait(futures, timeout=deadline)
        per_shard: list[list[SearchResult]] = []
        missed = len(not_done)
        for future in done:
            try:
                per_shard.append(future.result())
            except TransientStoreError:
                self.metrics.shard_errors.inc()
                missed += 1
        for future in not_done:
            future.cancel()  # best effort; a running scan finishes unharvested
        elapsed = time.monotonic() - start
        out: list[ShardedSearchResult] = []
        for position in range(len(normalized)):
            merged = merge_topk(
                [results[position] for results in per_shard], k
            )
            out.append(
                ShardedSearchResult(
                    ids=merged.ids,
                    scores=merged.scores,
                    partial=missed > 0,
                    shards_missed=missed,
                )
            )
        self.metrics.record_query(elapsed, partial=missed > 0, missed=missed)
        return out

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        deadline_s: float | None = None,
    ) -> ShardedSearchResult:
        """Scatter-gather top-k with deadline-bounded partial degradation:
        a batch of one through the same fan-out as :meth:`search_batch`."""
        (result,) = self._scatter_gather(
            _as_batch_of_one(query, self.dim), k, deadline_s
        )
        return result

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        deadline_s: float | None = None,
    ) -> list[ShardedSearchResult]:
        """Micro-batched scatter-gather: one fan-out for many queries."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValidationError(
                f"search_batch expects (q, {self.dim}) queries, got {queries.shape}"
            )
        results = self._scatter_gather(queries, k, deadline_s)
        self.metrics.batched_queries.inc(len(queries))
        return results

    def search_exact(self, query: np.ndarray, k: int = 10) -> SearchResult:
        """Exact top-k over the live set (sequential full scans; the
        recall oracle — deliberately outside the deadline machinery)."""
        (normalized,) = _normalize_queries(_as_batch_of_one(query, self.dim))
        parts = [shard.query_exact(normalized, k) for shard in self.shards]
        return merge_topk(parts, k)

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> list[CompactionStats]:
        """Blue/green-compact every shard (on the caller's thread)."""
        stats = []
        codec = self._codec_factory()
        for shard in self.shards:
            shard_stats = shard.compact(codec=codec)
            self.metrics.record_compaction(
                shard_stats.total_seconds, self.max_generation
            )
            stats.append(shard_stats)
        self.refresh_gauges()
        return stats

    def reencode(
        self, codec: str | None, codec_options: dict | None = None
    ) -> list[CompactionStats]:
        """Live blue/green re-encode: switch the storage format, reseal.

        Sets the codec spec for all *future* generations and immediately
        compacts every shard into the new format (``None`` re-encodes
        back to raw float64 rows). Queries and upserts proceed
        throughout — readers stay on the old generation until each
        shard's swap, and the watermark drain guarantees no write is
        lost to the rebuild race.
        """
        if codec is not None:
            make_codec(codec, **(codec_options or {}))  # validate eagerly
        self._codec_spec = codec
        self._codec_options = dict(codec_options or {})
        return self.compact()

    def compact_async(self) -> threading.Thread:
        """Kick a compaction off on a dedicated background thread."""
        thread = threading.Thread(
            target=self.compact, name="vecserve-compact", daemon=True
        )
        thread.start()
        return thread

    def refresh_gauges(self) -> None:
        self.metrics.delta_rows.set(sum(s.delta.size for s in self.shards))
        self.metrics.delta_tombstones.set(
            sum(s.delta.tombstone_count for s in self.shards)
        )
        self.metrics.snapshot_rows.set(
            sum(s.snapshot_rows for s in self.shards)
        )
        self.metrics.generation.set(self.max_generation)
        self.metrics.snapshot_bytes.set(self.snapshot_bytes)
        self.metrics.bytes_per_vector.set(int(round(self.bytes_per_vector)))
        pending = [
            s.staleness_s for s in self.shards if s.pending_mutations
        ]
        self.metrics.set_staleness(max(pending) if pending else 0.0)

    @property
    def max_generation(self) -> int:
        return max(shard.generation for shard in self.shards)

    @property
    def pending_mutations(self) -> int:
        return sum(shard.pending_mutations for shard in self.shards)

    @property
    def snapshot_rows(self) -> int:
        return sum(shard.snapshot_rows for shard in self.shards)

    @property
    def snapshot_bytes(self) -> int:
        """Resident bytes of the sealed generations across all shards
        (coded rows + codec state, or the raw float64 matrices)."""
        return sum(
            shard.cell.current().bytes_resident for shard in self.shards
        )

    @property
    def bytes_resident(self) -> int:
        """Everything the table keeps in memory: sealed generations,
        delta buffers, and the fp32 oracle reserve if kept."""
        return sum(shard.bytes_resident for shard in self.shards)

    @property
    def bytes_per_vector(self) -> float:
        """Per-row bytes of the sealed storage (row-weighted across
        shards; codec state and id maps excluded — this is the number
        the ≥4x compression acceptance gate is judged on)."""
        rows = 0
        total = 0.0
        for shard in self.shards:
            snapshot = shard.cell.current()
            if snapshot.size == 0:
                continue
            per_row = (
                snapshot.codec.bytes_per_vector
                if snapshot.codec is not None
                else 8.0 * self.dim
            )
            total += per_row * snapshot.size
            rows += snapshot.size
        return total / rows if rows else 0.0

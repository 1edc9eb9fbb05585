"""The vector service: versioned, refreshable k-NN serving as one façade.

This is the piece the paper's §3–4 asks for: the path from
``EmbeddingStore.register()`` to a concurrent, monitored, *refreshable*
similarity-search endpoint. Every table is answered by exact block scans
(float64 rows, or codec codes through ADC); the approximate index
families of :mod:`repro.index` are for experiments, not serving. A
:class:`VectorService` keeps one :class:`~repro.vecserve.shards.ShardedVectorIndex`
per served ``(embedding_name, version)`` table and offers:

* **version routing** — ``search(name, ..., version=3)`` pins a table;
  ``version=None`` follows the latest *enabled* version, so consumers get
  re-indexed embeddings for free (the same latest-compatible philosophy
  as ``vectors_for_model``);
* **registration subscription** — after :meth:`auto_enable`, every new
  version registered in the attached
  :class:`~repro.core.embedding_store.EmbeddingStore` is built into a
  served table the moment it lands;
* **live freshness** — :meth:`upsert` / :meth:`remove` mutate the serving
  plane immediately (delta-visible), with background or threshold-driven
  compaction folding mutations into the next sealed generation;
* **micro-batched queries** — with ``batch_queries=True`` concurrent
  single-query callers are coalesced into one scatter-gather per
  ``(table, version, k)`` group, through the same
  :class:`repro.runtime.Batcher` the gateway batches feature reads with;
* **online monitoring** — every table carries
  :class:`~repro.vecserve.monitor.VectorServeMetrics` and a sampled
  :class:`~repro.vecserve.monitor.RecallMonitor`, registered in the
  service's :class:`~repro.runtime.telemetry.MetricsRegistry`, optionally
  mirrored into an attached serving-metrics facade and rendered by
  :func:`repro.monitoring.dashboard.vector_section`.

The service is a :class:`repro.runtime.Service`: idempotent ``stop()``/
``close()`` (which drains the query batcher), a shared state machine,
and auto-compaction running on a :class:`repro.runtime.PeriodicTask`
instead of a hand-rolled thread.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import NotRegisteredError, ValidationError
from repro.runtime import (
    Batcher,
    Deadline,
    MetricsRegistry,
    PeriodicTask,
    Service,
)
from repro.runtime.resilience import FaultPolicy
from repro.vecserve.monitor import RecallMonitor, VectorServeMetrics
from repro.vecserve.shards import (
    ShardedSearchResult,
    ShardedVectorIndex,
    _as_batch_of_one,
)
from repro.vecserve.snapshot import CompactionStats

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.embedding_store import EmbeddingStore, EmbeddingVersion
    from repro.serving import ServingMetrics

@dataclass
class _ServedTable:
    """One live table: the sharded index plus its quality monitor."""

    name: str
    version: int
    sharded: ShardedVectorIndex
    recall: RecallMonitor


class VectorService(Service):
    """Sharded, versioned, monitored k-NN serving over embedding tables.

    A :class:`repro.runtime.Service` (historical contract: constructed ==
    running). Use as a context manager, call :meth:`close`/:meth:`stop`,
    or hand it to a :class:`~repro.runtime.ServiceGroup` — shutdown stops
    auto-compaction, drains the query batcher, detaches the embedding
    store listeners and shuts the worker pool down, idempotently.
    """

    def __init__(
        self,
        embeddings: "EmbeddingStore | None" = None,
        serving_metrics: "ServingMetrics | None" = None,
        n_workers: int = 8,
        batch_queries: bool = False,
        max_batch_size: int = 32,
        batch_wait_s: float = 0.0005,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name="vecserve")
        self.embeddings = embeddings
        self.serving_metrics = serving_metrics
        self.registry = registry if registry is not None else MetricsRegistry()
        self._tables: dict[tuple[str, int], _ServedTable] = {}
        self._latest: dict[str, int] = {}
        self._auto: dict[str, dict] = {}
        self._lock = threading.RLock()
        self._n_workers = n_workers
        self._batch_queries = batch_queries
        self._max_batch_size = max_batch_size
        self._batch_wait_s = batch_wait_s
        self._executor: ThreadPoolExecutor | None = None
        self.batcher: Batcher | None = None
        self._compaction_task: PeriodicTask | None = None
        self.start()  # historical contract: constructed == running

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self._n_workers, thread_name_prefix="vecserve"
        )
        if self._batch_queries:
            self.batcher = Batcher(
                self._run_batch,
                name="vector-query-batcher",
                max_batch_size=self._max_batch_size,
                max_wait_s=self._batch_wait_s,
            )
        if self.embeddings is not None:
            self.embeddings.add_register_listener(self._on_register)

    def _on_stop(self) -> None:
        self.stop_auto_compaction()
        if self.batcher is not None:
            self.batcher.stop()
        if self.embeddings is not None:
            self.embeddings.remove_register_listener(self._on_register)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def health(self) -> dict[str, object]:
        record = super().health()
        record["tables"] = len(self.served_tables())
        if self.batcher is not None:
            record["batcher"] = self.batcher.health()
        if self._compaction_task is not None:
            record["auto_compaction"] = self._compaction_task.health()
        return record

    # -- table management -----------------------------------------------------

    def serve_matrix(
        self,
        name: str,
        version: int,
        ids: np.ndarray,
        vectors: np.ndarray,
        backend: str = "brute",
        n_shards: int = 4,
        deadline_s: float | None = 0.25,
        sample_rate: float = 0.05,
        recall_k: int = 10,
        fault_policy: FaultPolicy | None = None,
        codec: str | None = None,
        codec_options: dict | None = None,
        keep_oracle: bool = False,
        rerank_oversample: int = 1,
    ) -> ShardedVectorIndex:
        """Build and serve a table directly from ``(ids, vectors)``.

        The store-independent entry: :meth:`enable` resolves a registered
        embedding version and lands here. ``codec`` seals generations in
        a compressed storage format (``"fp32"``/``"int8"``/``"pq"``);
        ``keep_oracle=True`` adds the fp32 reserve that makes recall
        monitoring measure true quantization loss and (with
        ``rerank_oversample > 1``) enables exact re-ranking of ADC
        candidates. ``backend`` accepts only ``"brute"``, the exact scan
        every table is served by.
        """
        if backend != "brute":
            raise ValidationError(
                f"unknown backend {backend!r}: every served table is an "
                f"exact scan (backend='brute'); ANN experiments use the "
                f"index families of repro.index"
            )
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or len(vectors) == 0:
            raise ValidationError(
                f"serve_matrix expects a non-empty (n, d) matrix, "
                f"got shape {vectors.shape}"
            )
        metrics = VectorServeMetrics(
            serving=self.serving_metrics,
            mirror_endpoint=f"vector_search:{name}",
            registry=self.registry,
            table=f"{name}:v{version}",
        )
        sharded = ShardedVectorIndex(
            dim=vectors.shape[1],
            n_shards=n_shards,
            executor=self._executor,
            default_deadline_s=deadline_s,
            fault_policy=fault_policy,
            metrics=metrics,
            codec=codec,
            codec_options=codec_options,
            keep_oracle=keep_oracle,
            rerank_oversample=rerank_oversample,
        )
        sharded.bulk_load(ids, vectors)
        recall = RecallMonitor(
            oracle=sharded.search_exact,
            k=recall_k,
            sample_rate=sample_rate,
            context=lambda: (
                f"gen{sharded.max_generation}",
                sharded.codec_kind,
            ),
        )
        table = _ServedTable(
            name=name,
            version=version,
            sharded=sharded,
            recall=recall,
        )
        with self._lock:
            self._tables[(name, version)] = table
            self._latest[name] = max(self._latest.get(name, 0), version)
        return sharded

    def enable(
        self,
        name: str,
        version: int | None = None,
        **options,
    ) -> ShardedVectorIndex:
        """Serve a registered embedding version (latest when ``None``)."""
        if self.embeddings is None:
            raise ValidationError(
                "service was built without an EmbeddingStore; "
                "use serve_matrix() instead"
            )
        record = self.embeddings.get(name, version)
        with self._lock:
            existing = self._tables.get((name, record.version))
            if existing is not None:
                return existing.sharded
        return self.serve_matrix(
            name,
            record.version,
            ids=np.arange(record.embedding.n, dtype=np.int64),
            vectors=record.embedding.vectors,
            **options,
        )

    def auto_enable(self, name: str, **options) -> None:
        """Serve every future registration of ``name`` automatically
        (and the current latest, if one exists)."""
        with self._lock:
            self._auto[name] = dict(options)
        if self.embeddings is not None and name in self.embeddings.names():
            self.enable(name, **options)

    def _on_register(self, record: "EmbeddingVersion") -> None:
        with self._lock:
            options = self._auto.get(record.name)
        if options is None:
            return
        self.serve_matrix(
            record.name,
            record.version,
            ids=np.arange(record.embedding.n, dtype=np.int64),
            vectors=record.embedding.vectors,
            **options,
        )

    def disable(self, name: str, version: int) -> None:
        """Stop serving one table (its shards keep no background threads)."""
        with self._lock:
            self._tables.pop((name, version), None)
            remaining = [v for (n, v) in self._tables if n == name]
            if remaining:
                self._latest[name] = max(remaining)
            else:
                self._latest.pop(name, None)

    def served_tables(self) -> list[tuple[str, int]]:
        with self._lock:
            return sorted(self._tables)

    def _resolve(self, name: str, version: int | None) -> _ServedTable:
        with self._lock:
            if version is None:
                version = self._latest.get(name)
                if version is None:
                    raise NotRegisteredError(
                        f"no served table for {name!r}; "
                        f"have {self.served_tables()}"
                    )
            table = self._tables.get((name, version))
            if table is None:
                raise NotRegisteredError(
                    f"no served table for {name!r} v{version}; "
                    f"have {self.served_tables()}"
                )
            return table

    def table(self, name: str, version: int | None = None) -> ShardedVectorIndex:
        """The underlying sharded index (pinned or latest routing)."""
        return self._resolve(name, version).sharded

    def recall_monitor(self, name: str, version: int | None = None) -> RecallMonitor:
        return self._resolve(name, version).recall

    # -- query path -----------------------------------------------------------

    @staticmethod
    def _fan_out(
        table: _ServedTable,
        queries: np.ndarray,
        k: int,
        deadline_s: float | None,
        batched: bool = True,
    ) -> list[ShardedSearchResult]:
        """Scatter-gather ``(q, d)`` queries over one table and offer each
        answer to its recall monitor. ``batched=False`` answers a single
        query through ``ShardedVectorIndex.search`` (its validation, and
        not counted as a batched query)."""
        if batched:
            results = table.sharded.search_batch(
                queries, k, deadline_s=deadline_s
            )
        else:
            results = [table.sharded.search(queries, k, deadline_s=deadline_s)]
            queries = [queries]
        for query, result in zip(np.asarray(queries, dtype=float), results):
            table.recall.maybe_observe(query, result)
        return results

    def _run_batch(
        self,
        group: tuple[str, int, int],
        items: list[tuple[np.ndarray, Deadline | None]],
    ) -> list[ShardedSearchResult]:
        """The query batcher's group runner: one fan-out per group.

        The fan-out honors the tightest remaining budget in the group,
        so co-batched traffic never loosens one caller's deadline
        (clamped to ~0 so an already-expired member still gets a fast
        partial answer rather than an unbounded scan).
        """
        name, version, k = group
        table = self._resolve(name, version)
        queries = np.stack([query for query, __ in items])
        budgets = [d.remaining() for __, d in items if d is not None]
        deadline_s = max(min(budgets), 1e-4) if budgets else None
        return self._fan_out(table, queries, k, deadline_s)

    def search(
        self,
        name: str,
        query: np.ndarray,
        k: int = 10,
        version: int | None = None,
        deadline_s: float | None = None,
    ) -> ShardedSearchResult:
        """Top-k neighbours with pinned-version or latest routing.

        With the query batcher enabled, concurrent callers coalesce into
        shard-batched scatter-gathers; otherwise the query fans out
        directly. Either way a sampled shadow query may feed the recall
        monitor.

        ``deadline_s`` bounds the whole path *including* batcher queue
        wait: the request carries its :class:`~repro.runtime.Deadline`
        into the batch (the shard fan-out honors the tightest member),
        and the caller waits at most its remaining budget (plus a small
        grace for the in-progress fan-out to deliver its own partial
        result) before degrading to an empty ``partial`` answer — the
        same degradation contract the unbatched path has always had.
        """
        self._check_running("serve queries")
        table = self._resolve(name, version)
        if self.batcher is not None:
            deadline = (
                Deadline.after(deadline_s) if deadline_s is not None else None
            )
            (checked,) = _as_batch_of_one(query, table.sharded.dim)
            future = self.batcher.submit(
                (table.name, table.version, k), (checked, deadline)
            )
            if deadline is None:
                return future.result()
            grace = 0.05  # let the deadline-bounded fan-out report partials
            try:
                return future.result(
                    timeout=max(deadline.remaining(), 0.0) + grace
                )
            except FutureTimeoutError:
                future.cancel()
                table.sharded.metrics.partials.inc()
                return ShardedSearchResult(
                    ids=np.empty(0, dtype=np.int64),
                    scores=np.empty(0, dtype=float),
                    partial=True,
                    shards_missed=table.sharded.n_shards,
                )
        (result,) = self._fan_out(table, query, k, deadline_s, batched=False)
        return result

    def search_batch(
        self,
        name: str,
        queries: np.ndarray,
        k: int = 10,
        version: int | None = None,
        deadline_s: float | None = None,
    ) -> list[ShardedSearchResult]:
        """Explicitly batched top-k (one fan-out for the whole batch)."""
        self._check_running("serve queries")
        return self._fan_out(
            self._resolve(name, version), queries, k, deadline_s
        )

    def search_exact(
        self,
        name: str,
        query: np.ndarray,
        k: int = 10,
        version: int | None = None,
    ):
        """The exact oracle over the live set (recall ground truth)."""
        return self._resolve(name, version).sharded.search_exact(query, k)

    # -- write path -----------------------------------------------------------

    def upsert(
        self,
        name: str,
        ids: np.ndarray,
        vectors: np.ndarray,
        version: int | None = None,
    ) -> None:
        """Insert/overwrite serving-plane vectors, visible immediately."""
        self._resolve(name, version).sharded.upsert(ids, vectors)

    def remove(
        self, name: str, ids: np.ndarray, version: int | None = None
    ) -> int:
        """Tombstone serving-plane vectors, masked immediately."""
        return self._resolve(name, version).sharded.remove(ids)

    # -- compaction -----------------------------------------------------------

    def compact(
        self, name: str | None = None, version: int | None = None
    ) -> dict[tuple[str, int], list[CompactionStats]]:
        """Blue/green-compact one table (or all of them)."""
        if name is not None:
            table = self._resolve(name, version)
            return {(table.name, table.version): table.sharded.compact()}
        out = {}
        for key in self.served_tables():
            table = self._resolve(*key)
            out[key] = table.sharded.compact()
        return out

    def reencode(
        self,
        name: str,
        codec: str | None,
        version: int | None = None,
        codec_options: dict | None = None,
    ) -> list[CompactionStats]:
        """Live blue/green re-encode of one served table.

        Switches the table's sealed-storage format (e.g. ``"fp32"`` →
        ``"int8"`` → ``"pq"``; ``None`` back to raw) and compacts every
        shard into it. Queries and upserts keep flowing throughout; the
        recall monitor's context labels flip to the new
        ``(generation, codec)`` so before/after quality is attributable
        in the dashboard.
        """
        return self._resolve(name, version).sharded.reencode(
            codec, codec_options
        )

    def maybe_compact(self, max_pending: int = 256) -> int:
        """Compact every table whose delta outgrew ``max_pending``;
        returns how many tables were compacted."""
        compacted = 0
        for key in self.served_tables():
            with self._lock:
                table = self._tables.get(key)
            if table is None:
                continue
            if table.sharded.pending_mutations > max_pending:
                table.sharded.compact()
                compacted += 1
        return compacted

    def start_auto_compaction(
        self, interval_s: float = 0.05, max_pending: int = 256
    ) -> None:
        """Background compaction loop (a :class:`~repro.runtime.PeriodicTask`):
        every ``interval_s`` seconds, fold any delta larger than
        ``max_pending`` into a new sealed generation. Exceptions in one
        pass are contained by the task; maintenance keeps ticking."""
        if interval_s <= 0:
            raise ValidationError(f"interval_s must be positive ({interval_s=})")
        if self._compaction_task is not None:
            return
        self._compaction_task = PeriodicTask(
            lambda: self.maybe_compact(max_pending),
            interval_s=interval_s,
            name="vecserve-autocompact",
        )
        self._compaction_task.start()

    def stop_auto_compaction(self) -> None:
        if self._compaction_task is None:
            return
        self._compaction_task.stop()
        self._compaction_task = None

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Per-table operational + quality state (dashboard food)."""
        tables = {}
        for key in self.served_tables():
            table = self._resolve(*key)
            estimate = table.recall.recall_estimate()
            tables[f"{table.name}:v{table.version}"] = {
                "n_shards": table.sharded.n_shards,
                "latest": self._latest.get(table.name) == table.version,
                "codec": table.sharded.codec_kind,
                "bytes_per_vector": round(table.sharded.bytes_per_vector, 2),
                "bytes_resident": table.sharded.bytes_resident,
                "recall_estimate": (
                    None if estimate is None else round(estimate, 4)
                ),
                "recall_k": table.recall.k,
                "recall_samples": table.recall.samples.value,
                "recall_by_codec": {
                    label: round(value, 4)
                    for label, value in table.recall.recall_by_context().items()
                },
                **table.sharded.metrics.snapshot(),
            }
        snap: dict[str, object] = {"tables": tables}
        if self.batcher is not None:
            snap["batch"] = {
                "batches": self.batcher.batches.value,
                "batched_requests": self.batcher.batched_requests.value,
                "mean_batch_size": round(self.batcher.mean_batch_size(), 2),
            }
        return snap

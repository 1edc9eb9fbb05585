"""The serving gateway: one concurrent request path over both stores.

The paper's product surface (§2.2.2, §3) is low-latency online serving of
features *and* embeddings to deployed models. Industrial feature stores
put a dedicated serving tier in front of the storage layer (Microsoft's
geo-distributed feature store ships an online gateway with caching and
SLO monitoring; see PAPERS.md); this module is that tier for ``repro``:

* **one API** — :meth:`get_features`, :meth:`get_embeddings`,
  :meth:`search_neighbors` (k-NN over the attached
  :class:`~repro.vecserve.VectorService`, the one vector search path),
  and the fused :meth:`enrich` that returns a feature vector plus the
  compatibility-checked embedding row in a single round trip;
* **micro-batching** — concurrent point lookups coalesce into one
  ``read_many`` per ``(namespace, policy)`` group, through a
  :class:`repro.runtime.Batcher`;
* **read-through caching** — LRU + TTL + Zipfian hot tier
  (:mod:`repro.serving.cache`), invalidated by the store's write path;
* **robust execution** — a bounded worker pool, per-request deadlines,
  retry-with-backoff on :class:`~repro.errors.TransientStoreError`
  (every store read goes through :func:`repro.runtime.retry_call`), and
  graceful degradation: on an exhausted budget the gateway serves the
  stale cached value, returns ``None``, or raises, according to the
  request's :class:`~repro.storage.online.FreshnessPolicy`;
* **observability** — per-endpoint latency histograms, QPS, hit rates,
  inflight/queue-depth gauges and error/degraded counters
  (:mod:`repro.serving.metrics`), rendered by
  :func:`repro.monitoring.dashboard.serving_section`.

Freshness caveat: the cache bounds value age with the *wall-clock*
``cache_ttl_s``; pick it no larger than the tightest namespace TTL if
freshness contracts must hold through the cache.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.embedding_store import EmbeddingStore
from repro.errors import (
    DeadlineExceededError,
    TransientStoreError,
    ValidationError,
)
from repro.runtime import (
    Batcher,
    Deadline,
    MetricsRegistry,
    RetryPolicy,
    Service,
    retry_call,
)
from repro.serving.cache import CacheEntry, LookupStatus, ReadThroughCache
from repro.serving.metrics import EndpointMetrics, ServingMetrics
from repro.storage.online import FreshnessPolicy


@dataclass(frozen=True)
class GatewayConfig:
    """Tuning knobs for the serving gateway."""

    enable_cache: bool = True
    cache_capacity: int = 2048
    cache_ttl_s: float | None = None
    hot_capacity: int = 128
    hot_promote_hits: int = 4
    enable_batching: bool = True
    max_batch_size: int = 64
    batch_wait_s: float = 0.0005
    n_workers: int = 4
    default_deadline_s: float = 0.25
    max_retries: int = 2
    retry_backoff_s: float = 0.0005

    def validate(self) -> None:
        if self.default_deadline_s <= 0:
            raise ValidationError(
                f"default_deadline_s must be positive ({self.default_deadline_s=})"
            )
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0 ({self.max_retries=})")
        if self.retry_backoff_s < 0:
            raise ValidationError(
                f"retry_backoff_s must be >= 0 ({self.retry_backoff_s=})"
            )


@dataclass(frozen=True)
class EnrichResult:
    """The fused response: features + pinned-version embedding, one call."""

    entity_id: int
    features: dict[str, object] | None
    embedding: np.ndarray | None
    embedding_name: str
    embedding_version: int
    degraded: bool = False


#: how a read's budget runs out: retries spent on transient store errors,
#: the deadline gone between attempts, or the deadline gone while waiting
#: on a batched read (that wait is not retried)
_BUDGET_ERRORS = (TransientStoreError, DeadlineExceededError, FutureTimeoutError)


class ServingGateway(Service):
    """Concurrent, cached, batched, observable serving over both stores.

    ``online`` may be a plain :class:`~repro.storage.online.OnlineStore`
    or its fault-injecting wrapper; anything exposing ``read`` /
    ``read_many`` / ``write`` / ``add_write_listener`` works. The
    gateway is a :class:`repro.runtime.Service` — constructed running,
    with idempotent thread-safe :meth:`stop`/:meth:`close`; use it as a
    context manager (or in a
    :class:`~repro.runtime.ServiceGroup`) for orderly shutdown.

    ``registry`` threads a shared
    :class:`~repro.runtime.telemetry.MetricsRegistry` into the gateway's
    :class:`~repro.serving.metrics.ServingMetrics`, merging the serving
    tier into one process-wide telemetry export.
    """

    _FEATURE = "feat"
    _EMBEDDING = "emb"

    def __init__(
        self,
        online,
        embeddings: EmbeddingStore | None = None,
        config: GatewayConfig | None = None,
        vectors=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name="gateway")
        self.config = config or GatewayConfig()
        self.config.validate()
        self.online = online
        self.embeddings = embeddings
        self.vectors = vectors  # a repro.vecserve.VectorService, if attached
        self.metrics = ServingMetrics(registry=registry)
        self._retry_policy = RetryPolicy(
            max_retries=self.config.max_retries,
            backoff_s=self.config.retry_backoff_s,
        )
        self.cache: ReadThroughCache | None = (
            ReadThroughCache(
                capacity=self.config.cache_capacity,
                ttl=self.config.cache_ttl_s,
                hot_capacity=self.config.hot_capacity,
                hot_promote_hits=self.config.hot_promote_hits,
            )
            if self.config.enable_cache
            else None
        )
        self.batcher: Batcher | None = None
        self._listening = False
        self.start()  # historical contract: constructed == serving

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        if self.config.enable_batching:
            self.batcher = Batcher(
                self._read_group,
                name="microbatcher",
                max_batch_size=self.config.max_batch_size,
                max_wait_s=self.config.batch_wait_s,
                n_workers=self.config.n_workers,
            )
        if hasattr(self.online, "add_write_listener"):
            self.online.add_write_listener(self._on_store_write)
            self._listening = True

    def _on_stop(self) -> None:
        if self.batcher is not None:
            self.batcher.stop()
        if self._listening and hasattr(self.online, "remove_write_listener"):
            self.online.remove_write_listener(self._on_store_write)
            self._listening = False

    # -- plumbing -------------------------------------------------------------

    def _read_group(self, group, entity_ids):
        namespace, policy = group
        return self.online.read_many(namespace, entity_ids, policy)

    def _on_store_write(self, namespace: str, entity_id: int) -> None:
        """Write-path invalidation hook (registered on the online store)."""
        if self.cache is not None:
            self.cache.invalidate((self._FEATURE, namespace, entity_id))

    @contextmanager
    def _observe(self, endpoint: str):
        metrics = self.metrics.endpoint(endpoint)
        metrics.requests.inc()
        self.metrics.inflight.inc()
        start = time.monotonic()
        try:
            yield metrics
        except Exception:  # noqa: BLE001 - counted, then re-raised
            metrics.errors.inc()
            raise
        finally:
            metrics.latency.record(time.monotonic() - start)
            self.metrics.inflight.dec()
            if self.batcher is not None:
                self.metrics.queue_depth.set(self.batcher.queue_depth())

    def _cache_lookup(
        self, key, metrics: EndpointMetrics
    ) -> tuple[bool, CacheEntry | None]:
        """Returns (fresh_hit, entry). ``entry`` may be stale for degradation."""
        if self.cache is None:
            metrics.cache_misses.inc()
            return False, None
        status, entry = self.cache.lookup(key)
        if status is LookupStatus.HIT:
            metrics.cache_hits.inc()
            return True, entry
        metrics.cache_misses.inc()
        return False, entry

    def _degrade(
        self,
        policy: FreshnessPolicy,
        stale_entry: CacheEntry | None,
        metrics: EndpointMetrics,
        error: Exception,
    ):
        """Budget exhausted: serve stale, default, or raise — per policy."""
        metrics.degraded.inc()
        if policy is FreshnessPolicy.RAISE:
            raise DeadlineExceededError(
                f"request exhausted its budget; last error: {error!r}"
            ) from error
        if policy is FreshnessPolicy.SERVE_ANYWAY and stale_entry is not None:
            metrics.stale_served.inc()
            return stale_entry.value
        return None  # RETURN_NONE, or SERVE_ANYWAY with nothing cached

    def _retrying(self, read, deadline: Deadline, metrics: EndpointMetrics):
        """``read()`` under the gateway's retry policy and ``deadline``."""
        return retry_call(
            read,
            self._retry_policy,
            deadline,
            on_retry=lambda __: metrics.retries.inc(),
        )

    # -- endpoints ------------------------------------------------------------

    def _serve_feature(
        self,
        namespace: str,
        entity_id: int,
        policy: FreshnessPolicy,
        deadline_s: float | None,
        metrics: EndpointMetrics,
    ) -> tuple[object, bool]:
        """Shared point-lookup path; returns ``(value, degraded)``."""
        key = (self._FEATURE, namespace, entity_id)
        fresh, entry = self._cache_lookup(key, metrics)
        if fresh:
            return entry.value, False  # type: ignore[union-attr]
        deadline = Deadline.after(deadline_s or self.config.default_deadline_s)
        # RAISE requests bypass the batcher: a batched ``read_many`` raises
        # for the *whole* group when any key is stale, which would fail
        # innocent co-batched requests.
        if self.batcher is not None and policy is not FreshnessPolicy.RAISE:

            def read():
                future = self.batcher.submit((namespace, policy), entity_id)
                try:
                    return future.result(timeout=deadline.remaining())
                except FutureTimeoutError:
                    future.cancel()
                    raise

        else:

            def read():
                return self.online.read(namespace, entity_id, policy)

        try:
            value = self._retrying(read, deadline, metrics)
        except _BUDGET_ERRORS as exc:
            return self._degrade(policy, entry, metrics, exc), True
        if self.cache is not None and value is not None:
            self.cache.put(key, value)
        return value, False

    def get_features(
        self,
        namespace: str,
        entity_id: int,
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
        deadline_s: float | None = None,
    ) -> dict[str, object] | None:
        """Point feature lookup: cache, then (batched) read-through."""
        with self._observe("get_features") as metrics:
            value, __ = self._serve_feature(
                namespace, entity_id, policy, deadline_s, metrics
            )
            return value  # type: ignore[return-value]

    def get_features_batch(
        self,
        namespace: str,
        entity_ids: list[int],
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
        deadline_s: float | None = None,
    ) -> list[dict[str, object] | None]:
        """Multi-key lookup: cached keys are skipped, the rest read once."""
        with self._observe("get_features_batch") as metrics:
            out: list[object] = [None] * len(entity_ids)
            stale: dict[int, CacheEntry | None] = {}
            missing: list[int] = []  # positions
            for position, entity_id in enumerate(entity_ids):
                key = (self._FEATURE, namespace, entity_id)
                fresh, entry = self._cache_lookup(key, metrics)
                if fresh:
                    out[position] = entry.value  # type: ignore[union-attr]
                else:
                    missing.append(position)
                    stale[position] = entry
            if not missing:
                return out
            deadline = Deadline.after(deadline_s or self.config.default_deadline_s)
            missing_ids = [entity_ids[p] for p in missing]
            try:
                values = self._retrying(
                    lambda: self.online.read_many(namespace, missing_ids, policy),
                    deadline,
                    metrics,
                )
            except _BUDGET_ERRORS as exc:
                for position in missing:
                    out[position] = self._degrade(
                        policy, stale[position], metrics, exc
                    )
                return out
            for position, value in zip(missing, values):
                out[position] = value
                if self.cache is not None and value is not None:
                    self.cache.put(
                        (self._FEATURE, namespace, entity_ids[position]), value
                    )
            return out

    def _serve_embeddings(
        self,
        name: str,
        entity_ids: list[int],
        pinned_version: int | None,
        version: int | None,
        metrics: EndpointMetrics,
    ) -> tuple[np.ndarray, int]:
        """Shared embedding-row path; returns ``(rows, served_version)``."""
        if self.embeddings is None:
            raise ValidationError("gateway was built without an EmbeddingStore")
        record = self.embeddings.get(name, version)
        missing: list[int] = []
        rows: dict[int, np.ndarray] = {}
        for entity_id in entity_ids:
            key = (self._EMBEDDING, name, record.version, entity_id)
            fresh, entry = self._cache_lookup(key, metrics)
            if fresh:
                rows[entity_id] = entry.value  # type: ignore[assignment]
            else:
                missing.append(entity_id)
        if missing:
            fetched = self.embeddings.vectors_for_model(
                name,
                pinned_version if pinned_version is not None else record.version,
                np.asarray(missing, dtype=np.int64),
                serve_version=record.version,
            )
            for entity_id, row in zip(missing, fetched):
                rows[entity_id] = row
                if self.cache is not None:
                    self.cache.put(
                        (self._EMBEDDING, name, record.version, entity_id), row
                    )
        elif pinned_version is not None and not self.embeddings.is_compatible(
            name, pinned_version, record.version
        ):
            # All rows were cached, but the contract still applies.
            self.embeddings.vectors_for_model(
                name,
                pinned_version,
                np.asarray([], dtype=np.int64),
                serve_version=record.version,
            )
        stacked = (
            np.stack([rows[e] for e in entity_ids])
            if entity_ids
            else np.empty((0, record.embedding.dim))
        )
        return stacked, record.version

    def get_embeddings(
        self,
        name: str,
        entity_ids: list[int],
        pinned_version: int | None = None,
        version: int | None = None,
    ) -> np.ndarray:
        """Serve embedding rows, enforcing the compatibility contract.

        With ``pinned_version`` set, behaves like
        :meth:`~repro.core.embedding_store.EmbeddingStore.vectors_for_model`
        (latest-compatible serving); rows are cached per
        ``(name, served_version, entity_id)``. Embedding versions are
        immutable, so cached rows never need invalidation.
        """
        with self._observe("get_embeddings") as metrics:
            rows, __ = self._serve_embeddings(
                name, entity_ids, pinned_version, version, metrics
            )
            return rows

    def search_neighbors(
        self,
        name: str,
        query: np.ndarray,
        k: int = 10,
        version: int | None = None,
        deadline_s: float | None = None,
    ):
        """Top-k over the live vector serving plane (``repro.vecserve``).

        The gateway's one vector endpoint: it hits the attached
        :class:`~repro.vecserve.service.VectorService` — sharded
        scatter-gather, delta-fresh upserts, blue/green rebuilds and
        sampled recall monitoring — and, when the service was built with
        ``batch_queries=True``, concurrent callers coalesce into
        micro-batched shard fan-outs. Returns a
        :class:`~repro.vecserve.shards.ShardedSearchResult` whose
        ``partial`` flag is the degradation signal (mirrored into the
        endpoint's ``degraded`` counter).
        """
        with self._observe("search_neighbors") as metrics:
            if self.vectors is None:
                raise ValidationError("gateway was built without a VectorService")
            result = self.vectors.search(
                name, query, k=k, version=version, deadline_s=deadline_s
            )
            if getattr(result, "partial", False):
                metrics.degraded.inc()
            return result

    def enrich(
        self,
        namespace: str,
        entity_id: int,
        embedding_name: str,
        pinned_version: int | None = None,
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
        deadline_s: float | None = None,
    ) -> EnrichResult:
        """The fused endpoint: features + embedding row, one round trip.

        This is the request shape a deployed ranking model issues per
        candidate: tabular features from the online store joined with the
        entity's pinned-version-compatible embedding. Cache and
        degradation metrics for the fused path are attributed to the
        ``enrich`` endpoint, not to ``get_features``/``get_embeddings``.
        """
        with self._observe("enrich") as metrics:
            features, degraded = self._serve_feature(
                namespace, entity_id, policy, deadline_s, metrics
            )
            embedding_row: np.ndarray | None = None
            embedding_version = 0
            if self.embeddings is not None:
                record = self.embeddings.get(embedding_name)
                embedding_version = record.version
                if 0 <= entity_id < record.embedding.n:
                    rows, embedding_version = self._serve_embeddings(
                        embedding_name,
                        [entity_id],
                        pinned_version,
                        None,
                        metrics,
                    )
                    embedding_row = rows[0]
            return EnrichResult(
                entity_id=entity_id,
                features=features,  # type: ignore[arg-type]
                embedding=embedding_row,
                embedding_name=embedding_name,
                embedding_version=embedding_version,
                degraded=degraded,
            )

    # -- write path -----------------------------------------------------------

    def write_features(
        self,
        namespace: str,
        entity_id: int,
        values: dict[str, object],
        event_time: float,
    ) -> None:
        """Write through to the store; the write listener invalidates the
        cached copy so no reader can observe the overwritten value."""
        with self._observe("write_features"):
            self.online.write(namespace, entity_id, values, event_time)
            if not self._listening and self.cache is not None:
                # Store without listener support: invalidate directly.
                self.cache.invalidate((self._FEATURE, namespace, entity_id))

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Metrics + cache + batcher state in one dict (dashboard food)."""
        snap = self.metrics.snapshot()
        if self.cache is not None:
            snap["cache"] = self.cache.stats()
        if self.batcher is not None:
            snap["batch"] = {
                "batches": self.batcher.batches.value,
                "batched_requests": self.batcher.batched_requests.value,
                "mean_batch_size": self.batcher.mean_batch_size(),
            }
        return snap

"""Online serving tier: the concurrent gateway over both stores.

The paper's product surface (§2.2.2, §3) is low-latency serving of
features *and* embeddings to deployed models. This package is that tier:

* :mod:`repro.serving.gateway` — the :class:`ServingGateway` request API
  (``get_features`` / ``get_embeddings`` / ``search_neighbors`` over a
  :class:`repro.vecserve.VectorService` / fused ``enrich``) with
  deadlines, retries, graceful degradation and micro-batched point reads
  (a :class:`repro.runtime.Batcher` grouping lookups by
  ``(namespace, policy)``);
* :mod:`repro.serving.cache` — read-through LRU+TTL cache with a
  Zipfian-aware hot-key tier and write-path invalidation;
* :mod:`repro.serving.faults` — fault-injecting store wrapper (latency,
  timeouts, transient errors) the robustness machinery is tested against;
* :mod:`repro.serving.metrics` — latency histograms, counters, gauges;
* :mod:`repro.serving.loadgen` — the closed-loop Zipfian load driver
  (``run_closed_loop(call, config, classes)``) behind E16 and E21.
"""

# Re-exported so higher planes (repro.net) can name freshness semantics
# without importing the storage layer directly.
from repro.storage.online import FreshnessPolicy
from repro.serving.cache import (
    CacheEntry,
    CacheStats,
    LookupStatus,
    ReadThroughCache,
)
from repro.serving.faults import FaultInjectingOnlineStore
from repro.serving.gateway import EnrichResult, GatewayConfig, ServingGateway
from repro.serving.loadgen import (
    ClassReport,
    LoadConfig,
    LoadReport,
    run_closed_loop,
)
from repro.serving.metrics import EndpointMetrics, ServingMetrics

__all__ = [
    "CacheEntry",
    "CacheStats",
    "ClassReport",
    "EndpointMetrics",
    "EnrichResult",
    "FaultInjectingOnlineStore",
    "FreshnessPolicy",
    "GatewayConfig",
    "LoadConfig",
    "LoadReport",
    "LookupStatus",
    "ReadThroughCache",
    "ServingGateway",
    "ServingMetrics",
    "run_closed_loop",
]

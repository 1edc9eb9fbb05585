"""Serving observability: the gateway facade over the runtime registry.

Paper section 2.2.3 argues that operational metrics are what "allow users
to be informed of potential 'gremlins' in the system"; an online serving
tier is the component where those gremlins cost real traffic, so the
gateway records per-endpoint latency distributions (p50/p95/p99), request
and error rates, cache effectiveness and queue pressure.

The thread-safe primitives (:class:`Counter`, :class:`Gauge`,
:class:`LatencyHistogram`) live in :mod:`repro.runtime.telemetry`;
import them from :mod:`repro.runtime`. Every metric a
:class:`ServingMetrics` facade exposes is allocated through a
:class:`~repro.runtime.telemetry.MetricsRegistry` — hand the same
registry to the bus and vector planes and the whole deployment exports
through one Prometheus/JSON endpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.runtime.telemetry import Counter, LatencyHistogram, MetricsRegistry


@dataclass
class EndpointMetrics:
    """All per-endpoint serving metrics."""

    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    requests: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    degraded: Counter = field(default_factory=Counter)
    stale_served: Counter = field(default_factory=Counter)
    retries: Counter = field(default_factory=Counter)
    cache_hits: Counter = field(default_factory=Counter)
    cache_misses: Counter = field(default_factory=Counter)

    @classmethod
    def from_registry(
        cls, registry: MetricsRegistry, endpoint: str
    ) -> "EndpointMetrics":
        """Allocate every per-endpoint series through ``registry``."""
        label = {"endpoint": endpoint}
        return cls(
            latency=registry.histogram("serving_latency_seconds", **label),
            requests=registry.counter("serving_requests_total", **label),
            errors=registry.counter("serving_errors_total", **label),
            degraded=registry.counter("serving_degraded_total", **label),
            stale_served=registry.counter("serving_stale_served_total", **label),
            retries=registry.counter("serving_retries_total", **label),
            cache_hits=registry.counter("serving_cache_hits_total", **label),
            cache_misses=registry.counter("serving_cache_misses_total", **label),
        )

    def hit_rate(self) -> float:
        hits, misses = self.cache_hits.value, self.cache_misses.value
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self, elapsed_s: float) -> dict[str, float]:
        latency = self.latency.summary()
        requests = self.requests.value
        return {
            "requests": float(requests),
            "qps": requests / elapsed_s if elapsed_s > 0 else 0.0,
            "errors": float(self.errors.value),
            "degraded": float(self.degraded.value),
            "stale_served": float(self.stale_served.value),
            "retries": float(self.retries.value),
            "cache_hits": float(self.cache_hits.value),
            "cache_misses": float(self.cache_misses.value),
            "cache_hit_rate": self.hit_rate(),
            **latency,
        }


class ServingMetrics:
    """Per-endpoint metrics plus gateway-wide gauges, registry-backed.

    ``registry`` defaults to a private
    :class:`~repro.runtime.telemetry.MetricsRegistry` (full isolation,
    the pre-runtime behaviour); pass a shared one to merge the serving
    tier into a process-wide export.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._endpoints: dict[str, EndpointMetrics] = {}
        self._started = time.monotonic()
        self.inflight = self.registry.gauge("serving_inflight")
        self.queue_depth = self.registry.gauge("serving_queue_depth")

    def freshness(self, namespace: str) -> LatencyHistogram:
        """Per-namespace end-to-end freshness lag (event_time → write_time).

        The write plane (the ingestion bus's online sinks, see
        :mod:`repro.bus.metrics`) records into these histograms, so the
        serving tier's snapshot shows how stale each namespace's values
        were *when they landed* — the counterpart of the read-path
        ``stale_served`` counter. When the bus shares this registry the
        histogram object is literally the same series.
        """
        return self.registry.histogram(
            "serving_freshness_lag_seconds", namespace=namespace
        )

    def freshness_namespaces(self) -> list[str]:
        return sorted(
            labels["namespace"]
            for name, labels, __ in self.registry.collect()
            if name == "serving_freshness_lag_seconds"
        )

    def endpoint(self, name: str) -> EndpointMetrics:
        # dict access is atomic under the GIL; creation races produce the
        # same registry-backed series either way, so last-write-wins on
        # the facade cache is benign.
        metrics = self._endpoints.get(name)
        if metrics is None:
            metrics = self._endpoints[name] = EndpointMetrics.from_registry(
                self.registry, name
            )
        return metrics

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def reset_window(self) -> None:
        """Restart the QPS window (keeps histograms and counters)."""
        self._started = time.monotonic()

    def snapshot(self) -> dict[str, object]:
        """One nested dict with every endpoint plus gateway-wide gauges."""
        elapsed = self.elapsed_s()
        return {
            "elapsed_s": elapsed,
            "inflight": self.inflight.value,
            "inflight_peak": self.inflight.peak,
            "queue_depth": self.queue_depth.value,
            "queue_depth_peak": self.queue_depth.peak,
            "endpoints": {
                name: self.endpoint(name).snapshot(elapsed)
                for name in self.endpoints()
            },
            "freshness": {
                namespace: self.freshness(namespace).summary()
                for namespace in self.freshness_namespaces()
            },
        }

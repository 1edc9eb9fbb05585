"""The operator dashboard: one text pane over the whole deployment.

Paper section 2.2.3: metrics "allow users to be informed of potential
'gremlins' in the system". This module renders a single human-readable
status report combining the four health surfaces an on-call engineer needs:

* alert summary (counts by kind, most recent per column),
* feature freshness per view against its cadence budget,
* embedding version status (latest version, quality-vs-previous metrics,
  which models are pinned behind),
* deployed-model inventory with lineage,
* serving-tier health (per-endpoint p50/p95/p99 latency, QPS, cache
  hit-rate, queue pressure, error/degraded counts) when a
  :class:`~repro.serving.gateway.ServingGateway` is attached,
* the shared :class:`~repro.runtime.telemetry.MetricsRegistry` — when the
  planes share one registry, :func:`telemetry_section` renders every
  registered series (the same data :meth:`~repro.runtime.telemetry.MetricsRegistry.to_prometheus`
  and :meth:`~repro.runtime.telemetry.MetricsRegistry.to_json` export),
* runtime service health (:func:`services_section`) — one line per
  :class:`~repro.runtime.Service` in a running stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.embedding_store import EmbeddingStore
from repro.core.feature_store import FeatureStore
from repro.monitoring.monitor import AlertLog
from repro.runtime.telemetry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.bus.consumer import Consumer
    from repro.bus.metrics import BusMetrics
    from repro.net.server import FeatureServer
    from repro.runtime.lifecycle import Service
    from repro.serving.gateway import ServingGateway
    from repro.vecserve.service import VectorService


@dataclass(frozen=True)
class DashboardSection:
    """One titled block of the rendered dashboard."""

    title: str
    lines: tuple[str, ...]

    def render(self) -> str:
        bar = "-" * max(20, len(self.title) + 4)
        return "\n".join([bar, f"| {self.title}", bar, *self.lines])


def alert_section(log: AlertLog, max_recent: int = 5) -> DashboardSection:
    """Counts by alert kind plus the most recent alerts."""
    if not log.alerts:
        return DashboardSection("alerts", ("no alerts",))
    by_kind: dict[str, int] = {}
    for alert in log.alerts:
        by_kind[alert.kind] = by_kind.get(alert.kind, 0) + 1
    lines = [
        "counts: " + ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    ]
    recent = sorted(log.alerts, key=lambda a: a.timestamp, reverse=True)
    for alert in recent[:max_recent]:
        lines.append(
            f"  t={alert.timestamp:.0f} [{alert.kind}] {alert.column}: "
            f"{alert.message}"
        )
    return DashboardSection("alerts", tuple(lines))


def freshness_section(store: FeatureStore, now: float | None = None) -> DashboardSection:
    """Per-view staleness against the cadence budget."""
    now = store.clock.now() if now is None else now
    lines = []
    for name in store.registry.view_names():
        view = store.registry.view(name)
        table = store.offline.table(view.materialized_table)
        last = table.last_event_time()
        if last is None:
            lines.append(f"{name} v{view.version}: NEVER MATERIALIZED")
            continue
        staleness = now - last
        status = "ok" if staleness <= view.cadence else "STALE"
        lines.append(
            f"{name} v{view.version}: {staleness:.0f}s old "
            f"(cadence {view.cadence:.0f}s) [{status}]"
        )
    if not lines:
        lines = ["no feature views published"]
    return DashboardSection("feature freshness", tuple(lines))


def embedding_section(
    embeddings: EmbeddingStore, store: FeatureStore
) -> DashboardSection:
    """Latest versions, quality metrics, and stale-pinned consumers."""
    lines = []
    for name in embeddings.names():
        latest = embeddings.get(name)
        quality = latest.metrics.get("knn_jaccard_vs_previous")
        quality_text = "first version" if quality is None else f"jaccard={quality:.2f}"
        lines.append(
            f"{name}: v{latest.version} ({latest.provenance.trainer}, "
            f"dim={latest.embedding.dim}, {quality_text})"
        )
        for record in store.models.consumers_of_embedding(name):
            pinned = record.embedding_versions[name]
            if pinned == latest.version:
                continue
            compatible = embeddings.is_compatible(name, pinned, latest.version)
            state = "compatible" if compatible else "BLOCKED - retrain or align"
            lines.append(
                f"  consumer {record.name} pinned to v{pinned} ({state})"
            )
    if not lines:
        lines = ["no embeddings registered"]
    return DashboardSection("embeddings", tuple(lines))


def compiler_section(store: FeatureStore) -> DashboardSection:
    """Pipeline-compiler accounting: what the optimizer saved.

    Reads :attr:`FeatureStore.compiler_stats` (cumulative since store
    creation). The headline numbers are physical scans saved by
    shared-scan fusion and rows/columns never touched thanks to
    predicate pushdown and projection pruning.
    """
    stats = store.compiler_stats
    if not stats:
        return DashboardSection(
            "pipeline compiler", ("no compiled plans executed",)
        )
    touched = stats.get("rows_scanned", 0)
    pruned = stats.get("rows_pruned", 0)
    total = touched + pruned
    pruned_pct = (100.0 * pruned / total) if total else 0.0
    lines = (
        f"views compiled: {stats.get('views_compiled', 0)} "
        f"(fused: {stats.get('views_fused', 0)} in "
        f"{stats.get('fusion_groups', 0)} group(s))",
        f"scans saved by fusion: {stats.get('scans_saved', 0)}",
        f"rows scanned: {touched} (pruned: {pruned}, {pruned_pct:.0f}%)",
        f"columns decoded: {stats.get('columns_decoded', 0)} "
        f"(pruned: {stats.get('columns_pruned', 0)})",
    )
    return DashboardSection("pipeline compiler", lines)


def model_section(store: FeatureStore) -> DashboardSection:
    """Deployed models with lineage and headline metrics."""
    lines = []
    for name in store.models.model_names():
        record = store.models.get(name)
        metric_text = ", ".join(
            f"{k}={v:.3f}" for k, v in sorted(record.metrics.items())
        ) or "no metrics"
        lines.append(
            f"{name} v{record.version}: feature_set={record.feature_set} "
            f"({metric_text})"
        )
    if not lines:
        lines = ["no models registered"]
    return DashboardSection("models", tuple(lines))


def serving_section(gateway: "ServingGateway") -> DashboardSection:
    """Serving-tier health: latency percentiles, QPS, caching, pressure.

    The gateway's own histograms are the source of truth (the "SLO
    monitoring" surface a managed serving tier exports); this section
    renders one line per endpoint plus the cache/batch/queue summary.
    """
    snapshot = gateway.snapshot()
    lines = []
    endpoints: dict[str, dict[str, float]] = snapshot["endpoints"]  # type: ignore[assignment]
    for name, stats in sorted(endpoints.items()):
        lines.append(
            f"{name}: n={stats['requests']:.0f} qps={stats['qps']:,.0f} "
            f"p50={stats['p50_s'] * 1e3:.2f}ms p95={stats['p95_s'] * 1e3:.2f}ms "
            f"p99={stats['p99_s'] * 1e3:.2f}ms err={stats['errors']:.0f} "
            f"degraded={stats['degraded']:.0f} stale_served={stats['stale_served']:.0f}"
        )
    cache = snapshot.get("cache")
    if cache is not None:
        lines.append(
            f"cache: hit_rate={cache.hit_rate:.2f} "
            f"(hits={cache.hits} stale={cache.stale_hits} misses={cache.misses}) "
            f"hot={cache.hot_size} keys (hot_hits={cache.hot_hits}) "
            f"evictions={cache.evictions} invalidations={cache.invalidations}"
        )
    batch = snapshot.get("batch")
    if batch is not None:
        lines.append(
            f"batching: {batch['batches']} batches, "
            f"mean size {batch['mean_batch_size']:.1f}"
        )
    lines.append(
        f"pressure: inflight={snapshot['inflight']} "
        f"(peak {snapshot['inflight_peak']}) "
        f"queue_depth={snapshot['queue_depth']} "
        f"(peak {snapshot['queue_depth_peak']})"
    )
    if not endpoints:
        lines = ["no requests served"] + lines[-1:]
    freshness = snapshot.get("freshness") or {}
    for namespace, stats in sorted(freshness.items()):  # type: ignore[union-attr]
        lines.append(
            f"freshness {namespace}: n={stats['count']:.0f} "
            f"p50={stats['p50_s']:.3f}s p99={stats['p99_s']:.3f}s "
            f"(event_time -> online write)"
        )
    return DashboardSection("serving", tuple(lines))


def bus_section(
    metrics: "BusMetrics", consumer: "Consumer | None" = None
) -> DashboardSection:
    """Ingest-plane health: throughput, consumer lag, end-to-end freshness.

    The write-path counterpart of :func:`serving_section` — the numbers
    that say whether the bus is keeping the online store fresh: produce
    and consume rates, backpressure stalls, per-partition consumer lag
    (live from ``consumer`` if given, else the last recorded gauges), and
    the per-namespace ``event_time → online write_time`` distribution.
    """
    snapshot = metrics.snapshot()
    lines = [
        f"produced: {snapshot['produced']} records "
        f"({snapshot['produce_events_s']:,.0f}/s, "
        f"{snapshot['produced_bytes']} bytes, "
        f"{snapshot['produce_batches']} batches, "
        f"backpressure={snapshot['backpressure_events']})",
        f"consumed: {snapshot['consumed']} records "
        f"({snapshot['consume_events_s']:,.0f}/s, "
        f"commits={snapshot['commits']}, applied={snapshot['applied']}, "
        f"duplicates_skipped={snapshot['duplicates_skipped']})",
    ]
    lags = consumer.lag() if consumer is not None else {
        int(p): lag for p, lag in snapshot["lag"].items()  # type: ignore[union-attr]
    }
    if lags:
        total = sum(lags.values())
        per_partition = " ".join(f"p{p}={lag}" for p, lag in sorted(lags.items()))
        lines.append(f"consumer lag: total={total} ({per_partition})")
    else:
        lines.append("consumer lag: no consumers")
    freshness: dict[str, dict[str, float]] = snapshot["freshness"]  # type: ignore[assignment]
    for namespace, stats in sorted(freshness.items()):
        lines.append(
            f"freshness {namespace}: n={stats['count']:.0f} "
            f"p50={stats['p50_s']:.3f}s p99={stats['p99_s']:.3f}s"
        )
    if not freshness:
        lines.append("freshness: no sink writes yet")
    return DashboardSection("ingestion bus", tuple(lines))


def vector_section(service: "VectorService") -> DashboardSection:
    """Vector-plane health: per-table recall, latency, delta pressure.

    One line per served ``(name, version)`` table with the numbers that
    catch the two silent ANN failure modes — quality (sampled online
    recall@k drifting down) and latency (partial results, shard misses)
    — plus the write-side pressure gauges (delta rows/tombstones, age of
    the oldest un-compacted mutation, blue/green generation) and the
    storage row: codec, bytes/vector, and recall attributed per
    ``(generation, codec)`` context so a re-encode that degrades quality
    points at itself.
    """
    snapshot = service.snapshot()
    tables: dict[str, dict[str, object]] = snapshot["tables"]  # type: ignore[assignment]
    lines = []
    for key, stats in sorted(tables.items()):
        recall = stats["recall_estimate"]
        recall_text = (
            "no samples" if recall is None
            else f"recall@{stats['recall_k']}={recall:.3f}"
        )
        latency: dict[str, float] = stats["latency"]  # type: ignore[assignment]
        latest = " [latest]" if stats["latest"] else ""
        lines.append(
            f"{key}{latest}: {stats['codec']} x{stats['n_shards']} "
            f"gen={stats['generation']} rows={stats['snapshot_rows']} "
            f"{recall_text}"
        )
        lines.append(
            f"  storage: codec={stats['codec']} "
            f"bytes/vec={stats['bytes_per_vector']} "
            f"resident={stats['bytes_resident']}B"
        )
        by_codec: dict[str, float] = stats.get("recall_by_codec") or {}  # type: ignore[assignment]
        if by_codec:
            lines.append(
                "  recall by codec: "
                + " ".join(
                    f"{label}={value:.3f}"
                    for label, value in sorted(by_codec.items())
                )
            )
        lines.append(
            f"  queries: n={stats['queries']} "
            f"p50={latency['p50_s'] * 1e3:.2f}ms "
            f"p95={latency['p95_s'] * 1e3:.2f}ms "
            f"partial={stats['partials']} misses={stats['shard_misses']} "
            f"errors={stats['shard_errors']}"
        )
        lines.append(
            f"  delta: rows={stats['delta_rows']} "
            f"tombstones={stats['delta_tombstones']} "
            f"staleness={stats['delta_staleness_s']:.3f}s "
            f"(upserts={stats['upserts']} removes={stats['removes']} "
            f"compactions={stats['compactions']})"
        )
    if not lines:
        lines = ["no vector tables served"]
    return DashboardSection("vector serving", tuple(lines))


def network_section(server: "FeatureServer") -> DashboardSection:
    """Network front-end health: traffic, sheds, drain state, latency.

    Duck-typed over ``server.snapshot()`` (the layering lint forbids a
    runtime ``monitoring → net`` import: the network plane is the top of
    the DAG, so the dashboard renders its exported state, not its
    types). Shows the admission story at a glance — in-flight vs
    watermark vs hard cap, per-priority shed counts, per-tenant
    throttles — because "are we shedding, and *whom*" is the question an
    operator asks first when p99 moves.
    """
    snap = server.snapshot()
    admission: dict[str, object] = snap["admission"]  # type: ignore[assignment]
    shed: dict[str, int] = admission["shed"]  # type: ignore[assignment]
    address = snap.get("address")
    location = f"{address[0]}:{address[1]}" if address else "unbound"
    state = "DRAINING" if snap["draining"] else "serving"
    lines = [
        f"{location} [{state}] requests={snap['requests']} "
        f"completed={snap['completed']} "
        f"open_connections={snap['open_connections']}",
        f"admission: inflight={admission['inflight']} "
        f"(peak={admission['inflight_peak']}) "
        f"watermark={admission['shed_watermark']} "
        f"cap={admission['max_inflight']}",
        f"refused: throttled={admission['throttled']} "
        + " ".join(
            f"shed[{priority}]={count}"
            for priority, count in sorted(shed.items())
        ),
    ]
    responses: dict[str, int] = snap.get("responses_by_status") or {}  # type: ignore[assignment]
    if responses:
        lines.append(
            "responses: "
            + " ".join(
                f"{status}={count}"
                for status, count in sorted(responses.items())
            )
        )
    latency: dict[str, dict[str, float]] = snap.get("latency_by_route") or {}  # type: ignore[assignment]
    for route, summary in sorted(latency.items()):
        if summary["count"]:
            lines.append(
                f"  {route}: n={summary['count']:.0f} "
                f"p50={summary['p50_s'] * 1e3:.2f}ms "
                f"p99={summary['p99_s'] * 1e3:.2f}ms"
            )
    return DashboardSection("network serving", tuple(lines))


def cluster_section(cluster) -> DashboardSection:
    """Cluster plane health: roles, replication lag, ring spread, failovers.

    Duck-typed over ``cluster.snapshot()`` for the same reason as
    :func:`network_section` — ``repro.cluster`` is a top of the DAG, so
    the dashboard renders its exported state, never its types. One line
    per node answers the on-call questions in order: who leads each
    shard, is anyone dead, how far behind is each follower (records and
    seconds), and has the ring's key ownership stayed balanced.
    """
    snap = cluster.snapshot()
    coordinator: dict[str, object] = snap["coordinator"]  # type: ignore[assignment]
    transport: dict[str, object] = snap.get("transport") or {}  # type: ignore[assignment]
    shards: dict[str, dict] = coordinator["shards"]  # type: ignore[assignment]
    lines = [
        f"shards={len(shards)} route_version={coordinator['route_version']} "
        f"failovers={coordinator['failovers']} "
        f"reconfigures={coordinator['reconfigures']}",
    ]
    for record in coordinator["nodes"]:  # type: ignore[union-attr]
        state = "alive" if record["alive"] else "DEAD"
        line = (
            f"  {record['node_id']} [{record['role']}/{state}] "
            f"shard={record['shard_id']}"
        )
        if record["role"] == "follower" and record["alive"]:
            line += (
                f" lag={record['lag_records']}rec"
                f"/{record['lag_seconds'] * 1e3:.0f}ms"
            )
        lines.append(line)
    spread: dict[str, float] = coordinator.get("ring_spread") or {}  # type: ignore[assignment]
    if spread:
        fractions = sorted(spread.values())
        lines.append(
            "ring spread: "
            + " ".join(
                f"{member}={fraction:.1%}"
                for member, fraction in sorted(spread.items())
            )
            + f" (max/min={fractions[-1] / fractions[0]:.2f})"
        )
    if transport:
        lines.append(
            f"transport: requests={transport['requests']} "
            f"unreachable={transport['unreachable']} "
            f"dropped={transport['dropped']} "
            f"partitions={len(transport.get('partitions') or [])}"
        )
    return DashboardSection("cluster", tuple(lines))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def telemetry_section(
    registry: MetricsRegistry, max_series_per_metric: int = 4
) -> DashboardSection:
    """Registry-driven view over every series the deployment registered.

    This section is computed purely from
    :meth:`~repro.runtime.telemetry.MetricsRegistry.collect` — the same
    source of truth behind the Prometheus (``to_prometheus``) and JSON
    (``to_json``) exporters — so a metric any plane registers appears
    here with zero dashboard changes. One line per metric name with its
    type and series count; up to ``max_series_per_metric`` labelled
    series are itemized (counters/gauges by value, histograms by
    ``n/p50/p99``).
    """
    by_name: dict[str, list[tuple[dict[str, str], object]]] = {}
    for name, labels, metric in registry.collect():
        by_name.setdefault(name, []).append((labels, metric))
    lines: list[str] = []
    for name in sorted(by_name):
        series = sorted(
            by_name[name], key=lambda item: tuple(sorted(item[0].items()))
        )
        kind = (
            "counter"
            if isinstance(series[0][1], Counter)
            else "gauge"
            if isinstance(series[0][1], Gauge)
            else "histogram"
        )
        lines.append(f"{name} ({kind}, {len(series)} series)")
        for labels, metric in series[:max_series_per_metric]:
            label_text = _format_labels(labels) or "(no labels)"
            if isinstance(metric, LatencyHistogram):
                summary = metric.summary()
                lines.append(
                    f"  {label_text}: n={summary['count']:.0f} "
                    f"p50={summary['p50_s']:.6f}s p99={summary['p99_s']:.6f}s"
                )
            elif isinstance(metric, Gauge):
                lines.append(
                    f"  {label_text}: {metric.value} (peak {metric.peak})"
                )
            else:
                lines.append(f"  {label_text}: {metric.value}")
        if len(series) > max_series_per_metric:
            lines.append(f"  ... {len(series) - max_series_per_metric} more")
    if not lines:
        lines = ["no metrics registered"]
    return DashboardSection("telemetry", tuple(lines))


def services_section(root: "Service") -> DashboardSection:
    """Runtime health: one line per service under ``root``.

    ``root`` is any :class:`~repro.runtime.Service`; a
    :class:`~repro.runtime.ServiceGroup` nests its members' health
    records, which are flattened here in start order — the quickest
    answer to "what exactly is still running?".
    """
    lines: list[str] = []

    def walk(record: dict[str, object], depth: int) -> None:
        threads = record.get("threads")
        thread_text = f" threads={len(threads)}" if threads else ""  # type: ignore[arg-type]
        marker = "ok" if record.get("healthy") else "DOWN"
        lines.append(
            f"{'  ' * depth}{record['name']}: {record['state']} "
            f"[{marker}]{thread_text}"
        )
        for child in record.get("services", ()):  # type: ignore[union-attr]
            walk(child, depth + 1)

    walk(root.health(), 0)
    return DashboardSection("services", tuple(lines))


def render_dashboard(
    store: FeatureStore,
    log: AlertLog,
    embeddings: EmbeddingStore | None = None,
    now: float | None = None,
    gateway: "ServingGateway | None" = None,
    bus: "BusMetrics | None" = None,
    bus_consumer: "Consumer | None" = None,
    vectors: "VectorService | None" = None,
    registry: MetricsRegistry | None = None,
    services: "Service | None" = None,
) -> str:
    """Render the full status pane as one string."""
    sections = [
        alert_section(log),
        freshness_section(store, now=now),
    ]
    if embeddings is not None:
        sections.append(embedding_section(embeddings, store))
    if store.compiler_stats:
        sections.append(compiler_section(store))
    sections.append(model_section(store))
    if gateway is not None:
        sections.append(serving_section(gateway))
    if bus is not None:
        sections.append(bus_section(bus, consumer=bus_consumer))
    if vectors is not None:
        sections.append(vector_section(vectors))
    if registry is not None:
        sections.append(telemetry_section(registry))
    if services is not None:
        sections.append(services_section(services))
    return "\n\n".join(section.render() for section in sections)

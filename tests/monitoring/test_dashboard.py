"""Tests for repro.monitoring.dashboard."""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import (
    EmbeddingStore,
    Feature,
    FeatureSetSpec,
    FeatureStore,
    FeatureView,
    Provenance,
)
from repro.embeddings.base import EmbeddingMatrix
from repro.monitoring.dashboard import (
    alert_section,
    embedding_section,
    freshness_section,
    model_section,
    render_dashboard,
    services_section,
    telemetry_section,
)
from repro.monitoring.monitor import Alert, AlertLog
from repro.storage import TableSchema


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock(start=0.0))
    fs.create_source_table("raw", TableSchema(columns={"v": "float"}))
    fs.register_entity("e")
    fs.publish_view(
        FeatureView(
            name="view",
            source_table="raw",
            entity="e",
            features=(Feature("v", "float", ColumnRef("v")),),
            cadence=100.0,
        )
    )
    return fs


class TestAlertSection:
    def test_empty_log(self):
        section = alert_section(AlertLog())
        assert "no alerts" in section.render()

    def test_counts_and_recent(self):
        log = AlertLog()
        log.fire(Alert(1.0, "a", "drift", "m1", 1.0))
        log.fire(Alert(2.0, "b", "drift", "m2", 1.0))
        log.fire(Alert(3.0, "c", "null_rate", "m3", 1.0))
        text = alert_section(log, max_recent=2).render()
        assert "drift=2" in text
        assert "null_rate=1" in text
        assert "m3" in text  # most recent shown
        assert "m1" not in text  # truncated by max_recent


class TestFreshnessSection:
    def test_never_materialized_flagged(self, store):
        text = freshness_section(store).render()
        assert "NEVER MATERIALIZED" in text

    def test_fresh_view_ok(self, store):
        store.ingest("raw", [{"entity_id": 1, "timestamp": 0.0, "v": 1.0}])
        store.materialize("view", as_of=0.0)
        store.clock.advance(50.0)
        text = freshness_section(store).render()
        assert "[ok]" in text

    def test_stale_view_flagged(self, store):
        store.ingest("raw", [{"entity_id": 1, "timestamp": 0.0, "v": 1.0}])
        store.materialize("view", as_of=0.0)
        store.clock.advance(500.0)
        text = freshness_section(store).render()
        assert "[STALE]" in text


class TestEmbeddingSection:
    def test_consumer_pin_status(self, store):
        embeddings = EmbeddingStore(clock=store.clock)
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(vectors=rng.normal(size=(30, 4)))
        embeddings.register("emb", emb, Provenance(trainer="t"))
        store.create_feature_set(FeatureSetSpec(name="fs", features=("view:v",)))
        store.register_model(
            "consumer", model=None, feature_set="fs",
            embedding_versions={"emb": 1},
        )
        embeddings.register(
            "emb", EmbeddingMatrix(vectors=rng.normal(size=(30, 4))),
            Provenance(trainer="t", parent_version=1),
        )
        text = embedding_section(embeddings, store).render()
        assert "emb: v2" in text
        assert "pinned to v1" in text
        assert "BLOCKED" in text
        embeddings.mark_compatible("emb", 1, 2)
        text = embedding_section(embeddings, store).render()
        assert "compatible" in text


class TestRenderDashboard:
    def test_full_render(self, store):
        store.ingest("raw", [{"entity_id": 1, "timestamp": 0.0, "v": 1.0}])
        store.materialize("view", as_of=0.0)
        store.create_feature_set(FeatureSetSpec(name="fs", features=("view:v",)))
        store.register_model("m", model=None, feature_set="fs",
                             metrics={"acc": 0.91})
        log = AlertLog()
        log.fire(Alert(1.0, "raw.v", "drift", "psi high", 0.5))
        embeddings = EmbeddingStore(clock=store.clock)
        embeddings.register(
            "emb", EmbeddingMatrix(vectors=np.zeros((5, 2)) + 1.0),
            Provenance(trainer="t"),
        )
        text = render_dashboard(store, log, embeddings)
        for expected in ("alerts", "feature freshness", "embeddings",
                         "models", "m v1", "acc=0.910", "emb: v1"):
            assert expected in text

    def test_empty_world(self):
        fs = FeatureStore(clock=SimClock())
        text = render_dashboard(fs, AlertLog())
        assert "no feature views published" in text
        assert "no models registered" in text


class TestTelemetrySection:
    """The registry-driven pane: metrics any plane registers appear with
    zero dashboard changes, rendered deterministically."""

    def _registry(self):
        from repro.runtime import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("bus_produced_total").inc(12)
        lag0 = registry.gauge("bus_consumer_lag", partition="0")
        lag0.set(7)
        lag0.set(2)
        registry.gauge("bus_consumer_lag", partition="1").set(0)
        hist = registry.histogram("serving_latency_seconds", endpoint="read")
        for __ in range(10):
            hist.record(0.004)
        return registry

    def test_golden_render(self):
        """Deterministic golden snapshot of the full section."""
        section = telemetry_section(self._registry())
        assert section.title == "telemetry"
        text = section.render()
        expected_lines = (
            "bus_consumer_lag (gauge, 2 series)",
            "  {partition=0}: 2 (peak 7)",
            "  {partition=1}: 0 (peak 0)",
            "bus_produced_total (counter, 1 series)",
            "  (no labels): 12",
            "serving_latency_seconds (histogram, 1 series)",
        )
        for line in expected_lines:
            assert line in text, f"missing line: {line!r}"
        # Names render in sorted order.
        assert text.index("bus_consumer_lag") < text.index("bus_produced_total")
        assert text.index("bus_produced_total") < text.index(
            "serving_latency_seconds"
        )
        # Histogram series show count and quantiles.
        assert "n=10" in text
        assert "p50=" in text and "p99=" in text

    def test_series_overflow_is_elided(self):
        from repro.runtime import MetricsRegistry

        registry = MetricsRegistry()
        for shard in range(7):
            registry.counter("vecserve_shard_ops_total", shard=str(shard)).inc()
        text = telemetry_section(registry, max_series_per_metric=4).render()
        assert "(counter, 7 series)" in text
        assert "... 3 more" in text
        assert "{shard=6}" not in text

    def test_empty_registry(self):
        from repro.runtime import MetricsRegistry

        text = telemetry_section(MetricsRegistry()).render()
        assert "no metrics registered" in text


class TestServicesSection:
    def test_nested_group_renders_indented_tree(self):
        from repro.runtime import Service, ServiceGroup

        group = ServiceGroup(name="deployment")
        a = Service(name="bus")
        b = Service(name="gateway")
        group.add(a)
        group.add(b)
        group.start()
        text = services_section(group).render()
        lines = text.splitlines()
        assert any(line.startswith("deployment: running [ok]") for line in lines)
        assert "  bus: running [ok]" in lines
        assert "  gateway: running [ok]" in lines
        b.stop()  # degrade one member
        text = services_section(group).render()
        assert "  gateway: stopped [DOWN]" in text
        assert "deployment: running [DOWN]" in text  # unhealthy aggregate
        group.stop()
        text = services_section(group).render()
        assert "deployment: stopped [DOWN]" in text

    def test_thread_counts_surface(self):
        from repro.runtime import PeriodicTask, await_condition

        task = PeriodicTask(lambda: None, interval_s=0.005, name="sweeper")
        task.start()
        assert await_condition(lambda: task.ticks >= 1, timeout_s=2.0)
        text = services_section(task).render()
        assert "sweeper: running [ok] threads=1" in text
        task.stop()


class TestRenderDashboardRuntimePanes:
    def test_registry_and_services_panes_appended(self, store):
        from repro.runtime import MetricsRegistry, Service

        registry = MetricsRegistry()
        registry.counter("bus_produced_total").inc(3)
        root = Service(name="deployment")
        root.start()
        text = render_dashboard(
            store, AlertLog(), registry=registry, services=root
        )
        assert "| telemetry" in text
        assert "bus_produced_total (counter, 1 series)" in text
        assert "| services" in text
        assert "deployment: running [ok]" in text
        root.stop()

    def test_panes_absent_without_runtime_args(self, store):
        text = render_dashboard(store, AlertLog())
        assert "| telemetry" not in text
        assert "| services" not in text

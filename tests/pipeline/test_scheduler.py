"""Tests for repro.pipeline.scheduler."""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.core.feature_store import FeatureStore
from repro.core.feature_view import Feature, FeatureView
from repro.compiler import ColumnRef
from repro.errors import ValidationError
from repro.pipeline.scheduler import CadenceScheduler
from repro.storage.offline import TableSchema


def make_store():
    store = FeatureStore(clock=SimClock(start=0.0))
    store.create_source_table("raw", TableSchema(columns={"v": "float"}))
    store.register_entity("e")
    store.publish_view(
        FeatureView(
            name="view",
            source_table="raw",
            entity="e",
            features=(Feature("v", "float", ColumnRef("v")),),
            cadence=600.0,
        )
    )
    return store


def ingest_rows(store, n, start, spacing=10.0, value=1.0, entity=1):
    store.ingest(
        "raw",
        [
            {"entity_id": entity, "timestamp": start + i * spacing, "v": value}
            for i in range(n)
        ],
    )


class TestCadenceScheduler:
    def test_materializes_on_cadence(self):
        store = make_store()
        ingest_rows(store, 5, start=0.0)
        scheduler = CadenceScheduler(store, tick_seconds=600.0)
        report = scheduler.tick()
        assert report.materialized_views == ("view",)
        assert report.now == 600.0

    def test_not_due_view_skipped(self):
        store = make_store()
        ingest_rows(store, 5, start=0.0)
        scheduler = CadenceScheduler(store, tick_seconds=300.0)
        first = scheduler.tick()   # t=300: first materialization (never run)
        second = scheduler.tick()  # t=600: only 300s elapsed < cadence 600
        third = scheduler.tick()   # t=900: 600s elapsed -> due
        assert first.materialized_views == ("view",)
        assert second.materialized_views == ()
        assert third.materialized_views == ("view",)

    def test_freshness_alert_when_no_data(self):
        store = make_store()  # no rows ingested: view materializes nothing
        scheduler = CadenceScheduler(store, tick_seconds=600.0, staleness_factor=2.0)
        reports = scheduler.run(4)
        # After 2 * cadence with no materialized rows the monitor fires.
        assert len(scheduler.alert_log.of_kind("freshness")) >= 1
        assert sum(r.alerts_fired for r in reports) >= 1

    def test_no_freshness_alert_when_healthy(self):
        store = make_store()
        ingest_rows(store, 500, start=0.0, spacing=5.0)
        scheduler = CadenceScheduler(store, tick_seconds=600.0)
        scheduler.run(4)
        assert len(scheduler.alert_log.of_kind("freshness")) == 0

    def test_column_watch_detects_injected_drift(self):
        store = make_store()
        rng = np.random.default_rng(0)
        # Healthy data for the first 1200s...
        store.ingest(
            "raw",
            [
                {"entity_id": 1, "timestamp": float(i), "v": float(v)}
                for i, v in enumerate(rng.normal(0.0, 1.0, size=1200))
            ],
        )
        # ...then a hard mean shift.
        store.ingest(
            "raw",
            [
                {"entity_id": 1, "timestamp": 1200.0 + i, "v": float(v)}
                for i, v in enumerate(rng.normal(8.0, 1.0, size=1200))
            ],
        )
        scheduler = CadenceScheduler(store, tick_seconds=600.0)
        scheduler.watch_column("raw", "v", reference=rng.normal(0.0, 1.0, size=1000))
        reports = scheduler.run(4)  # covers 0..2400
        drift_alerts = scheduler.alert_log.of_kind("drift")
        assert drift_alerts
        # The drift fires only after the shift (timestamp > 1200).
        assert all(a.timestamp > 1200.0 for a in drift_alerts)
        assert reports[0].alerts_fired == 0

    def test_validation(self):
        store = make_store()
        with pytest.raises(ValidationError):
            CadenceScheduler(store, tick_seconds=0.0)
        with pytest.raises(ValidationError):
            CadenceScheduler(store, staleness_factor=1.0)
        with pytest.raises(ValidationError):
            CadenceScheduler(store).run(0)

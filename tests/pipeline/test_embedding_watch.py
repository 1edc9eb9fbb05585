"""Tests for CadenceScheduler.watch_embedding."""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import (
    EmbeddingStore,
    Feature,
    FeatureStore,
    FeatureView,
    Provenance,
)
from repro.embeddings.base import EmbeddingMatrix
from repro.pipeline.scheduler import CadenceScheduler
from repro.storage import TableSchema


@pytest.fixture
def world():
    clock = SimClock()
    store = FeatureStore(clock=clock)
    store.create_source_table("raw", TableSchema(columns={"v": "float"}))
    store.register_entity("e")
    store.publish_view(
        FeatureView(
            name="view",
            source_table="raw",
            entity="e",
            features=(Feature("v", "float", ColumnRef("v")),),
            cadence=100.0,
        )
    )
    store.ingest("raw", [{"entity_id": 1, "timestamp": 0.0, "v": 1.0}])
    embeddings = EmbeddingStore(clock=clock)
    rng = np.random.default_rng(0)
    base = EmbeddingMatrix(vectors=rng.normal(size=(60, 8)))
    embeddings.register("emb", base, Provenance(trainer="base"))
    scheduler = CadenceScheduler(store, tick_seconds=100.0)
    scheduler.watch_embedding(embeddings, "emb")
    return scheduler, embeddings, base


class TestEmbeddingWatch:
    def test_no_alert_without_updates(self, world):
        scheduler, __, __ = world
        scheduler.run(3)
        assert len(scheduler.alert_log.of_kind("embedding")) == 0

    def test_benign_update_silent(self, world):
        scheduler, embeddings, base = world
        embeddings.register(
            "emb",
            EmbeddingMatrix(vectors=base.vectors.copy()),
            Provenance(trainer="noop", parent_version=1),
        )
        scheduler.tick()
        assert len(scheduler.alert_log.of_kind("embedding")) == 0

    def test_drifting_update_alerts_once(self, world):
        scheduler, embeddings, base = world
        rng = np.random.default_rng(7)
        embeddings.register(
            "emb",
            EmbeddingMatrix(vectors=rng.normal(size=base.vectors.shape)),
            Provenance(trainer="retrain", parent_version=1),
        )
        scheduler.tick()
        alerts = scheduler.alert_log.of_kind("embedding")
        assert len(alerts) == 1
        assert "emb:v1->v2" in alerts[0].column
        # Re-ticking does not re-alert for the same version.
        scheduler.tick()
        assert len(scheduler.alert_log.of_kind("embedding")) == 1

    def test_multiple_updates_each_checked(self, world):
        scheduler, embeddings, base = world
        rng = np.random.default_rng(8)
        embeddings.register(
            "emb",
            EmbeddingMatrix(vectors=rng.normal(size=base.vectors.shape)),
            Provenance(trainer="retrain", parent_version=1),
        )
        embeddings.register(
            "emb",
            EmbeddingMatrix(vectors=rng.normal(size=base.vectors.shape)),
            Provenance(trainer="retrain", parent_version=2),
        )
        scheduler.tick()
        assert len(scheduler.alert_log.of_kind("embedding")) == 2

    def test_dim_change_skipped_without_error(self, world):
        scheduler, embeddings, base = world
        embeddings.register(
            "emb",
            EmbeddingMatrix(vectors=np.zeros((60, 16))),
            Provenance(trainer="redim", parent_version=1),
        )
        scheduler.tick()  # must not raise; displacement across dims undefined
        assert len(scheduler.alert_log.of_kind("embedding")) == 0

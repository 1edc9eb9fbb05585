"""Tests for FeatureStore.backfill and memory-constrained selection."""

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
from repro.errors import ValidationError
from repro.storage import TableSchema


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock())
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
    fs.ingest(
        "raw",
        [{"entity_id": 1, "timestamp": float(t), "v": float(t)} for t in range(0, 1000, 50)],
    )
    return fs


class TestBackfill:
    def test_runs_cover_the_range_at_cadence(self, store):
        results = store.backfill("view", start=100.0, end=500.0)
        assert [r.as_of for r in results] == [100.0, 200.0, 300.0, 400.0, 500.0]

    def test_custom_step(self, store):
        results = store.backfill("view", start=0.0, end=400.0, step=200.0)
        assert [r.as_of for r in results] == [0.0, 200.0, 400.0]

    def test_backfill_enables_point_in_time_history(self, store):
        store.backfill("view", start=100.0, end=900.0)
        store.create_feature_set(FeatureSetSpec(name="fs", features=("view:v",)))
        [row] = store.get_historical_features([(1, 450.0)], "fs")
        # Latest materialization <= 450 is as_of=400; latest event <= 400 is v=400.
        assert row["view@1:v"] == 400.0

    def test_late_data_corrected_by_backfill(self, store):
        store.backfill("view", start=100.0, end=900.0)
        store.create_feature_set(FeatureSetSpec(name="fs", features=("view:v",)))
        # A late-arriving correction lands at t=425 — newer than every raw
        # event visible to the as_of=500 snapshot's ColumnRef? No: t=450 and
        # t=500 exist. Use t=460: it becomes the latest event <= 475.
        store.ingest("raw", [{"entity_id": 1, "timestamp": 460.0, "v": -1.0}])
        # Before re-running, the old as_of=500 snapshot (built without the
        # late row... actually t=500 raw still wins there) — the snapshot a
        # label at t=470 sees is as_of=400, which predates the late row.
        [stale] = store.get_historical_features([(1, 470.0)], "fs")
        assert stale["view@1:v"] == 400.0
        # Backfill the affected window: the as_of=460 run sees the late row.
        store.backfill("view", start=460.0, end=460.0)
        [fixed] = store.get_historical_features([(1, 470.0)], "fs")
        assert fixed["view@1:v"] == -1.0

    def test_validation(self, store):
        with pytest.raises(ValidationError):
            store.backfill("view", start=500.0, end=100.0)
        with pytest.raises(ValidationError):
            store.backfill("view", start=0.0, end=100.0, step=0.0)


class TestMemoryConstrainedSelection:
    def test_budget_excludes_large_versions(self):
        store = EmbeddingStore(clock=SimClock())
        rng = np.random.default_rng(0)
        big = EmbeddingMatrix(vectors=rng.normal(size=(100, 64)))
        small = EmbeddingMatrix(vectors=rng.normal(size=(100, 8)))
        store.register("e", big, Provenance(trainer="big"))
        store.register("e", small, Provenance(trainer="small", parent_version=1))

        # Budget admits only the small version even though big scores higher.
        best, scores = store.select_version(
            "e",
            evaluate=lambda emb: float(emb.dim),  # favors the big one
            max_bytes=small.memory_bytes(),
        )
        assert best.version == 2
        assert set(scores) == {2}

    def test_impossible_budget_raises(self):
        store = EmbeddingStore(clock=SimClock())
        store.register(
            "e", EmbeddingMatrix(vectors=np.zeros((10, 4))), Provenance(trainer="t")
        )
        with pytest.raises(ValidationError):
            store.select_version("e", lambda emb: 0.0, max_bytes=1)

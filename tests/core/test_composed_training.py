"""Tests for FeatureStore.compose_with_embedding (tabular + embedding)."""

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
from repro.errors import CompatibilityError
from repro.storage import TableSchema


@pytest.fixture
def world():
    store = FeatureStore(clock=SimClock())
    store.create_source_table("raw", TableSchema(columns={"v": "float"}))
    store.register_entity("e")
    store.publish_view(
        FeatureView(
            name="view",
            source_table="raw",
            entity="e",
            features=(Feature("v", "float", ColumnRef("v")),),
        )
    )
    store.ingest(
        "raw",
        [{"entity_id": i, "timestamp": 10.0, "v": float(i)} for i in range(5)],
    )
    store.materialize("view", as_of=20.0)
    store.create_feature_set(FeatureSetSpec(name="fs", features=("view:v",)))

    embeddings = EmbeddingStore(clock=store.clock)
    vectors = np.arange(5 * 3, dtype=float).reshape(5, 3)
    embeddings.register("emb", EmbeddingMatrix(vectors), Provenance(trainer="t"))
    training = store.build_training_set(
        [(0, 30.0, 1.0), (3, 30.0, 0.0)], "fs"
    )
    return store, embeddings, training, vectors


class TestComposeWithEmbedding:
    def test_matrix_stacks_tabular_and_embedding(self, world):
        store, embeddings, training, vectors = world
        matrix, names = store.compose_with_embedding(training, embeddings, "emb", 1)
        assert matrix.shape == (2, 1 + 3)
        np.testing.assert_array_equal(matrix[:, 0], [0.0, 3.0])  # tabular v
        np.testing.assert_array_equal(matrix[0, 1:], vectors[0])
        np.testing.assert_array_equal(matrix[1, 1:], vectors[3])

    def test_feature_names_extended(self, world):
        store, embeddings, training, __ = world
        __, names = store.compose_with_embedding(training, embeddings, "emb", 1)
        assert names[0] == "view@1:v"
        assert names[1:] == ("emb@1[0]", "emb@1[1]", "emb@1[2]")

    def test_compatibility_enforced(self, world):
        store, embeddings, training, vectors = world
        rng = np.random.default_rng(0)
        embeddings.register(
            "emb",
            EmbeddingMatrix(rng.normal(size=vectors.shape)),
            Provenance(trainer="retrain", parent_version=1),
        )
        with pytest.raises(CompatibilityError):
            store.compose_with_embedding(training, embeddings, "emb", 1)
        # Explicitly pinned serve version still works.
        matrix, __ = store.compose_with_embedding(
            training, embeddings, "emb", 1, serve_version=1
        )
        assert matrix.shape == (2, 4)

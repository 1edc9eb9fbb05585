"""The stores emit operational logs on their mutating paths."""

import logging

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
from repro.storage import TableSchema


class TestOperationalLogging:
    def test_publish_and_materialize_logged(self, caplog):
        store = FeatureStore(clock=SimClock())
        store.create_source_table("raw", TableSchema(columns={"v": "float"}))
        store.register_entity("e")
        with caplog.at_level(logging.INFO, logger="repro.core.feature_store"):
            store.publish_view(
                FeatureView(
                    name="view",
                    source_table="raw",
                    entity="e",
                    features=(Feature("v", "float", ColumnRef("v")),),
                    cadence=60.0,
                )
            )
            store.ingest("raw", [{"entity_id": 1, "timestamp": 0.0, "v": 1.0}])
            store.materialize("view", as_of=10.0)
        messages = [record.message for record in caplog.records]
        assert any("published view view v1" in m for m in messages)
        assert any("materialized view v1" in m for m in messages)

    def test_embedding_registration_logged(self, caplog):
        store = EmbeddingStore(clock=SimClock())
        with caplog.at_level(logging.INFO, logger="repro.core.embedding_store"):
            store.register(
                "emb",
                EmbeddingMatrix(vectors=np.zeros((4, 2))),
                Provenance(trainer="unit"),
            )
        assert any(
            "registered embedding emb:v1" in record.message
            for record in caplog.records
        )

    def test_quiet_at_warning_level(self, caplog):
        store = FeatureStore(clock=SimClock())
        store.create_source_table("raw", TableSchema(columns={"v": "float"}))
        store.register_entity("e")
        with caplog.at_level(logging.WARNING):
            store.publish_view(
                FeatureView(
                    name="view",
                    source_table="raw",
                    entity="e",
                    features=(Feature("v", "float", ColumnRef("v")),),
                )
            )
        assert caplog.records == []

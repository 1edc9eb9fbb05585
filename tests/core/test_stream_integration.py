"""Integration: streaming features composed with the batch feature store."""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import Feature, FeatureSetSpec, FeatureStore, FeatureView
from repro.datagen.streams import StreamEvent
from repro.streaming import SlidingWindowAggregator, StreamFeature


def ev(ts, value, entity=1):
    return StreamEvent(timestamp=ts, entity_id=entity, value=value)


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock())
    fs.register_entity("user")
    return fs


class TestAttachStream:
    def test_provisions_namespace_and_log_table(self, store):
        store.attach_stream(
            "txn", [StreamFeature("m", SlidingWindowAggregator("mean", 60.0))]
        )
        assert "txn__stream" in store.online.namespaces()
        assert store.offline.has_table("__stream__txn")

    def test_stream_features_served_online(self, store):
        processor = store.attach_stream(
            "txn",
            [StreamFeature("mean_1m", SlidingWindowAggregator("mean", 60.0))],
            emit_interval=30.0,
        )
        processor.process([ev(1.0, 10.0), ev(20.0, 20.0)])
        [served] = store.get_stream_features("txn", [1])
        assert served["mean_1m"] == pytest.approx(15.0)
        assert store.get_stream_features("txn", [99]) == [None]

    def test_stream_log_feeds_batch_views(self, store):
        """The composition the docstring promises: stream log -> feature
        view -> point-in-time training set."""
        processor = store.attach_stream(
            "txn",
            [StreamFeature("mean_1m", SlidingWindowAggregator("mean", 60.0))],
            emit_interval=30.0,
        )
        processor.process(
            [ev(float(t), 10.0) for t in range(0, 200, 10)]
        )
        store.publish_view(
            FeatureView(
                name="txn_batch",
                source_table="__stream__txn",
                entity="user",
                features=(Feature("mean_1m", "float", ColumnRef("mean_1m")),),
                cadence=60.0,
            )
        )
        store.materialize("txn_batch", as_of=200.0)
        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("txn_batch:mean_1m",))
        )
        training = store.build_training_set([(1, 250.0, 1.0)], "fs")
        assert training.features.shape == (1, 1)
        assert not np.isnan(training.features[0, 0])
        assert training.features[0, 0] == pytest.approx(10.0, abs=0.5)

    def test_ttl_applies_to_stream_namespace(self, store):
        from repro.storage.online import FreshnessPolicy

        processor = store.attach_stream(
            "txn",
            [StreamFeature("m", SlidingWindowAggregator("mean", 60.0))],
            ttl=100.0,
        )
        processor.process([ev(1.0, 5.0)])
        store.clock.advance(1000.0)
        [served] = store.get_stream_features(
            "txn", [1], policy=FreshnessPolicy.RETURN_NONE
        )
        assert served is None

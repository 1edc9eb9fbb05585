"""Edge cases: feature-view republish + version pinning end to end.

The registry pins feature sets to view versions at creation; these tests
verify that a republished (changed) view cannot silently alter what pinned
feature sets — and the models serving from them — see.
"""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef, RowTransform
from repro.core import Feature, FeatureSetSpec, FeatureStore, FeatureView
from repro.storage import TableSchema
from repro.storage.online import FreshnessPolicy


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock())
    fs.create_source_table("raw", TableSchema(columns={"v": "float"}))
    fs.register_entity("e")
    fs.ingest("raw", [{"entity_id": 1, "timestamp": 10.0, "v": 7.0}])
    return fs


def view_v(transform, cadence=100.0, ttl=None):
    return FeatureView(
        name="view",
        source_table="raw",
        entity="e",
        features=(Feature("f", "float", transform),),
        cadence=cadence,
        ttl=ttl,
    )


class TestRepublishPinning:
    def test_pinned_set_keeps_old_definition(self, store):
        store.publish_view(view_v(ColumnRef("v")))  # v1: f = v
        store.create_feature_set(FeatureSetSpec(name="fs_old", features=("view:f",)))
        store.publish_view(view_v(RowTransform(lambda v: v * 100.0, ("v",))))  # v2
        store.create_feature_set(FeatureSetSpec(name="fs_new", features=("view:f",)))

        store.materialize("view", as_of=20.0, version=1)
        store.materialize("view", as_of=20.0, version=2)

        old = store.build_training_set([(1, 30.0, 0.0)], "fs_old")
        new = store.build_training_set([(1, 30.0, 0.0)], "fs_new")
        assert old.features[0, 0] == 7.0
        assert new.features[0, 0] == 700.0

    def test_models_pinned_through_feature_sets(self, store):
        store.publish_view(view_v(ColumnRef("v")))
        store.create_feature_set(FeatureSetSpec(name="fs_old", features=("view:f",)))
        store.register_model("m_old", model=None, feature_set="fs_old")
        store.publish_view(view_v(RowTransform(lambda v: v * 100.0, ("v",))))
        store.create_feature_set(FeatureSetSpec(name="fs_new", features=("view:f",)))
        store.register_model("m_new", model=None, feature_set="fs_new")

        store.materialize("view", as_of=20.0, version=1)
        store.materialize("view", as_of=20.0, version=2)

        old_served = store.serve_features_for_model("m_old", [1])
        new_served = store.serve_features_for_model("m_new", [1])
        assert old_served[0, 0] == 7.0
        assert new_served[0, 0] == 700.0

    def test_cadence_targets_latest_version_only(self, store):
        store.publish_view(view_v(ColumnRef("v")))
        store.publish_view(view_v(ColumnRef("v")))
        due = store.views_due(now=0.0)
        assert [v.version for v in due if v.name == "view"] == [2]


class TestServingFreshnessPolicy:
    def test_stale_values_dropped_under_return_none(self, store):
        store.publish_view(view_v(ColumnRef("v"), ttl=50.0))
        store.create_feature_set(FeatureSetSpec(name="fs", features=("view:f",)))
        store.register_model("m", model=None, feature_set="fs")
        store.materialize("view", as_of=20.0)
        store.clock.advance_to(2000.0)  # far beyond the 50s TTL

        lenient = store.serve_features_for_model("m", [1])
        strict = store.serve_features_for_model(
            "m", [1], policy=FreshnessPolicy.RETURN_NONE
        )
        assert lenient[0, 0] == 7.0
        assert np.isnan(strict[0, 0])

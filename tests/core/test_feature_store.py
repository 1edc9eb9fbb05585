"""Tests for repro.core.feature_store — including point-in-time correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.feature_store import FeatureStore
from repro.core.feature_view import Feature, FeatureSetSpec, FeatureView
from repro.compiler import ColumnRef, RowTransform, WindowAggregate
from repro.errors import ServingError, ValidationError
from repro.storage.offline import TableSchema
from repro.storage.online import FreshnessPolicy


def ride(entity, ts, fare, km=1.0):
    return {"entity_id": entity, "timestamp": ts, "fare": fare, "trip_km": km}


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock(start=0.0))
    fs.create_source_table(
        "raw_rides", TableSchema(columns={"fare": "float", "trip_km": "float"})
    )
    fs.register_entity("driver")
    return fs


def publish_basic_view(fs, **overrides):
    defaults = dict(
        name="rides",
        source_table="raw_rides",
        entity="driver",
        features=(
            Feature("last_fare", "float", ColumnRef("fare")),
            Feature(
                "fare_per_km",
                "float",
                RowTransform(lambda f, d: f / d, ("fare", "trip_km")),
            ),
            Feature("fare_sum_1h", "float", WindowAggregate("fare", "sum", 3600.0)),
        ),
        cadence=600.0,
        ttl=7200.0,
    )
    defaults.update(overrides)
    return fs.publish_view(FeatureView(**defaults))


class TestPublish:
    def test_publish_provisions_storage(self, store):
        view = publish_basic_view(store)
        assert store.offline.has_table(view.materialized_table)
        assert view.online_namespace in store.online.namespaces()

    def test_publish_rejects_undeclared_columns(self, store):
        with pytest.raises(ValidationError):
            publish_basic_view(
                store,
                features=(Feature("x", "float", ColumnRef("missing_col")),),
            )

    def test_publish_rejects_narrowed_dtype(self, store):
        # fare is a float column; an int feature over it fails at publish,
        # not at the first materialization's append
        with pytest.raises(ValidationError, match="widening"):
            publish_basic_view(
                store, features=(Feature("x", "int", ColumnRef("fare")),)
            )
        assert store.registry.view_names() == []

    def test_publish_rejects_window_over_string_column(self, store):
        store.create_source_table(
            "tagged", TableSchema(columns={"fare": "float", "tag": "string"})
        )
        with pytest.raises(ValidationError, match="numeric"):
            publish_basic_view(
                store,
                source_table="tagged",
                features=(
                    Feature("n", "float", WindowAggregate("tag", "count", 60.0)),
                ),
            )
        assert store.registry.view_names() == []

    def test_republish_creates_new_version_and_tables(self, store):
        v1 = publish_basic_view(store)
        v2 = publish_basic_view(store)
        assert (v1.version, v2.version) == (1, 2)
        assert store.offline.has_table(v1.materialized_table)
        assert store.offline.has_table(v2.materialized_table)


class TestMaterialize:
    def test_materializes_latest_values(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 20.0, km=2.0), ride(1, 20.0, 30.0, km=3.0)])
        result = store.materialize("rides", as_of=100.0)
        assert result.entities_written == 1
        [online] = store.get_online_features("rides", [1])
        assert online["last_fare"] == 30.0
        assert online["fare_per_km"] == pytest.approx(10.0)
        assert online["fare_sum_1h"] == 50.0

    def test_window_respects_as_of(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 20.0), ride(1, 5000.0, 99.0)])
        store.materialize("rides", as_of=100.0)
        [online] = store.get_online_features("rides", [1])
        # The ts=5000 event is in the future at as_of=100: invisible.
        assert online["last_fare"] == 20.0
        assert online["fare_sum_1h"] == 20.0

    def test_entity_without_events_skipped(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 20.0)])
        result = store.materialize("rides", as_of=100.0)
        assert result.entities_written == 1
        [missing] = store.get_online_features("rides", [2])
        assert missing is None

    def test_event_older_than_window_still_serves_columnref(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 20.0)])
        store.materialize("rides", as_of=10 * 3600.0)
        [online] = store.get_online_features("rides", [1])
        assert online["last_fare"] == 20.0
        assert online["fare_sum_1h"] is None  # empty window

    def test_materialize_writes_offline_history(self, store):
        view = publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 20.0)])
        store.materialize("rides", as_of=100.0)
        store.materialize("rides", as_of=200.0)
        table = store.offline.table(view.materialized_table)
        assert len(table) == 2

    def test_materialize_defaults_to_clock_now(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 20.0)])
        store.clock.advance(500.0)
        result = store.materialize("rides")
        assert result.as_of == 500.0

    def test_entity_filter(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 1.0, 1.0), ride(2, 2.0, 2.0)])
        result = store.materialize("rides", as_of=10.0, entity_ids=[2])
        assert result.entities_written == 1
        assert store.get_online_features("rides", [1]) == [None]

    def test_runs_are_recorded(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 1.0, 1.0)])
        store.materialize("rides", as_of=10.0)
        store.materialize("rides", as_of=20.0)
        runs = store.materialization_runs("rides")
        assert [r.as_of for r in runs] == [10.0, 20.0]


class TestCadence:
    def test_never_materialized_view_is_due(self, store):
        publish_basic_view(store, cadence=600.0)
        assert [v.name for v in store.views_due()] == ["rides"]

    def test_recent_run_not_due(self, store):
        publish_basic_view(store, cadence=600.0)
        store.ingest("raw_rides", [ride(1, 1.0, 1.0)])
        store.materialize("rides", as_of=0.0)
        assert store.views_due(now=100.0) == []
        assert [v.name for v in store.views_due(now=600.0)] == ["rides"]


class TestOnlineServing:
    def test_freshness_policy_applied(self, store):
        publish_basic_view(store, ttl=100.0)
        store.ingest("raw_rides", [ride(1, 0.0, 5.0)])
        store.materialize("rides", as_of=0.0)
        store.clock.advance(1000.0)
        [got] = store.get_online_features(
            "rides", [1], policy=FreshnessPolicy.RETURN_NONE
        )
        assert got is None


class TestTrainingSets:
    def test_point_in_time_join_uses_past_only(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 10.0)])
        store.materialize("rides", as_of=100.0)
        store.ingest("raw_rides", [ride(1, 150.0, 99.0)])
        store.materialize("rides", as_of=200.0)

        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("rides:last_fare",))
        )
        # Label at t=120: must see the as_of=100 row (fare 10), not 99.
        rows = store.get_historical_features([(1, 120.0)], "fs")
        assert rows[0]["rides@1:last_fare"] == 10.0
        # Label at t=250: sees the as_of=200 row.
        rows = store.get_historical_features([(1, 250.0)], "fs")
        assert rows[0]["rides@1:last_fare"] == 99.0

    def test_join_before_any_materialization_gives_none(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 10.0)])
        store.materialize("rides", as_of=100.0)
        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("rides:last_fare",))
        )
        rows = store.get_historical_features([(1, 50.0)], "fs")
        assert rows[0]["rides@1:last_fare"] is None

    def test_build_training_set_matrix(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 10.0), ride(2, 20.0, 40.0)])
        store.materialize("rides", as_of=100.0)
        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("rides:last_fare", "rides:fare_sum_1h"))
        )
        ts = store.build_training_set(
            [(1, 150.0, 1.0), (2, 150.0, 0.0), (3, 150.0, 1.0)], "fs"
        )
        assert ts.features.shape == (3, 2)
        assert ts.features[0, 0] == 10.0
        assert ts.features[1, 0] == 40.0
        assert np.isnan(ts.features[2]).all()  # entity 3 never seen
        np.testing.assert_array_equal(ts.labels, [1.0, 0.0, 1.0])
        assert ts.feature_names == ("rides@1:last_fare", "rides@1:fare_sum_1h")

    def test_dropna(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 10.0)])
        store.materialize("rides", as_of=100.0)
        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("rides:last_fare",))
        )
        ts = store.build_training_set([(1, 150.0, 1.0), (9, 150.0, 0.0)], "fs")
        clean = ts.dropna()
        assert len(clean) == 1
        assert clean.labels[0] == 1.0

    def test_string_features_rejected_in_training(self, store):
        store.create_source_table("s2", TableSchema(columns={"tag": "string"}))
        store.publish_view(
            FeatureView(
                name="tags",
                source_table="s2",
                entity="driver",
                features=(Feature("tag", "string", ColumnRef("tag")),),
            )
        )
        store.create_feature_set(FeatureSetSpec(name="fs2", features=("tags:tag",)))
        with pytest.raises(ValidationError):
            store.build_training_set([(1, 0.0, 0.0)], "fs2")

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0, max_value=1000, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        ),
        st.lists(
            st.floats(min_value=0, max_value=1500, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_property_no_feature_leakage(self, raw_events, label_times):
        """The joined last_fare must equal the max-timestamp raw fare at or
        before the latest materialization not after the label time."""
        fs = FeatureStore(clock=SimClock())
        fs.create_source_table("raw", TableSchema(columns={"fare": "float"}))
        fs.register_entity("e")
        fs.publish_view(
            FeatureView(
                name="v",
                source_table="raw",
                entity="e",
                features=(Feature("last_fare", "float", ColumnRef("fare")),),
            )
        )
        fs.ingest(
            "raw",
            [
                {"entity_id": e, "timestamp": ts, "fare": fare}
                for e, ts, fare in raw_events
            ],
        )
        mat_times = sorted({100.0, 500.0, 900.0})
        for m in mat_times:
            fs.materialize("v", as_of=m)
        fs.create_feature_set(FeatureSetSpec(name="fs", features=("v:last_fare",)))

        for label_time in label_times:
            eligible_mats = [m for m in mat_times if m <= label_time]
            for entity in {e for e, __, __ in raw_events}:
                [row] = fs.get_historical_features([(entity, label_time)], "fs")
                got = row["v@1:last_fare"]
                if not eligible_mats:
                    assert got is None
                    continue
                as_of = max(eligible_mats)
                visible = [
                    (ts, order, fare)
                    for order, (e, ts, fare) in enumerate(raw_events)
                    if e == entity and ts <= as_of
                ]
                if not visible:
                    assert got is None
                else:
                    # Tie-break on equal timestamps: last-appended wins
                    # (the store's documented upsert semantics).
                    assert got == max(visible)[2]


class TestModelIntegration:
    def test_register_model_links_lineage(self, store):
        publish_basic_view(store)
        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("rides:last_fare",))
        )
        record = store.register_model(
            "clf", model={"w": 1}, feature_set="fs", metrics={"acc": 0.9}
        )
        assert record.feature_set == "fs"
        assert store.registry.downstream_models(("table", "raw_rides")) == ["clf"]

    def test_serve_features_for_model(self, store):
        publish_basic_view(store)
        store.ingest("raw_rides", [ride(1, 10.0, 12.0)])
        store.materialize("rides", as_of=100.0)
        store.create_feature_set(
            FeatureSetSpec(name="fs", features=("rides:last_fare",))
        )
        store.register_model("clf", model=None, feature_set="fs")
        matrix = store.serve_features_for_model("clf", [1, 2])
        assert matrix[0, 0] == 12.0
        assert np.isnan(matrix[1, 0])

    def test_serve_without_feature_set_raises(self, store):
        store.models.register("naked", model=None)
        with pytest.raises(ServingError):
            store.serve_features_for_model("naked", [1])

    def test_serve_string_feature_rejected(self, store):
        store.create_source_table("s3", TableSchema(columns={"tag": "string"}))
        store.publish_view(
            FeatureView(
                name="tags3",
                source_table="s3",
                entity="driver",
                features=(Feature("tag", "string", ColumnRef("tag")),),
            )
        )
        store.create_feature_set(FeatureSetSpec(name="fs3", features=("tags3:tag",)))
        store.register_model("string_model", model=None, feature_set="fs3")
        with pytest.raises(ServingError):
            store.serve_features_for_model("string_model", [1])

"""Publish-time view/schema dtype validation (the schema mapper)."""

import pytest

from repro.clock import SimClock
from repro.compiler import (
    ColumnRef,
    WindowAggregate,
    check_declared_dtype,
    map_dtype,
    scan,
)
from repro.core import FeatureStore
from repro.core.feature_view import Feature, FeatureView
from repro.errors import NotRegisteredError, ValidationError

from tests.compiler.conftest import trip_rows, trip_schema


class TestMapDtype:
    def test_feature_dtypes_pass_through(self):
        assert map_dtype("float") == "float"
        assert map_dtype("int") == "int"
        assert map_dtype("string") == "string"

    def test_numpy_names_map(self):
        assert map_dtype("float64") == "float"
        assert map_dtype("float32") == "float"
        assert map_dtype("int32") == "int"
        assert map_dtype("uint8") == "int"
        assert map_dtype("bool") == "int"
        assert map_dtype("object") == "string"
        assert map_dtype("U16") == "string"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            map_dtype("decimal")

    def test_unmappable_kind_rejected(self):
        with pytest.raises(ValidationError):
            map_dtype("complex128")


class TestCheckDeclaredDtype:
    def test_exact_match_ok(self):
        check_declared_dtype("float", "float", context="f")
        check_declared_dtype("string", "string", context="f")

    def test_int_to_float_widening_ok(self):
        check_declared_dtype("float", "int", context="f")

    def test_float_to_int_narrowing_rejected(self):
        with pytest.raises(ValidationError, match="widening"):
            check_declared_dtype("int", "float", context="f")

    def test_string_numeric_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            check_declared_dtype("string", "float", context="f")
        with pytest.raises(ValidationError):
            check_declared_dtype("int", "string", context="f")

    def test_numpy_declared_name_normalized(self):
        check_declared_dtype("float64", "float", context="f")


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock(start=0.0))
    fs.register_entity("driver")
    fs.create_source_table("trips", trip_schema())
    fs.ingest("trips", trip_rows(n_rows=200, n_entities=10, seed=5))
    return fs


def trips_view(features, name="v"):
    return FeatureView(
        name=name, source_table="trips", entity="driver", features=features
    )


class TestPublishValidation:
    def test_publish_plan_infers_correct_dtypes(self, store):
        view = store.publish_plan(
            "stats",
            scan("trips").latest("city").window("tips", "mean", 3600.0),
            entity="driver",
        )
        assert {f.name: f.dtype for f in view.features} == {
            "city": "string",
            "tips_mean_3600s": "float",
        }

    def test_declared_dtype_mismatch_rejected(self, store):
        bad = trips_view(
            (
                Feature(
                    "fare_mean_3600s",
                    "string",  # the aggregate produces float
                    WindowAggregate("fare", "mean", 3600.0),
                ),
            )
        )
        with pytest.raises(ValidationError, match="dtype"):
            store.publish_view(bad)

    def test_narrowing_rejected(self, store):
        bad = trips_view((Feature("fare", "int", ColumnRef("fare")),))
        with pytest.raises(ValidationError, match="widening"):
            store.publish_view(bad)

    def test_widening_int_to_float_allowed(self, store):
        view = trips_view((Feature("tips", "float", ColumnRef("tips")),))
        assert store.publish_view(view).version == 1

    def test_failed_publish_allocates_no_version(self, store):
        bad = trips_view((Feature("fare", "int", ColumnRef("fare")),))
        with pytest.raises(ValidationError):
            store.publish_view(bad)
        with pytest.raises(NotRegisteredError):
            store.registry.view("v")
        # a corrected republish starts at version 1, not 2
        good = trips_view((Feature("fare", "float", ColumnRef("fare")),))
        assert store.publish_view(good).version == 1

    def test_publish_plan_view_carries_predicates_and_dtypes(self, store):
        plan = (
            scan("trips")
            .filter("fare", ">", 10.0)
            .window("fare", "mean", 3600.0)
            .latest("city")
        )
        view = store.publish_plan("stats", plan, entity="driver")
        assert view.predicates == plan.predicates
        assert {f.name: f.dtype for f in view.features} == {
            "fare_mean_3600s": "float",
            "city": "string",
        }
        assert view.input_columns() == {"fare", "city"}
        assert view.plan.explain() == plan.explain()

    def test_unknown_plan_column_rejected_at_publish(self, store):
        plan = scan("trips").latest("ghost")
        with pytest.raises(ValidationError):
            store.publish_plan("v", plan, entity="driver")

    def test_column_lineage_recorded(self, store):
        store.publish_plan(
            "stats",
            scan("trips").filter("city", "==", "nyc").latest("fare"),
            entity="driver",
        )
        lineage = store.registry.lineage
        assert lineage.has_edge(
            ("table", "trips"), ("column", "trips.fare")
        )
        assert lineage.has_edge(
            ("column", "trips.city"), ("view", "stats:v1")
        )
        store.registry.validate_acyclic()

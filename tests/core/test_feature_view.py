"""Tests for repro.core.feature_view."""

import pytest

from repro.core.feature_view import Feature, FeatureSetSpec, FeatureView
from repro.compiler import ColumnRef, RowTransform, WindowAggregate
from repro.errors import ValidationError
from repro.storage.query import Predicate


def make_view(**overrides):
    defaults = dict(
        name="rides",
        source_table="raw_rides",
        entity="driver",
        features=(
            Feature("fare", "float", ColumnRef("fare")),
            Feature("fare_per_km", "float", RowTransform(lambda f, d: f / d, ("fare", "trip_km"))),
            Feature("rides_1h", "float", WindowAggregate("fare", "count", 3600.0)),
        ),
    )
    defaults.update(overrides)
    return FeatureView(**defaults)


class TestFeature:
    def test_valid(self):
        f = Feature("fare", "float", ColumnRef("fare"))
        assert f.name == "fare"

    def test_invalid_name(self):
        with pytest.raises(ValidationError):
            Feature("not a name", "float", ColumnRef("x"))
        with pytest.raises(ValidationError):
            Feature("", "float", ColumnRef("x"))

    def test_invalid_dtype(self):
        with pytest.raises(ValidationError):
            Feature("x", "double", ColumnRef("x"))


class TestFeatureView:
    def test_feature_names(self):
        assert make_view().feature_names == ["fare", "fare_per_km", "rides_1h"]

    def test_requires_features(self):
        with pytest.raises(ValidationError):
            make_view(features=())

    def test_rejects_duplicate_feature_names(self):
        with pytest.raises(ValidationError):
            make_view(
                features=(
                    Feature("fare", "float", ColumnRef("fare")),
                    Feature("fare", "float", ColumnRef("fare")),
                )
            )

    def test_rejects_bad_cadence_and_ttl(self):
        with pytest.raises(ValidationError):
            make_view(cadence=0.0)
        with pytest.raises(ValidationError):
            make_view(ttl=-1.0)

    def test_input_columns_union(self):
        assert make_view().input_columns() == {"fare", "trip_km"}

    def test_storage_names_include_version(self):
        view = make_view().with_version(3)
        assert view.materialized_table == "__materialized__rides__v3"
        assert view.online_namespace == "rides__v3"

    def test_feature_lookup(self):
        view = make_view()
        assert view.feature("fare").dtype == "float"
        with pytest.raises(KeyError):
            view.feature("nope")

    def test_with_version_preserves_definition(self):
        view = make_view(owner="me", tags=("a",))
        v2 = view.with_version(2)
        assert v2.version == 2
        assert v2.owner == "me"
        assert v2.tags == ("a",)
        assert v2.features == view.features

    def test_with_version_keeps_predicates(self):
        view = make_view(predicates=(Predicate("fare", ">", 0.0),))
        v2 = view.with_version(2)
        assert v2.predicates == view.predicates
        assert v2.plan.predicates == view.predicates


class TestFeatureSetSpec:
    def test_valid(self):
        spec = FeatureSetSpec(name="s", features=("rides:fare", "rides:rides_1h"))
        assert spec.by_view() == {"rides": ["fare", "rides_1h"]}

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            FeatureSetSpec(name="s", features=())

    def test_rejects_unqualified_names(self):
        with pytest.raises(ValidationError):
            FeatureSetSpec(name="s", features=("fare",))

    def test_by_view_groups_across_views(self):
        spec = FeatureSetSpec(name="s", features=("a:x", "b:y", "a:z"))
        assert spec.by_view() == {"a": ["x", "z"], "b": ["y"]}

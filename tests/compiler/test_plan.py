"""Tests for the feature definition language (repro.compiler.plan)."""

import pytest

from repro.compiler import ColumnRef, scan
from repro.errors import ValidationError

from tests.compiler.conftest import trip_schema


class TestBuilder:
    def test_scan_returns_empty_plan(self):
        plan = scan("trips")
        assert plan.source_table == "trips"
        assert plan.features == ()
        assert plan.predicates == ()

    def test_builder_is_immutable(self):
        base = scan("trips")
        extended = base.latest("fare")
        assert base.features == ()
        assert [f.name for f in extended.features] == ["fare"]

    def test_divergent_extension(self):
        base = scan("trips").filter("fare", ">", 0.0)
        a = base.window("fare", "mean", 3600.0)
        b = base.latest("city")
        assert a.feature_names == ["fare_mean_3600s"]
        assert b.feature_names == ["city"]
        assert a.predicates == b.predicates

    def test_select_sugar(self):
        plan = scan("trips").select("fare", "city")
        assert plan.feature_names == ["fare", "city"]
        assert all(isinstance(f.op, ColumnRef) for f in plan.features)

    def test_window_default_name(self):
        plan = scan("trips").window("fare", "sum", 7200.0)
        assert plan.feature_names == ["fare_sum_7200s"]

    def test_duplicate_feature_name_rejected(self):
        plan = scan("trips").latest("fare")
        with pytest.raises(ValidationError):
            plan.latest("fare")

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValidationError):
            scan("trips").window("fare", "median", 3600.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValidationError):
            scan("trips").window("fare", "mean", 0.0)

    def test_unknown_predicate_op_rejected(self):
        with pytest.raises(ValidationError):
            scan("trips").filter("fare", "~=", 1.0)

    def test_derived_requires_inputs(self):
        with pytest.raises(ValidationError):
            scan("trips").derived("x", lambda: 1.0, inputs=())

    def test_empty_table_name_rejected(self):
        with pytest.raises(ValidationError):
            scan("")


class TestRequiredColumns:
    def test_union_of_features_and_predicates(self):
        plan = (
            scan("trips")
            .filter("city", "==", "nyc")
            .window("fare", "mean", 3600.0)
            .derived("per_km", lambda f, d: f / d, inputs=("fare", "distance"))
        )
        assert plan.required_columns() == {"city", "fare", "distance"}

    def test_max_window(self):
        plan = (
            scan("trips")
            .window("fare", "mean", 3600.0)
            .window("tips", "sum", 7200.0)
        )
        assert plan.max_window == 7200.0
        assert scan("trips").latest("fare").max_window is None


class TestBinding:
    def test_bind_attaches_schema(self):
        plan = scan("trips").latest("fare").bind(trip_schema())
        assert plan.is_bound
        assert plan.feature_schema() == {"fare": "float"}

    def test_bind_rejects_unknown_column(self):
        with pytest.raises(ValidationError, match="ghost"):
            scan("trips").latest("ghost").bind(trip_schema())

    def test_bind_rejects_featureless_plan(self):
        with pytest.raises(ValidationError, match="no features"):
            scan("trips").bind(trip_schema())

    def test_bind_rejects_window_on_string_column(self):
        with pytest.raises(ValidationError, match="numeric"):
            scan("trips").window("city", "count", 3600.0).bind(trip_schema())

    def test_bind_rejects_ordering_against_the_wrong_kind(self):
        plan = scan("trips").filter("city", ">=", 3).latest("fare")
        with pytest.raises(ValidationError, match="string column 'city'"):
            plan.bind(trip_schema())
        plan = scan("trips").filter("fare", "<", "10").latest("fare")
        with pytest.raises(ValidationError, match="float column 'fare'"):
            plan.bind(trip_schema())

    def test_filter_rejects_bad_value_shapes(self):
        with pytest.raises(ValidationError, match="compares one value"):
            scan("trips").filter("fare", "==", [1.0, 2.0])
        with pytest.raises(ValidationError, match="'in'"):
            scan("trips").filter("city", "in", "nyc")

    def test_unbound_feature_schema_raises(self):
        with pytest.raises(ValidationError, match="unbound"):
            scan("trips").latest("fare").feature_schema()

    def test_dtype_inference(self):
        plan = (
            scan("trips")
            .latest("city")
            .latest("tips")
            .window("tips", "mean", 3600.0, as_="tips_mean")
            .derived("per_km", lambda f, d: f / d, inputs=("fare", "distance"))
        ).bind(trip_schema())
        assert plan.feature_schema() == {
            "city": "string",
            "tips": "int",
            "tips_mean": "float",  # aggregates always produce floats
            "per_km": "float",
        }

    def test_implicit_columns_inferred(self):
        plan = scan("trips").latest("timestamp").latest("entity_id")
        bound = plan.bind(trip_schema())
        assert bound.feature_schema() == {"timestamp": "float", "entity_id": "int"}


class TestExplain:
    def test_logical_explain_lists_nodes(self):
        plan = (
            scan("trips")
            .filter("fare", ">", 10.0)
            .filter("city", "not_null")
            .window("fare", "mean", 3600.0)
        )
        text = plan.explain()
        assert "scan(trips)" in text
        assert "fare > 10.0" in text
        assert "city IS NOT NULL" in text
        assert "window(fare, mean, 3600s)" in text

    def test_physical_explain_shows_strategy(self, trips):
        no_predicates = scan("trips").latest("fare")
        assert "strategy=asof-index" in no_predicates.compile(trips).explain()

        masked = scan("trips").filter("fare", ">", 0.0).latest("fare")
        text = masked.compile(trips).explain()
        assert "strategy=shared-scan" in text
        assert "mask: fare > 0.0" in text

        membership = scan("trips").filter("city", "in", ["nyc"]).latest("fare")
        text = membership.compile(trips).explain()
        assert "strategy=shared-scan" in text
        assert "mask: city in ['nyc']" in text

    def test_physical_explain_shows_projection_pruning(self, trips):
        plan = scan("trips").latest("fare")
        text = plan.compile(trips).explain()
        assert "project: fare" in text
        assert "city" in text  # named among pruned columns

    def test_pushdown_reported(self, trips):
        plan = (
            scan("trips")
            .filter("timestamp", ">=", 86400.0)
            .filter("fare", ">", 0.0)
            .latest("fare")
        )
        compiled = plan.compile(trips)
        assert compiled.pushed_start == 86400.0
        assert "pushdown: 1 timestamp predicate(s)" in compiled.explain()

"""Tests for repro.core.registry."""

import pytest

from repro.core.feature_view import Feature, FeatureSetSpec, FeatureView
from repro.core.registry import EntityDef, FeatureRegistry
from repro.compiler import ColumnRef
from repro.errors import AlreadyRegisteredError, NotRegisteredError


def make_view(name="rides", entity="driver", feature_names=("fare",)):
    return FeatureView(
        name=name,
        source_table="raw",
        entity=entity,
        features=tuple(Feature(n, "float", ColumnRef(n)) for n in feature_names),
    )


@pytest.fixture
def registry():
    r = FeatureRegistry()
    r.register_entity(EntityDef(name="driver"))
    return r


class TestEntities:
    def test_register_and_get(self, registry):
        assert registry.entity("driver").name == "driver"
        assert registry.entity_names() == ["driver"]

    def test_duplicate_rejected(self, registry):
        with pytest.raises(AlreadyRegisteredError):
            registry.register_entity(EntityDef(name="driver"))

    def test_missing_raises(self, registry):
        with pytest.raises(NotRegisteredError):
            registry.entity("rider")


class TestViews:
    def test_publish_stamps_version(self, registry):
        v1 = registry.publish_view(make_view())
        v2 = registry.publish_view(make_view())
        assert v1.version == 1
        assert v2.version == 2

    def test_view_lookup_latest_and_pinned(self, registry):
        registry.publish_view(make_view(feature_names=("fare",)))
        registry.publish_view(make_view(feature_names=("fare", "tip")))
        assert registry.view("rides").version == 2
        assert registry.view("rides", 1).feature_names == ["fare"]

    def test_unknown_entity_rejected(self, registry):
        with pytest.raises(NotRegisteredError):
            registry.publish_view(make_view(entity="rider"))

    def test_missing_view_raises(self, registry):
        with pytest.raises(NotRegisteredError):
            registry.view("nope")
        registry.publish_view(make_view())
        with pytest.raises(NotRegisteredError):
            registry.view("rides", 5)

    def test_view_versions_listing(self, registry):
        registry.publish_view(make_view())
        registry.publish_view(make_view())
        assert [v.version for v in registry.view_versions("rides")] == [1, 2]
        with pytest.raises(NotRegisteredError):
            registry.view_versions("nope")


class TestFeatureSets:
    def test_create_pins_latest_version(self, registry):
        registry.publish_view(make_view())
        registry.publish_view(make_view())  # v2
        spec = registry.create_feature_set(
            FeatureSetSpec(name="s", features=("rides:fare",))
        )
        assert spec.features == ("rides@2:fare",)

    def test_explicit_version_pin(self, registry):
        registry.publish_view(make_view())
        registry.publish_view(make_view())
        spec = registry.create_feature_set(
            FeatureSetSpec(name="s", features=("rides@1:fare",))
        )
        assert spec.features == ("rides@1:fare",)

    def test_pin_survives_later_publishes(self, registry):
        registry.publish_view(make_view())
        registry.create_feature_set(FeatureSetSpec(name="s", features=("rides:fare",)))
        registry.publish_view(make_view(feature_names=("other",)))  # v2 drops fare
        resolved = registry.resolve_feature_set("s")
        assert [(v.version, f) for v, f in resolved] == [(1, "fare")]

    def test_unknown_feature_rejected(self, registry):
        registry.publish_view(make_view())
        with pytest.raises(KeyError):
            registry.create_feature_set(
                FeatureSetSpec(name="s", features=("rides:nope",))
            )

    def test_duplicate_name_rejected(self, registry):
        registry.publish_view(make_view())
        registry.create_feature_set(FeatureSetSpec(name="s", features=("rides:fare",)))
        with pytest.raises(AlreadyRegisteredError):
            registry.create_feature_set(
                FeatureSetSpec(name="s", features=("rides:fare",))
            )

    def test_missing_feature_set_raises(self, registry):
        with pytest.raises(NotRegisteredError):
            registry.feature_set("nope")


class TestLineage:
    def test_table_to_model_path(self, registry):
        registry.publish_view(make_view())
        registry.create_feature_set(FeatureSetSpec(name="s", features=("rides:fare",)))
        registry.link_model("clf", "s")
        assert registry.downstream_models(("table", "raw")) == ["clf"]
        assert registry.downstream_models(("view", "rides:v1")) == ["clf"]

    def test_embedding_to_model(self, registry):
        registry.publish_view(make_view())
        registry.create_feature_set(FeatureSetSpec(name="s", features=("rides:fare",)))
        registry.link_model("clf", "s")
        registry.link_embedding("driver_emb", "clf")
        assert registry.downstream_models(("embedding", "driver_emb")) == ["clf"]

    def test_upstream_sources(self, registry):
        registry.publish_view(make_view())
        registry.create_feature_set(FeatureSetSpec(name="s", features=("rides:fare",)))
        registry.link_model("clf", "s")
        ancestors = registry.upstream_sources("clf")
        assert ("table", "raw") in ancestors
        assert ("feature_set", "s") in ancestors

    def test_unknown_nodes_raise(self, registry):
        with pytest.raises(NotRegisteredError):
            registry.downstream_models(("table", "ghost"))
        with pytest.raises(NotRegisteredError):
            registry.upstream_sources("ghost")
        with pytest.raises(NotRegisteredError):
            registry.link_model("clf", "ghost_set")

    def test_lineage_is_acyclic(self, registry):
        registry.publish_view(make_view())
        registry.create_feature_set(FeatureSetSpec(name="s", features=("rides:fare",)))
        registry.link_model("clf", "s")
        registry.validate_acyclic()  # must not raise

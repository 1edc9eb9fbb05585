"""Feature registry: the centralized repository of reusable definitions.

Paper section 2.2: "Feature stores (FSs) arose to address these challenges
by providing a centralized repository of reusable features across the ML
pipeline". The registry owns:

* entity definitions (join keys),
* published feature views, **versioned** — republishing a changed view bumps
  the version rather than mutating history, which is what keeps old training
  sets reproducible,
* feature sets (version-pinned selections used to train models),
* a lineage DAG (networkx) from source tables through views and feature sets
  to models and embeddings, so impact analysis ("which models consume this
  feature?") is a graph traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.core.feature_view import FeatureSetSpec, FeatureView
from repro.errors import AlreadyRegisteredError, NotRegisteredError, ValidationError


@dataclass(frozen=True)
class EntityDef:
    """A business entity the store keys features by (e.g. driver, rider)."""

    name: str
    description: str = ""


class FeatureRegistry:
    """Versioned registry of entities, views and feature sets, with lineage."""

    def __init__(self) -> None:
        self._entities: dict[str, EntityDef] = {}
        self._views: dict[str, list[FeatureView]] = {}
        self._feature_sets: dict[str, FeatureSetSpec] = {}
        self._lineage = nx.DiGraph()

    # -- entities ---------------------------------------------------------

    def register_entity(self, entity: EntityDef) -> None:
        if entity.name in self._entities:
            raise AlreadyRegisteredError(f"entity {entity.name!r} already registered")
        self._entities[entity.name] = entity
        self._lineage.add_node(("entity", entity.name))

    def entity(self, name: str) -> EntityDef:
        if name not in self._entities:
            raise NotRegisteredError(
                f"no entity {name!r}; have {sorted(self._entities)}"
            )
        return self._entities[name]

    def entity_names(self) -> list[str]:
        return sorted(self._entities)

    # -- feature views ----------------------------------------------------

    def publish_view(self, view: FeatureView) -> FeatureView:
        """Publish (or republish) a view; returns the version-stamped copy.

        Republishing a view whose name already exists creates a new version;
        prior versions stay readable so existing feature sets and models
        keep their pinned definitions. Checking the definition against a
        source schema is the store's job
        (:meth:`~repro.core.FeatureStore.publish_view`), before it calls
        this.
        """
        if view.entity not in self._entities:
            raise NotRegisteredError(
                f"view {view.name!r} references unknown entity {view.entity!r}"
            )
        versions = self._views.setdefault(view.name, [])
        stamped = view.with_version(len(versions) + 1)
        versions.append(stamped)

        view_node = ("view", f"{stamped.name}:v{stamped.version}")
        table_node = ("table", stamped.source_table)
        self._lineage.add_node(view_node)
        self._lineage.add_node(table_node)
        self._lineage.add_edge(table_node, view_node)
        for column in sorted(stamped.input_columns()):
            column_node = ("column", f"{stamped.source_table}.{column}")
            self._lineage.add_edge(table_node, column_node)
            self._lineage.add_edge(column_node, view_node)
        for feature in stamped.features:
            feature_node = ("feature", f"{stamped.name}:v{stamped.version}:{feature.name}")
            self._lineage.add_edge(view_node, feature_node)
        return stamped

    def view(self, name: str, version: int | None = None) -> FeatureView:
        versions = self._views.get(name)
        if not versions:
            raise NotRegisteredError(f"no view {name!r}; have {sorted(self._views)}")
        if version is None:
            return versions[-1]
        if not 1 <= version <= len(versions):
            raise NotRegisteredError(
                f"view {name!r} has versions 1..{len(versions)}, not {version}"
            )
        return versions[version - 1]

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def view_versions(self, name: str) -> list[FeatureView]:
        if name not in self._views:
            raise NotRegisteredError(f"no view {name!r}")
        return list(self._views[name])

    # -- feature sets -----------------------------------------------------

    def create_feature_set(self, spec: FeatureSetSpec) -> FeatureSetSpec:
        """Register a feature set after resolving every selected feature.

        Resolution pins the *current latest* version of each referenced view
        by rewriting names to ``view@version:feature``.
        """
        if spec.name in self._feature_sets:
            raise AlreadyRegisteredError(f"feature set {spec.name!r} already exists")
        pinned: list[str] = []
        for qualified in spec.features:
            view_name, feature_name = qualified.split(":", 1)
            if "@" in view_name:
                view_name, version_text = view_name.split("@", 1)
                view = self.view(view_name, int(version_text))
            else:
                view = self.view(view_name)
            view.feature(feature_name)  # raises KeyError if absent
            pinned.append(f"{view.name}@{view.version}:{feature_name}")

        resolved = FeatureSetSpec(
            name=spec.name, features=tuple(pinned), description=spec.description
        )
        self._feature_sets[spec.name] = resolved

        set_node = ("feature_set", spec.name)
        self._lineage.add_node(set_node)
        for qualified in pinned:
            view_at, feature_name = qualified.split(":", 1)
            view_name, version_text = view_at.split("@", 1)
            feature_node = ("feature", f"{view_name}:v{version_text}:{feature_name}")
            self._lineage.add_edge(feature_node, set_node)
        return resolved

    def feature_set(self, name: str) -> FeatureSetSpec:
        if name not in self._feature_sets:
            raise NotRegisteredError(
                f"no feature set {name!r}; have {sorted(self._feature_sets)}"
            )
        return self._feature_sets[name]

    def feature_set_names(self) -> list[str]:
        return sorted(self._feature_sets)

    def resolve_feature_set(
        self, name: str
    ) -> list[tuple[FeatureView, str]]:
        """Resolve a feature set to ``(view, feature_name)`` pairs, pinned."""
        spec = self.feature_set(name)
        out: list[tuple[FeatureView, str]] = []
        for qualified in spec.features:
            view_at, feature_name = qualified.split(":", 1)
            view_name, version_text = view_at.split("@", 1)
            out.append((self.view(view_name, int(version_text)), feature_name))
        return out

    # -- lineage ----------------------------------------------------------

    def link_model(self, model_name: str, feature_set: str) -> None:
        """Record that a model trains on a feature set."""
        if feature_set not in self._feature_sets:
            raise NotRegisteredError(f"no feature set {feature_set!r}")
        self._lineage.add_edge(("feature_set", feature_set), ("model", model_name))

    def link_embedding(self, embedding_name: str, model_name: str) -> None:
        """Record that a model consumes an embedding."""
        self._lineage.add_edge(("embedding", embedding_name), ("model", model_name))

    @property
    def lineage(self) -> nx.DiGraph:
        """The lineage DAG (read it, don't mutate it)."""
        return self._lineage

    def downstream_models(self, node: tuple[str, str]) -> list[str]:
        """All model names reachable from a lineage node.

        Answers the paper's monitoring question: when this table / view /
        feature / embedding degrades, which deployed models are affected?
        """
        if node not in self._lineage:
            raise NotRegisteredError(f"lineage node {node!r} unknown")
        return sorted(
            name
            for kind, name in nx.descendants(self._lineage, node)
            if kind == "model"
        )

    def upstream_sources(self, model_name: str) -> list[tuple[str, str]]:
        """All lineage ancestors of a model (tables, views, features, sets)."""
        node = ("model", model_name)
        if node not in self._lineage:
            raise NotRegisteredError(f"model {model_name!r} not in lineage")
        return sorted(nx.ancestors(self._lineage, node))

    def validate_acyclic(self) -> None:
        """Lineage must be a DAG; cycles indicate a definition bug."""
        if not nx.is_directed_acyclic_graph(self._lineage):
            cycle = nx.find_cycle(self._lineage)
            raise ValidationError(f"lineage graph has a cycle: {cycle}")

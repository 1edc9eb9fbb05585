"""Feature views: published, versioned feature definitions.

Paper section 2.2.1: "feature stores allow for feature authoring and
publishing. Users provide simple definitional metadata, e.g., the feature
update cadence and a definition SQL query, and upload the definition to the
FS. When the underlying data changes, the FS orchestrates the updates to the
features based on the user-defined cadence."

A :class:`FeatureView` bundles: the source table, the entity join key, a set
of named :class:`Feature` definitions (each an operator from
:mod:`repro.compiler`), optional filter predicates, the update cadence, and
a freshness TTL for online serving. Its features and predicates *are* a
compiler :class:`~repro.compiler.Plan` (:attr:`FeatureView.plan`): the
store binds that plan at publish and runs it at every materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compiler import (
    FEATURE_DTYPES,
    ColumnRef,
    Plan,
    PlanFeature,
    RowTransform,
    WindowAggregate,
)
from repro.errors import ValidationError
from repro.storage.query import Predicate


@dataclass(frozen=True)
class Feature:
    """One named feature inside a view."""

    name: str
    dtype: str
    transform: ColumnRef | WindowAggregate | RowTransform
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValidationError(f"feature name must be an identifier ({self.name!r})")
        if self.dtype not in FEATURE_DTYPES:
            raise ValidationError(
                f"feature {self.name!r}: dtype {self.dtype!r} not in {FEATURE_DTYPES}"
            )


@dataclass(frozen=True)
class FeatureView:
    """A published group of features over one source table and entity.

    Attributes:
        name: view name, unique within the registry.
        source_table: offline table the definition reads.
        entity: the entity name this view is keyed by.
        features: the feature definitions.
        cadence: seconds between scheduled materialization runs.
        ttl: online freshness contract in seconds (None = never stale).
        owner / description / tags: the "definitional metadata" the paper
            says users publish alongside the query.
        version: assigned by the registry at publish time.
        predicates: filters every feature reads through (an event that
            fails one is invisible to the view).
    """

    name: str
    source_table: str
    entity: str
    features: tuple[Feature, ...]
    cadence: float = 3600.0
    ttl: float | None = None
    owner: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()
    version: int = 1
    predicates: tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        if not self.features:
            raise ValidationError(f"view {self.name!r} must define at least one feature")
        if self.cadence <= 0:
            raise ValidationError(f"cadence must be positive ({self.cadence=})")
        if self.ttl is not None and self.ttl <= 0:
            raise ValidationError(f"ttl must be positive or None ({self.ttl=})")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate feature names in view {self.name!r}: {names}")

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def materialized_table(self) -> str:
        """Name of the offline table holding this view's materialized rows."""
        return f"__materialized__{self.name}__v{self.version}"

    @property
    def online_namespace(self) -> str:
        """Name of the online-store namespace serving this view."""
        return f"{self.name}__v{self.version}"

    @property
    def plan(self) -> Plan:
        """The view's definition as an (unbound) compiler plan."""
        return Plan(
            source_table=self.source_table,
            predicates=self.predicates,
            features=tuple(PlanFeature(f.name, f.transform) for f in self.features),
        )

    def input_columns(self) -> set[str]:
        """Union of source columns read by all features (for lineage)."""
        out: set[str] = set()
        for feature in self.features:
            out.update(feature.transform.input_columns)
        out.update(
            p.column
            for p in self.predicates
            if p.column not in ("entity_id", "timestamp")
        )
        return out

    def feature(self, name: str) -> Feature:
        for feature in self.features:
            if feature.name == name:
                return feature
        raise KeyError(f"view {self.name!r} has no feature {name!r}")

    def with_version(self, version: int) -> "FeatureView":
        """Copy of this view stamped with a registry-assigned version."""
        return replace(self, version=version)


@dataclass(frozen=True)
class FeatureSetSpec:
    """A named selection of features across views — the unit models train on.

    ``features`` lists fully qualified names ``"view_name:feature_name"``.
    The registry resolves and version-pins them at creation time, which is
    what makes trained models reproducible (paper section 2.2.2).
    """

    name: str
    features: tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.features:
            raise ValidationError(f"feature set {self.name!r} selects no features")
        for qualified in self.features:
            if ":" not in qualified:
                raise ValidationError(
                    f"feature set {self.name!r}: {qualified!r} must be 'view:feature'"
                )

    def by_view(self) -> dict[str, list[str]]:
        """Group selected feature names by their view."""
        grouped: dict[str, list[str]] = {}
        for qualified in self.features:
            view, feature = qualified.split(":", 1)
            grouped.setdefault(view, []).append(feature)
        return grouped

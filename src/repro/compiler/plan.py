"""The declarative feature-plan language.

Feature views today are opaque Python callables; a :class:`Plan` makes the
definition *declarative* — a source table plus filter / select / window /
as-of-join / aggregate nodes — so the compiler, not the user, decides how
the pipeline physically runs (predicate pushdown, projection pruning,
shared-scan fusion across views).

A plan is built fluently, mirroring the protocol-driven feature-store
client shape::

    plan = (scan("trips")
            .filter("fare", ">", 0.0)
            .latest("city")
            .window("fare", "mean", 3600.0, as_="fare_mean_1h")
            .derived("fare_per_km", lambda f, d: f / d,
                     inputs=("fare", "distance")))

Plan semantics, evaluated per entity *as of* a timestamp ``t``:

* only source events with ``timestamp <= t`` that satisfy **every** filter
  participate; an entity with no matching event emits no row;
* ``latest(col)`` — the column value of the last matching event (ties on
  timestamp broken by insertion order, i.e. upsert semantics);
* ``window(col, agg, w)`` — ``agg`` over the non-NULL values of ``col``
  among matching events with ``t - w < timestamp <= t`` (empty window:
  ``count`` -> 0.0, everything else -> None);
* ``derived(name, fn, inputs)`` — ``fn`` over the latest matching event's
  input columns (None in -> None out).

:meth:`Plan.execute_rows` is the **reference row engine**: a plain scan +
per-row predicate match + the existing :mod:`repro.core.transforms`
evaluated per entity. It defines the semantics; the compiled paths
(:mod:`repro.compiler.compile`, :mod:`repro.compiler.executor`) are held
byte-identical to it by the parity suite.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.feature_view import Feature, FeatureView
from repro.core.transforms import (
    ColumnRef,
    RowTransform,
    Transformation,
    WindowAggregate,
    available_aggregations,
)
from repro.compiler.schema import check_declared_dtype, map_dtype
from repro.errors import ValidationError
from repro.storage.offline import OfflineTable, TableSchema
from repro.storage.query import Predicate

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.compiler.compile import CompiledPlan


def exclusive_end(as_of: float) -> float:
    """Smallest float strictly greater than ``as_of``.

    Scan ranges are half-open (``ts < end``) while as-of semantics are
    inclusive (``ts <= as_of``); ``nextafter`` converts exactly.
    """
    return float(np.nextafter(as_of, np.inf))


# -- feature operators ---------------------------------------------------------


@dataclass(frozen=True)
class Latest:
    """The column value of the latest matching event."""

    column: str

    @property
    def input_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def infer_dtype(self, schema: TableSchema) -> str:
        if self.column == "timestamp":
            return "float"
        if self.column == "entity_id":
            return "int"
        return schema.column_kind(self.column)

    def to_transform(self) -> Transformation:
        return ColumnRef(self.column)

    def describe(self) -> str:
        return f"latest({self.column})"


@dataclass(frozen=True)
class WindowAgg:
    """A trailing-window aggregate of one column (``t - window < ts <= t``)."""

    column: str
    agg: str
    window: float

    def __post_init__(self) -> None:
        if self.agg not in available_aggregations():
            raise ValidationError(
                f"unknown aggregation {self.agg!r}; "
                f"allowed: {available_aggregations()}"
            )
        if self.window <= 0:
            raise ValidationError(f"window must be positive ({self.window=})")

    @property
    def input_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def infer_dtype(self, schema: TableSchema) -> str:
        return "float"

    def to_transform(self) -> Transformation:
        return WindowAggregate(column=self.column, agg=self.agg, window=self.window)

    def describe(self) -> str:
        return f"window({self.column}, {self.agg}, {self.window:g}s)"


@dataclass(frozen=True)
class Derived:
    """A function of the latest matching event's input columns."""

    fn: Callable[..., float | int | str | None]
    inputs: tuple[str, ...]
    dtype: str = "float"

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValidationError("derived feature needs at least one input column")
        map_dtype(self.dtype)  # raises on unknown names

    @property
    def input_columns(self) -> tuple[str, ...]:
        return self.inputs

    def infer_dtype(self, schema: TableSchema) -> str:
        return map_dtype(self.dtype)

    def to_transform(self) -> Transformation:
        return RowTransform(fn=self.fn, inputs=self.inputs)

    def describe(self) -> str:
        name = getattr(self.fn, "__name__", "fn")
        return f"derived({name}: {', '.join(self.inputs)})"


FeatureOp = Latest | WindowAgg | Derived


@dataclass(frozen=True)
class PlanFeature:
    """One named output column of a plan."""

    name: str
    op: FeatureOp

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValidationError(
                f"plan feature name must be an identifier ({self.name!r})"
            )


# -- the plan ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Plan:
    """An immutable declarative feature pipeline over one source table.

    Builder methods return *new* plans; the original is never mutated, so
    a partially-built plan can be shared and extended divergently.
    """

    source_table: str
    predicates: tuple[Predicate, ...] = ()
    features: tuple[PlanFeature, ...] = ()
    schema: TableSchema | None = field(default=None)

    # -- builder ----------------------------------------------------------

    def filter(self, column: str, op: str, value: object = None) -> "Plan":
        """Keep only events matching the predicate (NULL never matches)."""
        predicate = Predicate(column=column, op=op, value=value)
        return replace(self, predicates=self.predicates + (predicate,))

    def latest(self, column: str, as_: str | None = None) -> "Plan":
        return self._with_feature(PlanFeature(as_ or column, Latest(column)))

    def select(self, *columns: str) -> "Plan":
        """Sugar: one :meth:`latest` feature per named column."""
        plan = self
        for column in columns:
            plan = plan.latest(column)
        return plan

    def window(
        self, column: str, agg: str, window: float, as_: str | None = None
    ) -> "Plan":
        name = as_ or f"{column}_{agg}_{int(window)}s"
        return self._with_feature(PlanFeature(name, WindowAgg(column, agg, window)))

    def derived(
        self,
        name: str,
        fn: Callable[..., float | int | str | None],
        inputs: Sequence[str],
        dtype: str = "float",
    ) -> "Plan":
        return self._with_feature(
            PlanFeature(name, Derived(fn=fn, inputs=tuple(inputs), dtype=dtype))
        )

    def _with_feature(self, feature: PlanFeature) -> "Plan":
        if any(f.name == feature.name for f in self.features):
            raise ValidationError(
                f"plan already defines a feature named {feature.name!r}"
            )
        return replace(self, features=self.features + (feature,))

    # -- introspection ----------------------------------------------------

    @property
    def is_bound(self) -> bool:
        return self.schema is not None

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def max_window(self) -> float | None:
        windows = [f.op.window for f in self.features if isinstance(f.op, WindowAgg)]
        return max(windows) if windows else None

    @property
    def has_latest_ops(self) -> bool:
        return any(isinstance(f.op, (Latest, Derived)) for f in self.features)

    def required_columns(self) -> set[str]:
        """Source columns the plan reads: feature inputs + predicate columns."""
        out: set[str] = set()
        for feature in self.features:
            out.update(feature.op.input_columns)
        for predicate in self.predicates:
            out.add(predicate.column)
        return out

    # -- binding & schema validation --------------------------------------

    def bind(self, schema: TableSchema) -> "Plan":
        """Attach the source schema, validating every referenced column."""
        if not self.features:
            raise ValidationError(
                f"plan over {self.source_table!r} defines no features"
            )
        known = set(schema.columns) | {"entity_id", "timestamp"}
        unknown = self.required_columns() - known
        if unknown:
            raise ValidationError(
                f"plan over {self.source_table!r} references columns "
                f"{sorted(unknown)} the table does not declare"
            )
        for predicate in self.predicates:
            predicate.check_kind(schema.column_kind(predicate.column))
        for feature in self.features:
            feature.op.infer_dtype(schema)  # raises on bad dtype names
            if isinstance(feature.op, WindowAgg):
                column = feature.op.column
                if column not in schema.columns or (
                    schema.column_kind(column) == "string"
                ):
                    raise ValidationError(
                        f"feature {feature.name!r}: window aggregates need a "
                        f"declared numeric column, got {column!r}"
                    )
        return replace(self, schema=schema)

    def feature_schema(self) -> dict[str, str]:
        """Inferred output dtype per feature (requires a bound plan)."""
        if self.schema is None:
            raise ValidationError("plan is unbound; call bind(schema) first")
        return {f.name: f.op.infer_dtype(self.schema) for f in self.features}

    def validate_view(self, view: FeatureView) -> None:
        """Check a view's declared feature dtypes against the compiled schema.

        Called by the registry at publish time; raises
        :class:`ValidationError` on any plan/schema dtype mismatch.
        """
        inferred = self.feature_schema()
        declared = {f.name: f.dtype for f in view.features}
        if set(declared) != set(inferred):
            raise ValidationError(
                f"view {view.name!r} declares features {sorted(declared)} but "
                f"its plan produces {sorted(inferred)}"
            )
        for name, dtype in declared.items():
            check_declared_dtype(
                dtype, inferred[name], context=f"view {view.name!r} feature {name!r}"
            )

    def to_view(
        self,
        name: str,
        entity: str,
        schema: TableSchema,
        cadence: float = 3600.0,
        ttl: float | None = None,
        owner: str = "",
        description: str = "",
        tags: tuple[str, ...] = (),
    ) -> FeatureView:
        """Lower the plan to a publishable :class:`FeatureView`.

        Feature dtypes come from the compiled schema inference; each
        feature also carries an equivalent row-at-a-time transform so
        non-compiled consumers (and the parity suite) can evaluate it.
        """
        bound = self.bind(schema)
        features = tuple(
            Feature(
                name=f.name,
                dtype=f.op.infer_dtype(schema),
                transform=f.op.to_transform(),
                description=f.op.describe(),
            )
            for f in bound.features
        )
        return FeatureView(
            name=name,
            source_table=self.source_table,
            entity=entity,
            features=features,
            cadence=cadence,
            ttl=ttl,
            owner=owner,
            description=description,
            tags=tags,
            plan=bound,
        )

    # -- explain ----------------------------------------------------------

    def explain(self) -> str:
        """Render the logical plan tree."""
        lines = [f"Plan: scan({self.source_table})"]
        for predicate in self.predicates:
            if predicate.op == "not_null":
                lines.append(f"  filter: {predicate.column} IS NOT NULL")
            else:
                lines.append(
                    f"  filter: {predicate.column} {predicate.op} {predicate.value!r}"
                )
        for feature in self.features:
            lines.append(f"  feature: {feature.name} = {feature.op.describe()}")
        if self.schema is not None:
            schema = self.feature_schema()
            lines.append(
                "  schema: "
                + ", ".join(f"{n}:{schema[n]}" for n in self.feature_names)
            )
        return "\n".join(lines)

    # -- execution --------------------------------------------------------

    def compile(self, table: OfflineTable) -> "CompiledPlan":
        """Lower onto the columnar kernels; the optimizer picks the strategy."""
        from repro.compiler.compile import compile_plan

        return compile_plan(self, table)

    def execute(
        self,
        table: OfflineTable,
        as_of: float,
        entity_ids: Sequence[int] | None = None,
    ) -> list[dict[str, object]]:
        """Compile and evaluate as of one timestamp (materialization shape)."""
        return self.compile(table).evaluate(as_of, entity_ids=entity_ids)

    def materialize_group(
        self,
        plans: "Sequence[Plan]",
        table: OfflineTable,
        as_of: float,
        entity_ids: Sequence[int] | None = None,
    ) -> tuple[list[list[dict[str, object]]], dict[str, int]]:
        """Fused execution of many plans over one table (one shared scan).

        Defined on the plan (rather than as a free function) so layers
        below the compiler — the feature store's ``materialize_many`` —
        can invoke fusion through the plan object without importing
        ``repro.compiler``.
        """
        from repro.compiler.executor import execute_fused

        return execute_fused(list(plans), table, as_of, entity_ids=entity_ids)

    # -- reference row engine ---------------------------------------------

    def matching_events(
        self,
        table: OfflineTable,
        as_of: float,
        entity_ids: Sequence[int] | None = None,
    ) -> dict[int, list[dict[str, object]]]:
        """Per-entity matching events (``ts <= as_of``), by full row scan."""
        wanted = None if entity_ids is None else set(entity_ids)
        events: dict[int, list[dict[str, object]]] = {}
        for row in table.scan(end=exclusive_end(as_of)):
            entity = int(row["entity_id"])  # type: ignore[arg-type]
            if wanted is not None and entity not in wanted:
                continue
            if all(p.matches(row) for p in self.predicates):
                events.setdefault(entity, []).append(row)
        return events

    def execute_rows(
        self,
        table: OfflineTable,
        as_of: float,
        entity_ids: Sequence[int] | None = None,
    ) -> list[dict[str, object]]:
        """The naive per-view scan: reference semantics and bench baseline."""
        candidates = (
            list(entity_ids) if entity_ids is not None else table.entity_ids()
        )
        events = self.matching_events(table, as_of, entity_ids=entity_ids)
        transforms = [(f.name, f.op.to_transform()) for f in self.features]
        out: list[dict[str, object]] = []
        for entity in candidates:
            entity_events = events.get(int(entity), [])
            if not entity_events:
                continue
            values: dict[str, object] = {
                name: transform.evaluate(entity_events, as_of)
                for name, transform in transforms
            }
            out.append({"entity_id": int(entity), "timestamp": as_of, **values})
        return out

    def execute_rows_at(
        self,
        table: OfflineTable,
        entity_ids: Sequence[int] | np.ndarray,
        timestamps: Sequence[float] | np.ndarray,
    ) -> list[dict[str, object]]:
        """Reference as-of join: one output row per ``(entity, ts)`` probe.

        Unlike the materialization shape, every probe emits a row; probes
        with no matching event get ``None`` for every feature (the
        training-join contract — never a value from the future).
        """
        eids = [int(e) for e in entity_ids]
        ts = [float(t) for t in timestamps]
        if len(eids) != len(ts):
            raise ValidationError(
                f"entity_ids and timestamps must align ({len(eids)} vs {len(ts)})"
            )
        transforms = [(f.name, f.op.to_transform()) for f in self.features]
        horizon = max(ts) if ts else 0.0
        events = self.matching_events(table, horizon, entity_ids=set(eids))
        out: list[dict[str, object]] = []
        for entity, t in zip(eids, ts):
            visible = [
                row
                for row in events.get(entity, [])
                if float(row["timestamp"]) <= t  # type: ignore[arg-type]
            ]
            row_out: dict[str, object] = {"entity_id": entity, "timestamp": t}
            for name, transform in transforms:
                row_out[name] = (
                    transform.evaluate(visible, t) if visible else None
                )
            out.append(row_out)
        return out


def scan(source_table: str) -> Plan:
    """Fluent entry point: ``scan("trips").filter(...).window(...)``."""
    if not source_table:
        raise ValidationError("source_table must be non-empty")
    return Plan(source_table=source_table)

"""The feature definition language: operators and plans.

A feature is a definition uploaded to the store (paper section 2.2.1),
and this module is its one vocabulary. Three operators name a feature's
value for one entity *as of* a timestamp ``t``:

* :class:`ColumnRef` — the column value of the latest matching event
  (ties on timestamp broken by insertion order, i.e. upsert semantics);
* :class:`WindowAggregate` — ``agg`` over the non-NULL values of a column
  among matching events with ``t - window < timestamp <= t`` (empty
  window: ``count`` -> 0.0, everything else -> None);
* :class:`RowTransform` — ``fn`` over the latest matching event's input
  columns (None in -> None out).

A :class:`Plan` is a source table plus filter predicates and named
operators, so the compiler, not the author, decides how the pipeline
physically runs (predicate pushdown, projection pruning, shared-scan
fusion across views). It is built fluently::

    plan = (scan("trips")
            .filter("fare", ">", 0.0)
            .latest("city")
            .window("fare", "mean", 3600.0, as_="fare_mean_1h")
            .derived("fare_per_km", lambda f, d: f / d,
                     inputs=("fare", "distance")))

Only source events with ``timestamp <= t`` that satisfy **every** filter
participate; an entity with no matching event emits no row.

Each operator's ``evaluate`` is its row reference, and
:meth:`Plan.execute_rows` is the **reference row engine** built on it: a
plain scan + per-row predicate match + ``evaluate`` per entity. It
defines the semantics; the compiled paths (:mod:`repro.compiler.compile`,
:mod:`repro.compiler.executor`) are held byte-identical to it by the
parity suite.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.compiler.schema import map_dtype
from repro.errors import ValidationError
from repro.storage.offline import OfflineTable, TableSchema
from repro.storage.query import Predicate

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.compiler.compile import CompiledPlan

_AGGREGATIONS: dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda v: float(np.mean(v)),
    "sum": lambda v: float(np.sum(v)),
    "min": lambda v: float(np.min(v)),
    "max": lambda v: float(np.max(v)),
    "std": lambda v: float(np.std(v)),
    "count": lambda v: float(len(v)),
    "last": lambda v: float(v[-1]),
}


def available_aggregations() -> list[str]:
    """Names of the supported window aggregation functions."""
    return sorted(_AGGREGATIONS)


def aggregate_fn(name: str) -> Callable[[np.ndarray], float]:
    """The aggregation callable behind ``name``.

    The row reference, the compiled window operators and the streaming
    aggregators all apply *this exact function* to float64 arrays, so
    their outputs stay byte-identical.
    """
    if name not in _AGGREGATIONS:
        raise ValidationError(
            f"unknown aggregation {name!r}; allowed: {sorted(_AGGREGATIONS)}"
        )
    return _AGGREGATIONS[name]


def exclusive_end(as_of: float) -> float:
    """Smallest float strictly greater than ``as_of``.

    Scan ranges are half-open (``ts < end``) while as-of semantics are
    inclusive (``ts <= as_of``); ``nextafter`` converts exactly.
    """
    return float(np.nextafter(as_of, np.inf))


# -- feature operators ---------------------------------------------------------
#
# ``evaluate`` receives an entity's time-sorted matching events with
# ``timestamp <= as_of`` (the caller enforces the point-in-time contract).


@dataclass(frozen=True)
class ColumnRef:
    """The raw column value from the entity's latest event."""

    column: str

    @property
    def input_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def evaluate(
        self, events: Sequence[dict[str, object]], as_of: float
    ) -> float | int | str | None:
        if not events:
            return None
        return events[-1].get(self.column)  # type: ignore[return-value]

    def infer_dtype(self, schema: TableSchema) -> str:
        if self.column == "timestamp":
            return "float"
        if self.column == "entity_id":
            return "int"
        return schema.column_kind(self.column)

    def describe(self) -> str:
        return f"latest({self.column})"


@dataclass(frozen=True)
class WindowAggregate:
    """A trailing-window aggregate of one column (``t - window < ts <= t``).

    NULL values are skipped; an empty window yields ``None`` (except
    ``count``, which yields 0.0).
    """

    column: str
    agg: str
    window: float

    def __post_init__(self) -> None:
        aggregate_fn(self.agg)  # raises on unknown names
        if self.window <= 0:
            raise ValidationError(f"window must be positive ({self.window=})")

    @property
    def input_columns(self) -> tuple[str, ...]:
        return (self.column,)

    def evaluate(
        self, events: Sequence[dict[str, object]], as_of: float
    ) -> float | None:
        lo = as_of - self.window
        values = [
            event[self.column]
            for event in events
            if lo < float(event["timestamp"]) <= as_of  # type: ignore[arg-type]
            and event.get(self.column) is not None
        ]
        if not values:
            return 0.0 if self.agg == "count" else None
        return _AGGREGATIONS[self.agg](np.asarray(values, dtype=float))

    def infer_dtype(self, schema: TableSchema) -> str:
        return "float"

    def describe(self) -> str:
        return f"window({self.column}, {self.agg}, {self.window:g}s)"


@dataclass(frozen=True)
class RowTransform:
    """A function of several columns of the entity's latest event.

    ``fn`` receives the column values positionally (matching ``inputs``);
    a NULL input yields ``None`` without calling it. Any exception ``fn``
    raises is a definition bug and propagates. ``dtype`` declares what
    ``fn`` returns.
    """

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

    def evaluate(
        self, events: Sequence[dict[str, object]], as_of: float
    ) -> float | int | str | None:
        if not events:
            return None
        latest = events[-1]
        args = [latest.get(column) for column in self.inputs]
        if any(a is None for a in args):
            return None
        return self.fn(*args)

    def infer_dtype(self, schema: TableSchema) -> str:
        return map_dtype(self.dtype)

    def describe(self) -> str:
        name = getattr(self.fn, "__name__", "fn")
        return f"derived({name}: {', '.join(self.inputs)})"


FeatureOp = ColumnRef | WindowAggregate | RowTransform


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
        return self._with_feature(PlanFeature(as_ or column, ColumnRef(column)))

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
        return self._with_feature(PlanFeature(name, WindowAggregate(column, agg, window)))

    def derived(
        self,
        name: str,
        fn: Callable[..., float | int | str | None],
        inputs: Sequence[str],
        dtype: str = "float",
    ) -> "Plan":
        return self._with_feature(
            PlanFeature(
                name, RowTransform(fn=fn, inputs=tuple(inputs), dtype=dtype)
            )
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
        windows = [
            f.op.window
            for f in self.features
            if isinstance(f.op, WindowAggregate)
        ]
        return max(windows) if windows else None

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
            if isinstance(feature.op, WindowAggregate):
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
        out: list[dict[str, object]] = []
        for entity in candidates:
            entity_events = events.get(int(entity), [])
            if not entity_events:
                continue
            values: dict[str, object] = {
                f.name: f.op.evaluate(entity_events, as_of)
                for f in self.features
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
            for f in self.features:
                row_out[f.name] = f.op.evaluate(visible, t) if visible else None
            out.append(row_out)
        return out


def scan(source_table: str) -> Plan:
    """Fluent entry point: ``scan("trips").filter(...).window(...)``."""
    if not source_table:
        raise ValidationError("source_table must be non-empty")
    return Plan(source_table=source_table)

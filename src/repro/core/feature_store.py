"""The feature store facade.

Ties together the registry, the dual datastore and the materializer into the
workflow the paper describes (section 2.2):

1. **author & publish** — :meth:`FeatureStore.publish_view` registers a
   versioned definition and provisions its offline table and online
   namespace;
2. **materialize** — :meth:`FeatureStore.materialize` compiles the view's
   plan (:mod:`repro.compiler`), evaluates it as of a timestamp and writes
   the results to *both* stores;
3. **train** — :meth:`FeatureStore.build_training_set` performs the
   point-in-time join of label events against materialized history, on
   the batched as-of kernels (one columnar path; the parity suite holds
   it to a row-at-a-time reference kept in the tests);
4. **serve** — :meth:`FeatureStore.get_online_features` reads the latest
   vectors with freshness enforcement.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.clock import Clock, SimClock
from repro.compiler import (
    Plan,
    check_declared_dtype,
    compile_plan,
    execute_fused,
    merge_stats,
)
from repro.core.feature_view import Feature, FeatureSetSpec, FeatureView
from repro.core.registry import EntityDef, FeatureRegistry
from repro.errors import ServingError, ValidationError
from repro.storage.models import ModelStore
from repro.storage.offline import OfflineStore, OfflineTable, TableSchema
from repro.storage.online import FreshnessPolicy, OnlineStore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MaterializationResult:
    """Summary of one materialization run."""

    view: str
    version: int
    as_of: float
    entities_written: int


@dataclass(frozen=True)
class TrainingSet:
    """A point-in-time-correct training dataset with provenance.

    ``features`` is an ``(n, d)`` float matrix (NaN where a feature had no
    value at the label's timestamp); ``feature_names`` are the pinned
    ``view@version:feature`` names; ``provenance`` records the feature set
    used so the model store can pin it.
    """

    features: np.ndarray
    labels: np.ndarray
    timestamps: np.ndarray
    entity_ids: np.ndarray
    feature_names: tuple[str, ...]
    feature_set: str

    def __len__(self) -> int:
        return len(self.labels)

    def dropna(self) -> "TrainingSet":
        """Rows where every feature is present."""
        keep = ~np.isnan(self.features).any(axis=1)
        return TrainingSet(
            features=self.features[keep],
            labels=self.labels[keep],
            timestamps=self.timestamps[keep],
            entity_ids=self.entity_ids[keep],
            feature_names=self.feature_names,
            feature_set=self.feature_set,
        )


@dataclass
class _ViewRuntime:
    """Book-keeping the store keeps per published view version."""

    view: FeatureView
    last_materialized: float | None = None
    runs: list[MaterializationResult] = field(default_factory=list)


class FeatureStore:
    """Centralized feature management (the paper's Part-1 system)."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or SimClock()
        self.registry = FeatureRegistry()
        self.offline = OfflineStore()
        self.online = OnlineStore(clock=self.clock)
        self.models = ModelStore(clock=self.clock)
        self._runtimes: dict[tuple[str, int], _ViewRuntime] = {}
        self._compiler_totals: dict[str, int] = {}

    # -- sources ------------------------------------------------------------

    def create_source_table(self, name: str, schema: TableSchema) -> OfflineTable:
        """Provision a raw event table features will be derived from."""
        return self.offline.create_table(name, schema)

    def ingest(self, table: str, rows: list[dict[str, object]]) -> int:
        """Append raw events to a source table."""
        return self.offline.table(table).append(rows)

    def attach_stream(
        self,
        name: str,
        features: list,
        ttl: float | None = None,
        emit_interval: float = 60.0,
    ):
        """Provision a streaming ingestion path bound to this store.

        Returns a :class:`repro.streaming.StreamProcessor` whose aggregates
        are served from this store's online store (namespace
        ``<name>__stream``) and logged to its offline store (table
        ``__stream__<name>``). The log table is a normal offline table, so
        a batch :class:`FeatureView` can be published over it to fold
        streaming features into point-in-time training sets — the paper's
        "persisted to the online store and logged to the offline store"
        (section 2.2.1), composed with the batch path.
        """
        from repro.streaming import StreamProcessor

        return StreamProcessor(
            features=features,
            online=self.online,
            offline=self.offline,
            namespace=f"{name}__stream",
            log_table=f"__stream__{name}",
            emit_interval=emit_interval,
            ttl=ttl,
        )

    def get_stream_features(
        self,
        name: str,
        entity_ids: list[int],
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
    ) -> list[dict[str, object] | None]:
        """Online lookup of a stream attached via :meth:`attach_stream`."""
        return self.online.read_many(f"{name}__stream", entity_ids, policy)

    # -- authoring & publishing ----------------------------------------------

    def register_entity(self, name: str, description: str = "") -> EntityDef:
        entity = EntityDef(name=name, description=description)
        self.registry.register_entity(entity)
        return entity

    def publish_view(self, view: FeatureView) -> FeatureView:
        """Publish a feature view and provision its storage.

        Binds the view's plan to the live source schema — every column it
        reads must be declared, window aggregates need numeric columns and
        predicates must fit their column's kind — and checks each declared
        feature dtype against what the compiler will produce. Any failure
        raises :class:`ValidationError` before a version is allocated, so a
        bad publish leaves no trace.
        """
        source = self.offline.table(view.source_table)
        produced = view.plan.bind(source.schema).feature_schema()
        for feature in view.features:
            check_declared_dtype(
                feature.dtype,
                produced[feature.name],
                context=f"view {view.name!r} feature {feature.name!r}",
            )
        stamped = self.registry.publish_view(view)
        feature_columns = {f.name: f.dtype for f in stamped.features}
        self.offline.create_table(
            stamped.materialized_table, TableSchema(columns=feature_columns)
        )
        self.online.create_namespace(stamped.online_namespace, ttl=stamped.ttl)
        self._runtimes[(stamped.name, stamped.version)] = _ViewRuntime(view=stamped)
        logger.info(
            "published view %s v%d (%d features, cadence %.0fs)",
            stamped.name, stamped.version, len(stamped.features), stamped.cadence,
        )
        return stamped

    def publish_plan(
        self,
        name: str,
        plan: Plan,
        entity: str,
        cadence: float = 3600.0,
        ttl: float | None = None,
        owner: str = "",
        description: str = "",
        tags: tuple[str, ...] = (),
    ) -> FeatureView:
        """Publish a declarative plan (``repro.compiler``) as a feature view.

        Each feature's dtype is the one the compiler infers from the live
        source schema; the view then goes through the normal
        :meth:`publish_view` validation and provisioning.
        """
        source = self.offline.table(plan.source_table)
        produced = plan.bind(source.schema).feature_schema()
        view = FeatureView(
            name=name,
            source_table=plan.source_table,
            entity=entity,
            features=tuple(
                Feature(f.name, produced[f.name], f.op, f.op.describe())
                for f in plan.features
            ),
            cadence=cadence,
            ttl=ttl,
            owner=owner,
            description=description,
            tags=tags,
            predicates=plan.predicates,
        )
        return self.publish_view(view)

    # -- materialization ------------------------------------------------------

    def materialize(
        self,
        view_name: str,
        as_of: float | None = None,
        version: int | None = None,
        entity_ids: list[int] | None = None,
    ) -> MaterializationResult:
        """Evaluate a view's features as of a timestamp, into both stores.

        Compile, evaluate, commit: the compiler picks the physical strategy
        (asof-index / shared-scan) and reports what it saved in
        :attr:`compiler_stats`. Only entities with at least one matching
        source event at or before ``as_of`` receive a row. Feature rows are
        timestamped ``as_of``, which is what point-in-time training joins
        key on.
        """
        view = self.registry.view(view_name, version)
        as_of = self.clock.now() if as_of is None else float(as_of)
        compiled = compile_plan(view.plan, self.offline.table(view.source_table))
        rows = compiled.evaluate(as_of, entity_ids=entity_ids)
        merge_stats(self._compiler_totals, {"views_compiled": 1, **compiled.stats})
        return self._commit_materialization(view, as_of, rows)

    def _commit_materialization(
        self,
        view: FeatureView,
        as_of: float,
        rows: list[dict[str, object]],
    ) -> MaterializationResult:
        """Write finished feature rows to both stores and record the run.

        Shared tail of a single and a fused materialization: one bulk
        append to the materialized table, per-entity online upserts,
        runtime bookkeeping.
        """
        runtime = self._runtimes[(view.name, view.version)]
        target = self.offline.table(view.materialized_table)
        if rows:
            target.append(rows)
        feature_names = view.feature_names
        for row in rows:
            values = {name: row[name] for name in feature_names}
            self.online.write(
                view.online_namespace, row["entity_id"], values, event_time=as_of
            )
        result = MaterializationResult(
            view=view.name,
            version=view.version,
            as_of=as_of,
            entities_written=len(rows),
        )
        runtime.last_materialized = as_of
        runtime.runs.append(result)
        logger.info(
            "materialized %s v%d as_of=%.0f: %d entities",
            view.name, view.version, as_of, len(rows),
        )
        return result

    def materialize_many(
        self,
        view_names: list[str],
        as_of: float | None = None,
    ) -> list[MaterializationResult]:
        """Materialize several views at once, fusing shared scans.

        Views reading the same source table become one fusion group: a
        single physical scan feeds every member's operators
        (``scans_saved`` grows by N-1 per group); a view alone on its table
        runs its compiled strategy. Results come back in input order and
        are identical to per-view materialization.
        """
        as_of = self.clock.now() if as_of is None else float(as_of)
        views = [self.registry.view(name) for name in view_names]
        groups: dict[str, list[int]] = {}
        for position, view in enumerate(views):
            groups.setdefault(view.source_table, []).append(position)

        results: dict[int, MaterializationResult] = {}
        for table_name, members in groups.items():
            rows_per_plan, stats = execute_fused(
                [views[p].plan for p in members],
                self.offline.table(table_name),
                as_of,
            )
            merge_stats(self._compiler_totals, stats)
            for position, rows in zip(members, rows_per_plan):
                results[position] = self._commit_materialization(
                    views[position], as_of, rows
                )
        return [results[position] for position in range(len(views))]

    @property
    def compiler_stats(self) -> dict[str, int]:
        """Cumulative pipeline-compiler accounting (empty before the first
        materialization): views compiled, fusion groups, scans saved,
        rows scanned vs. pruned, columns decoded vs. pruned."""
        return dict(self._compiler_totals)

    def backfill(
        self,
        view_name: str,
        start: float,
        end: float,
        version: int | None = None,
        step: float | None = None,
    ) -> list[MaterializationResult]:
        """Materialize a historical range at the view's cadence.

        The orchestration path for "when the underlying data changes"
        (section 2.2.1): after late-arriving data or a view republish, the
        offline history must be regenerated so point-in-time training joins
        see the corrected values. Runs at ``start, start+step, ...`` up to
        and including ``end`` (``step`` defaults to the view's cadence).

        Note the online store is only effectively updated by the *last* run
        (its last-event-time-wins upsert ignores the older snapshots).
        """
        if end < start:
            raise ValidationError(f"backfill range reversed ({start=}, {end=})")
        view = self.registry.view(view_name, version)
        step = view.cadence if step is None else float(step)
        if step <= 0:
            raise ValidationError(f"step must be positive ({step=})")
        results = []
        as_of = start
        while as_of <= end:
            results.append(
                self.materialize(view_name, as_of=as_of, version=view.version)
            )
            as_of += step
        return results

    def materialization_runs(
        self, view_name: str, version: int | None = None
    ) -> list[MaterializationResult]:
        view = self.registry.view(view_name, version)
        return list(self._runtimes[(view.name, view.version)].runs)

    def views_due(self, now: float | None = None) -> list[FeatureView]:
        """Latest view versions whose cadence says they should re-materialize.

        The FS "orchestrates the updates to the features based on the
        user-defined cadence" (section 2.2.1); the pipeline scheduler calls
        this every tick.
        """
        now = self.clock.now() if now is None else now
        due = []
        for name in self.registry.view_names():
            view = self.registry.view(name)
            runtime = self._runtimes[(view.name, view.version)]
            last = runtime.last_materialized
            if last is None or now - last >= view.cadence:
                due.append(view)
        return due

    # -- serving ---------------------------------------------------------------

    def get_online_features(
        self,
        view_name: str,
        entity_ids: list[int],
        version: int | None = None,
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
    ) -> list[dict[str, object] | None]:
        """Low-latency lookup of the latest feature vectors."""
        view = self.registry.view(view_name, version)
        return self.online.read_many(view.online_namespace, entity_ids, policy)

    # -- training sets -----------------------------------------------------------

    def create_feature_set(self, spec: FeatureSetSpec) -> FeatureSetSpec:
        return self.registry.create_feature_set(spec)

    def _as_of_hits(
        self,
        resolved: list[tuple[FeatureView, str]],
        entity_ids: np.ndarray,
        timestamps: np.ndarray,
    ) -> list[tuple[OfflineTable, np.ndarray]]:
        """Per resolved feature: its materialized table and as-of hit rows.

        One batched as-of kernel call per *view* resolves every probe's
        latest row at or before its timestamp (-1 for none); the view's
        features all share that hit row.
        """
        hits: dict[tuple[str, int], tuple[OfflineTable, np.ndarray]] = {}
        out = []
        for view, __ in resolved:
            key = (view.name, view.version)
            if key not in hits:
                table = self.offline.table(view.materialized_table)
                hits[key] = (
                    table,
                    table.latest_before_index_batch(entity_ids, timestamps),
                )
            out.append(hits[key])
        return out

    def get_historical_features(
        self,
        entity_events: list[tuple[int, float]],
        feature_set: str,
    ) -> list[dict[str, object]]:
        """Point-in-time join: feature values as each event's timestamp saw them.

        For every ``(entity_id, timestamp)`` pair, each selected feature is
        read from the *latest materialized row at or before* the timestamp —
        never from the future: one batched as-of kernel call per view, then
        a value gather per feature column.
        """
        resolved = self.registry.resolve_feature_set(feature_set)
        n = len(entity_events)
        hits = self._as_of_hits(
            resolved,
            np.fromiter((e for e, __ in entity_events), np.int64, count=n),
            np.fromiter((t for __, t in entity_events), np.float64, count=n),
        )
        columns = [
            (f"{view.name}@{view.version}:{name}", table.gather_values(name, indices))
            for (view, name), (table, indices) in zip(resolved, hits)
        ]
        out = []
        for i, (entity_id, timestamp) in enumerate(entity_events):
            row: dict[str, object] = {"entity_id": entity_id, "timestamp": timestamp}
            for qualified, values in columns:
                row[qualified] = values[i]
            out.append(row)
        return out

    def build_training_set(
        self,
        labels: list[tuple[int, float, float]],
        feature_set: str,
    ) -> TrainingSet:
        """Join labels ``(entity_id, timestamp, label)`` against history.

        Non-numeric features are rejected — training matrices are float.
        The matrix is assembled column by column: one batched as-of kernel
        call per view resolves every label's hit row, and each feature
        column is a direct numpy gather (NaN where a feature had no value at
        the label's timestamp).
        """
        resolved = self.registry.resolve_feature_set(feature_set)
        for view, feature_name in resolved:
            dtype = view.feature(feature_name).dtype
            if dtype == "string":
                raise ValidationError(
                    f"feature {view.name}:{feature_name} is a string; training "
                    "sets require numeric features"
                )
        names = tuple(
            f"{view.name}@{view.version}:{feature_name}"
            for view, feature_name in resolved
        )
        n = len(labels)
        hits = self._as_of_hits(
            resolved,
            np.fromiter((e for e, __, __ in labels), np.int64, count=n),
            np.fromiter((t for __, t, __ in labels), np.float64, count=n),
        )
        matrix = np.full((n, len(names)), np.nan)
        for j, ((__, name), (table, indices)) in enumerate(zip(resolved, hits)):
            matrix[:, j] = table.gather_float(name, indices)
        return TrainingSet(
            features=matrix,
            labels=np.array([label for __, __, label in labels]),
            timestamps=np.array([t for __, t, __ in labels]),
            entity_ids=np.array([e for e, __, __ in labels], dtype=np.int64),
            feature_names=names,
            feature_set=feature_set,
        )

    # -- embedding-enhanced training sets ------------------------------------

    @staticmethod
    def compose_with_embedding(
        training: TrainingSet,
        embedding_store,
        name: str,
        pinned_version: int,
        serve_version: int | None = None,
    ) -> tuple[np.ndarray, tuple[str, ...]]:
        """Append an entity embedding's rows to a training matrix.

        The paper's "embedding enhanced feature store" (section 4) serves
        tabular features and embeddings side by side; this composes both
        into one ``(n, d_tabular + d_embedding)`` matrix, pulling vectors
        through the embedding store's compatibility-checked path. Returns
        the matrix and the extended feature-name tuple (embedding columns
        are named ``<name>@<version>[j]``).
        """
        vectors = embedding_store.vectors_for_model(
            name, pinned_version, training.entity_ids, serve_version=serve_version
        )
        matrix = np.hstack([training.features, vectors])
        version = serve_version if serve_version is not None else pinned_version
        embedding_names = tuple(
            f"{name}@{version}[{j}]" for j in range(vectors.shape[1])
        )
        return matrix, training.feature_names + embedding_names

    # -- models ------------------------------------------------------------------

    def register_model(
        self,
        name: str,
        model: object,
        feature_set: str,
        metrics: dict[str, float] | None = None,
        hyperparameters: dict[str, object] | None = None,
        embedding_versions: dict[str, int] | None = None,
    ):
        """Store a trained model and wire its lineage to the feature set."""
        self.registry.feature_set(feature_set)  # must exist
        record = self.models.register(
            name,
            model,
            metrics=metrics,
            hyperparameters=hyperparameters,
            feature_set=feature_set,
            embedding_versions=embedding_versions,
        )
        self.registry.link_model(name, feature_set)
        for embedding_name in (embedding_versions or {}):
            self.registry.link_embedding(embedding_name, name)
        return record

    def serve_features_for_model(
        self,
        model_name: str,
        entity_ids: list[int],
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
    ) -> np.ndarray:
        """Assemble the online feature matrix a deployed model expects.

        Reads each pinned feature of the model's feature set from the online
        store under the given freshness ``policy``; missing or stale-dropped
        values become NaN (callers impute or reject).
        """
        record = self.models.get(model_name)
        if record.feature_set is None:
            raise ServingError(f"model {model_name!r} has no pinned feature set")
        resolved = self.registry.resolve_feature_set(record.feature_set)
        for view, feature_name in resolved:
            if view.feature(feature_name).dtype == "string":
                raise ServingError(
                    f"feature {view.name}:{feature_name} is a string; model "
                    "feature matrices are numeric"
                )
        matrix = np.full((len(entity_ids), len(resolved)), np.nan)
        for j, (view, feature_name) in enumerate(resolved):
            vectors = self.online.read_many(view.online_namespace, entity_ids, policy)
            for i, values in enumerate(vectors):
                if values is not None and values.get(feature_name) is not None:
                    matrix[i, j] = float(values[feature_name])  # type: ignore[arg-type]
        return matrix

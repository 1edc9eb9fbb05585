"""repro: an embedding-enhanced feature store.

A complete, laptop-scale reproduction of the system envisioned in
"Managing ML Pipelines: Feature Stores and the Coming Wave of Embedding
Ecosystems" (Orr, Sanyal, Ling, Goel, Leszczynski — VLDB 2021).

The library has two centers of gravity:

* :class:`repro.FeatureStore` — the classic tabular feature store: a
  versioned registry of published feature views, a dual offline/online
  datastore, cadence-driven materialization, point-in-time-correct training
  sets, online serving with freshness contracts, and quality/drift/skew
  monitoring.
* :class:`repro.EmbeddingStore` — embeddings as first-class citizens:
  versioning, provenance chains, per-version quality metrics, vector search
  (brute/LSH/IVF/HNSW), model/embedding compatibility enforcement, and
  patching tools that fix tail-entity rows once for every downstream
  consumer.

See README.md for a quickstart and DESIGN.md / EXPERIMENTS.md for the
paper-reproduction map.
"""

from repro.bus import (
    BusRecord,
    Consumer,
    FsyncConfig,
    FsyncPolicy,
    Producer,
    SegmentLog,
)
from repro.clock import SimClock, WallClock
from repro.compiler import ColumnRef, RowTransform, WindowAggregate
from repro.core import (
    EmbeddingStore,
    EmbeddingVersion,
    EntityDef,
    Feature,
    FeatureRegistry,
    FeatureSetSpec,
    FeatureStore,
    FeatureView,
    MaterializationResult,
    Provenance,
    TrainingSet,
)
from repro.embeddings import EmbeddingMatrix
from repro.errors import (
    CompatibilityError,
    ReproError,
    StaleFeatureError,
    ValidationError,
)
from repro.runtime import (
    MetricsRegistry,
    PeriodicTask,
    Service,
    ServiceGroup,
    ServiceState,
)
from repro.serving import GatewayConfig, ServingGateway
from repro.vecserve import VectorService, VectorUpsertSink
from repro.storage import (
    FreshnessPolicy,
    ModelStore,
    OfflineStore,
    OnlineStore,
    TableSchema,
)

__version__ = "1.0.0"

__all__ = [
    "BusRecord",
    "ColumnRef",
    "CompatibilityError",
    "Consumer",
    "EmbeddingMatrix",
    "EmbeddingStore",
    "EmbeddingVersion",
    "EntityDef",
    "Feature",
    "FeatureRegistry",
    "FeatureSetSpec",
    "FeatureStore",
    "FeatureView",
    "FreshnessPolicy",
    "FsyncConfig",
    "FsyncPolicy",
    "GatewayConfig",
    "MaterializationResult",
    "MetricsRegistry",
    "ModelStore",
    "OfflineStore",
    "OnlineStore",
    "PeriodicTask",
    "Producer",
    "Provenance",
    "SegmentLog",
    "ReproError",
    "RowTransform",
    "Service",
    "ServiceGroup",
    "ServiceState",
    "ServingGateway",
    "SimClock",
    "StaleFeatureError",
    "TableSchema",
    "TrainingSet",
    "ValidationError",
    "VectorService",
    "VectorUpsertSink",
    "WallClock",
    "WindowAggregate",
    "__version__",
]

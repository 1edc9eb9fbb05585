"""Core systems: the feature store and the embedding store.

* :mod:`repro.core.feature_store` — the classic tabular feature store
  (paper part 1): registry, dual datastore, materialization, point-in-time
  training sets, online serving. A view's features are
  :mod:`repro.compiler` operators (``ColumnRef``, ``WindowAggregate``,
  ``RowTransform``), and every materialization runs through the compiler.
* :mod:`repro.core.embedding_store` — embeddings as first-class citizens
  (paper parts 2-3): versioning, provenance, quality metrics and
  model/embedding compatibility enforcement. k-NN search over a stored
  version goes through :class:`repro.vecserve.VectorService`.
"""

from repro.core.embedding_store import (
    EmbeddingStore,
    EmbeddingVersion,
    Provenance,
)
from repro.core.feature_store import (
    FeatureStore,
    MaterializationResult,
    TrainingSet,
)
from repro.core.feature_view import Feature, FeatureSetSpec, FeatureView
from repro.core.registry import EntityDef, FeatureRegistry

__all__ = [
    "EmbeddingStore",
    "EmbeddingVersion",
    "EntityDef",
    "Feature",
    "FeatureRegistry",
    "FeatureSetSpec",
    "FeatureStore",
    "FeatureView",
    "MaterializationResult",
    "Provenance",
    "TrainingSet",
]

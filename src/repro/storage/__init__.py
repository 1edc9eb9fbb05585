"""Storage substrates: the feature store's dual datastore plus a model store.

The paper (section 2.2.2) describes feature stores as "typically a dual
datastore: one for offline training (e.g., SQL warehouse) and for online
serving (e.g., in-memory DBMS)", with model storage integrated for
provenance and reproducibility. This package implements all three halves
in pure Python/numpy:

* :mod:`repro.storage.offline` — append-only, date-partitioned event tables
  with time-travel scans and as-of lookups (the warehouse stand-in).
* :mod:`repro.storage.online` — an in-memory KV store with per-key event
  times and TTL freshness contracts (the serving stand-in).
* :mod:`repro.storage.models` — a ModelDB/ModelKB-style store of model
  versions, parameters, metrics and lineage.
"""

from repro.storage.models import ModelRecord, ModelStore
from repro.storage.offline import OfflineStore, OfflineTable, TableSchema
from repro.storage.online import FreshnessPolicy, OnlineStore
from repro.storage.query import Predicate, Query
from repro.storage.scan import SharedScan

__all__ = [
    "FreshnessPolicy",
    "ModelRecord",
    "ModelStore",
    "OfflineStore",
    "OfflineTable",
    "OnlineStore",
    "Predicate",
    "Query",
    "SharedScan",
    "TableSchema",
]

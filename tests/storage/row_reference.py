"""Row-at-a-time references for the offline read paths.

Each function answers a question the columnar engine answers — a
:class:`~repro.storage.Query`'s matching rows, a point-in-time join, a
training matrix — by walking rows one at a time. They are deliberately
naive so they cannot share a bug with the vectorized paths they check.
"""

import numpy as np

from repro.storage.query import Predicate

VALUE_DTYPES = {"float": np.float64, "int": np.int64, "string": object}

AGGREGATES = {
    "mean": np.mean,
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "count": len,
    "std": np.std,
}


def query_rows(table, predicates, start=None, end=None, limit=None):
    """Rows a query matches: scan order, every predicate, first ``limit``."""
    predicates = [Predicate(column, op, value) for column, op, value in predicates]
    out = []
    for row in table.scan(start=start, end=end):
        if limit is not None and len(out) >= limit:
            break
        if all(p.matches(row) for p in predicates):
            out.append(row)
    return out


def query_values(table, rows, column):
    """``Query.values`` over reference rows: non-NULL values, column dtype."""
    kind = table.schema.column_kind(column)
    return np.asarray(
        [row[column] for row in rows if row.get(column) is not None],
        dtype=VALUE_DTYPES[kind],
    )


def query_group_by_entity(rows, column, agg):
    """``Query.group_by_entity`` over reference rows."""
    grouped = {}
    for row in rows:
        value = row.get(column)
        if value is None:
            continue
        grouped.setdefault(int(row["entity_id"]), []).append(float(value))
    return {
        entity: float(AGGREGATES[agg](np.asarray(values)))
        for entity, values in grouped.items()
    }


def historical_features(store, entity_events, feature_set):
    """Point-in-time join, one ``latest_before`` per (pair, feature)."""
    resolved = store.registry.resolve_feature_set(feature_set)
    out = []
    for entity_id, timestamp in entity_events:
        row = {"entity_id": entity_id, "timestamp": timestamp}
        for view, feature_name in resolved:
            table = store.offline.table(view.materialized_table)
            hit = table.latest_before(entity_id, timestamp)
            key = f"{view.name}@{view.version}:{feature_name}"
            row[key] = None if hit is None else hit.get(feature_name)
        out.append(row)
    return out


def training_matrix(store, labels, feature_set):
    """The training matrix cell by cell (NaN where a feature had no value)."""
    joined = historical_features(store, [(e, t) for e, t, __ in labels], feature_set)
    names = [
        f"{view.name}@{view.version}:{feature_name}"
        for view, feature_name in store.registry.resolve_feature_set(feature_set)
    ]
    matrix = np.full((len(labels), len(names)), np.nan)
    for i, row in enumerate(joined):
        for j, name in enumerate(names):
            if row[name] is not None:
                matrix[i, j] = float(row[name])
    return matrix

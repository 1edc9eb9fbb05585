"""Perf smoke test: the columnar path must not be slower than the row path.

This is the CI tripwire behind the A4 benchmark (see
``benchmarks/bench_a4_columnar_join.py`` for the full trajectory): at 100k
events / 10k labels the vectorized ``build_training_set`` must beat the
row-at-a-time reference in ``tests/storage/row_reference.py``. The full bench asserts ≥10x; here we only assert the
*direction* so OS jitter can never flake the tier-1 suite.
"""

import time

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import Feature, FeatureSetSpec, FeatureStore, FeatureView
from repro.storage import TableSchema

from tests.storage.row_reference import training_matrix

DAY = 86400.0
N_EVENTS = 100_000
N_LABELS = 10_000
N_ENTITIES = 2_000
N_FEATURES = 4


@pytest.mark.slow
def test_columnar_join_not_slower_than_row_path_at_100k():
    rng = np.random.default_rng(0)
    store = FeatureStore(clock=SimClock())
    columns = {f"f{k}": "float" for k in range(N_FEATURES)}
    store.create_source_table("events", TableSchema(columns=columns))
    store.register_entity("user")
    store.publish_view(
        FeatureView(
            name="v",
            source_table="events",
            entity="user",
            features=tuple(
                Feature(f"f{k}", "float", ColumnRef(f"f{k}"))
                for k in range(N_FEATURES)
            ),
            cadence=DAY,
        )
    )
    entities = rng.integers(0, N_ENTITIES, size=N_EVENTS)
    timestamps = rng.uniform(0.0, 30 * DAY, size=N_EVENTS)
    values = rng.normal(size=(N_EVENTS, N_FEATURES))
    store.ingest(
        "events",
        [
            {
                "entity_id": int(entities[i]),
                "timestamp": float(timestamps[i]),
                **{f"f{k}": float(values[i, k]) for k in range(N_FEATURES)},
            }
            for i in range(N_EVENTS)
        ],
    )
    for day in (10, 20, 30):
        store.materialize("v", as_of=day * DAY)
    store.create_feature_set(
        FeatureSetSpec(name="fs", features=tuple(f"v:f{k}" for k in range(N_FEATURES)))
    )
    labels = [
        (int(rng.integers(0, N_ENTITIES)), float(rng.uniform(0.0, 31 * DAY)), 1.0)
        for __ in range(N_LABELS)
    ]

    # Warm both paths once (column caches, as-of arrays), then time.
    row_matrix = training_matrix(store, labels, "fs")
    col_set = store.build_training_set(labels, "fs")
    assert np.array_equal(row_matrix, col_set.features, equal_nan=True)

    t0 = time.perf_counter()
    training_matrix(store, labels, "fs")
    row_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    store.build_training_set(labels, "fs")
    columnar_s = time.perf_counter() - t0

    assert columnar_s <= row_s, (
        f"columnar path regressed: {columnar_s:.4f}s vs row {row_s:.4f}s"
    )

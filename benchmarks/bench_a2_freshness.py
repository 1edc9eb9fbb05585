"""A2 (ablation) — the cost of stale features.

Paper (section 2.2.2): "models can become stale if not given the most
up-to-date features". This ablation puts a number on it: downstream
accuracy as a function of feature age, on a workload whose per-entity state
decorrelates over time (an AR(1) process), which is exactly why feature
views carry cadences and the online store carries TTLs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import Feature, FeatureStore, FeatureView
from repro.models import LogisticRegression
from repro.storage import TableSchema

N_ENTITIES = 600
STEP = 100.0
N_STEPS = 40
AR_COEFFICIENT = 0.9
AGES = (0, 2, 5, 10, 20)  # in steps


@pytest.fixture(scope="module")
def world():
    """Per-entity AR(1) state; the label is the state's sign at serve time."""
    rng = np.random.default_rng(0)
    states = np.zeros((N_STEPS, N_ENTITIES))
    states[0] = rng.normal(size=N_ENTITIES)
    for step in range(1, N_STEPS):
        states[step] = AR_COEFFICIENT * states[step - 1] + np.sqrt(
            1 - AR_COEFFICIENT**2
        ) * rng.normal(size=N_ENTITIES)

    store = FeatureStore(clock=SimClock())
    store.create_source_table("state", TableSchema(columns={"value": "float"}))
    store.register_entity("user")
    store.publish_view(
        FeatureView(
            name="state_view",
            source_table="state",
            entity="user",
            features=(Feature("value", "float", ColumnRef("value")),),
            cadence=STEP,
        )
    )
    rows = [
        {"entity_id": entity, "timestamp": step * STEP, "value": float(states[step, entity])}
        for step in range(N_STEPS)
        for entity in range(N_ENTITIES)
    ]
    store.ingest("state", rows)
    for step in range(N_STEPS):
        store.materialize("state_view", as_of=step * STEP)
    return store, states


def accuracy_at_age(store, states, age_steps):
    """Train+test on features that are ``age_steps`` old at label time."""
    serve_step = N_STEPS - 1
    labels = (states[serve_step] > 0).astype(np.int64)
    feature_time = (serve_step - age_steps) * STEP
    rows = store.get_historical_features(
        [(e, feature_time) for e in range(N_ENTITIES)], "fs_state"
    )
    features = np.array(
        [[row["state_view@1:value"]] for row in rows], dtype=float
    )
    cut = N_ENTITIES // 2
    model = LogisticRegression(epochs=150).fit(features[:cut], labels[:cut])
    return float(np.mean(model.predict(features[cut:]) == labels[cut:]))


def test_a2_freshness_cost(benchmark, world, report):
    store, states = world
    from repro.core import FeatureSetSpec

    store.create_feature_set(
        FeatureSetSpec(name="fs_state", features=("state_view:value",))
    )

    benchmark(
        store.get_historical_features,
        [(e, (N_STEPS - 1) * STEP) for e in range(50)],
        "fs_state",
    )

    rows = []
    accuracies = {}
    for age in AGES:
        accuracy = accuracy_at_age(store, states, age)
        theoretical_corr = AR_COEFFICIENT**age
        accuracies[age] = accuracy
        rows.append([f"{age} steps", theoretical_corr, accuracy])

    report.line("A2: downstream accuracy vs feature staleness "
                f"(AR(1) state, phi={AR_COEFFICIENT})")
    report.table(["feature age", "state_corr", "accuracy"], rows, width=16)
    report.line("accuracy decays toward coin-flip as served features age — "
                "the quantified case for cadences and TTLs")

    assert accuracies[0] > 0.95
    assert accuracies[0] > accuracies[5] > accuracies[20]
    assert accuracies[20] < 0.75

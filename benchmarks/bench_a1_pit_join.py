"""A1 (ablation) — point-in-time joins vs naive latest-value joins.

DESIGN.md calls point-in-time correctness a load-bearing design decision:
"training joins must never see feature values from the future". This
ablation quantifies what the naive alternative costs.

Protocol: a feature is *leaky* — after a label's event time it becomes
almost perfectly informative about that label (the label causally updates
the feature), while before the label time it is only weakly informative.
The naive join reads each entity's latest materialized value regardless of
label time; the point-in-time join reads the latest value at-or-before the
label. We compare offline (training-time) accuracy against what the model
actually achieves at serving time, when the future is genuinely unavailable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import Feature, FeatureSetSpec, FeatureStore, FeatureView
from repro.models import LogisticRegression
from repro.storage import TableSchema

N_ENTITIES = 800
LABEL_TIME = 1000.0
SERVE_TIME = 3000.0


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(0)
    store = FeatureStore(clock=SimClock())
    store.create_source_table("signals", TableSchema(columns={"score": "float"}))
    store.register_entity("user")
    store.publish_view(
        FeatureView(
            name="signals_view",
            source_table="signals",
            entity="user",
            features=(Feature("score", "float", ColumnRef("score")),),
            cadence=100.0,
        )
    )

    labels = rng.integers(0, 2, size=N_ENTITIES)
    # Before the label: weak signal. After: the label leaks into the score.
    before = labels * 0.6 + rng.normal(0.0, 1.0, size=N_ENTITIES)
    after = labels * 4.0 + rng.normal(0.0, 0.3, size=N_ENTITIES)
    rows = []
    for entity in range(N_ENTITIES):
        rows.append({"entity_id": entity, "timestamp": 500.0,
                     "score": float(before[entity])})
        rows.append({"entity_id": entity, "timestamp": 2000.0,
                     "score": float(after[entity])})
    store.ingest("signals", rows)
    store.materialize("signals_view", as_of=600.0)    # pre-label snapshot
    store.materialize("signals_view", as_of=2500.0)   # post-label snapshot
    store.create_feature_set(
        FeatureSetSpec(name="fs", features=("signals_view:score",))
    )
    return store, labels, before


def naive_latest_join(store, entities):
    """The leaky join: latest materialized value, label time ignored."""
    view = store.registry.view("signals_view")
    table = store.offline.table(view.materialized_table)
    out = np.empty(len(entities))
    for i, entity in enumerate(entities):
        row = table.latest_before(int(entity), float("inf"))
        out[i] = float(row["score"])
    return out.reshape(-1, 1)


def test_a1_pit_vs_naive_join(benchmark, world, report):
    store, labels, before = world
    entities = np.arange(N_ENTITIES)
    label_rows = [(int(e), LABEL_TIME, float(labels[e])) for e in entities]

    benchmark(store.build_training_set, label_rows, "fs")

    # Training matrices under the two join semantics.
    pit = store.build_training_set(label_rows, "fs").features
    naive = naive_latest_join(store, entities)

    cut = N_ENTITIES // 2
    y = labels.astype(np.int64)
    pit_model = LogisticRegression(epochs=200).fit(pit[:cut], y[:cut])
    naive_model = LogisticRegression(epochs=200).fit(naive[:cut], y[:cut])

    pit_offline = float(np.mean(pit_model.predict(pit[cut:]) == y[cut:]))
    naive_offline = float(np.mean(naive_model.predict(naive[cut:]) == y[cut:]))

    # At serving time, the *future relative to the label* does not exist
    # yet for new entities: both models receive pre-label-style features.
    serving = before.reshape(-1, 1)
    pit_online = float(np.mean(pit_model.predict(serving[cut:]) == y[cut:]))
    naive_online = float(np.mean(naive_model.predict(serving[cut:]) == y[cut:]))

    report.line("A1: point-in-time join vs naive latest-value join")
    report.table(
        ["join", "offline_acc", "online_acc", "gap"],
        [
            ["point-in-time", pit_offline, pit_online, pit_offline - pit_online],
            ["naive latest", naive_offline, naive_online,
             naive_offline - naive_online],
        ],
        width=16,
    )
    report.line("the naive join's offline estimate is fiction: the leaked "
                "future evaporates at serving time")

    # Naive looks great offline (leakage), PIT is honest.
    assert naive_offline > pit_offline + 0.15
    # But online reality: PIT holds its estimate; naive collapses.
    assert abs(pit_offline - pit_online) < 0.08
    assert naive_offline - naive_online > 0.15
    assert pit_online >= naive_online - 0.02

"""E5 — the dual datastore: online lookups vs offline scans.

Paper (section 2.2.2): "To provide low latency feature serving, FSs are
typically a dual datastore: one for offline training (e.g., SQL warehouse)
and for online serving (e.g., in-memory DBMS)."

Protocol: materialize the same feature view into both halves; time (a) an
online point lookup, (b) an offline as-of lookup, and (c) an offline range
scan per latest value — the access path a store *without* an online half
would be forced to use. Also verifies the freshness metric.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import Feature, FeatureStore, FeatureView
from repro.datagen import RideEventConfig, generate_ride_events
from repro.quality import freshness_seconds
from repro.storage import TableSchema

N_EVENTS = 100_000
N_ENTITIES = 1000


@pytest.fixture(scope="module")
def store():
    fs = FeatureStore(clock=SimClock(start=0.0))
    fs.create_source_table(
        "rides",
        TableSchema(
            columns={
                "trip_km": "float",
                "fare": "float",
                "rating": "float",
                "wait_minutes": "float",
                "city": "int",
                "vehicle_type": "int",
            }
        ),
    )
    fs.register_entity("driver")
    events = generate_ride_events(
        RideEventConfig(n_events=N_EVENTS, n_entities=N_ENTITIES, n_days=7), seed=0
    )
    fs.ingest("rides", events.rows())
    fs.publish_view(
        FeatureView(
            name="fares",
            source_table="rides",
            entity="driver",
            features=(Feature("last_fare", "float", ColumnRef("fare")),),
            cadence=3600.0,
        )
    )
    fs.materialize("fares", as_of=7 * 86400.0)
    fs.clock.advance_to(7 * 86400.0 + 60.0)
    return fs


def scan_latest(table, entity_id):
    """The no-online-store access path: scan everything, keep the latest."""
    latest = None
    for row in table.scan():
        if row["entity_id"] == entity_id:
            latest = row
    return latest


def test_e5_online_lookup(benchmark, store):
    result = benchmark(store.get_online_features, "fares", [17])
    assert result[0] is not None


def test_e5_offline_asof_lookup(benchmark, store):
    table = store.offline.table("rides")
    result = benchmark(table.latest_before, 17, 7 * 86400.0)
    assert result is not None


def test_e5_offline_full_scan(benchmark, store):
    table = store.offline.table("rides")
    result = benchmark.pedantic(
        scan_latest, args=(table, 17), rounds=3, iterations=1
    )
    assert result is not None


def test_e5_latency_summary(benchmark, store, report):
    table = store.offline.table("rides")
    benchmark(store.get_online_features, "fares", [17])

    def time_op(fn, repeats):
        times = []
        for __ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return float(np.median(times)) * 1e6  # microseconds

    online_us = time_op(lambda: store.get_online_features("fares", [17]), 200)
    asof_us = time_op(lambda: table.latest_before(17, 7 * 86400.0), 200)
    scan_us = time_op(lambda: scan_latest(table, 17), 3)

    report.line(f"E5: serving latency over {N_EVENTS} events / "
                f"{N_ENTITIES} entities (median)")
    report.table(
        ["access path", "latency_us"],
        [
            ["online point lookup", online_us],
            ["offline as-of (indexed)", asof_us],
            ["offline full scan", scan_us],
        ],
        width=26,
    )
    report.line(f"online vs full-scan speedup: {scan_us / online_us:,.0f}x")

    freshness = freshness_seconds(
        store.offline.table(store.registry.view("fares").materialized_table),
        now=store.clock.now(),
    )
    values = np.array(list(freshness.values()))
    report.line(f"feature freshness: min={values.min():.0f}s "
                f"max={values.max():.0f}s over {len(values)} entities")

    # The paper's architectural claim: orders of magnitude between the
    # serving store and the warehouse path.
    assert scan_us / online_us > 100.0
    assert online_us < asof_us * 10  # both point paths are "fast"

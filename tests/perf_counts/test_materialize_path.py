"""Counted witnesses: every view materializes through the compiler.

A view authored with ``Feature``/``ColumnRef``/``WindowAggregate`` is a
plan like any other: materializing it compiles it, aggregates over one
``(column, window)`` share one index-window resolution, and views over
one table fuse into one scan. Counts only, no timing.
"""

import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef, WindowAggregate, scan
from repro.core import Feature, FeatureStore, FeatureView
from repro.pipeline import CadenceScheduler
from repro.storage.offline import OfflineTable, TableSchema

DAY = 86_400.0


@pytest.fixture
def store():
    fs = FeatureStore(clock=SimClock(start=0.0))
    fs.register_entity("driver")
    fs.create_source_table("rides", TableSchema(columns={"fare": "float"}))
    fs.ingest(
        "rides",
        [
            {"entity_id": i % 7, "timestamp": float(i * 60), "fare": float(i % 13)}
            for i in range(300)
        ],
    )
    return fs


def publish(fs, name, *features):
    return fs.publish_view(
        FeatureView(
            name=name,
            source_table="rides",
            entity="driver",
            features=features,
            cadence=600.0,
        )
    )


@pytest.fixture
def window_resolutions(monkeypatch) -> list[int]:
    """Probes per ``events_between_index_batch`` call, one entry per call."""
    calls: list[int] = []
    real = OfflineTable.events_between_index_batch

    def counted(self, entity_ids, *args, **kwargs):
        calls.append(len(entity_ids))
        return real(self, entity_ids, *args, **kwargs)

    monkeypatch.setattr(OfflineTable, "events_between_index_batch", counted)
    return calls


def test_transform_authored_view_is_compiled(store):
    publish(store, "last", Feature("fare", "float", ColumnRef("fare")))
    result = store.materialize("last", as_of=DAY)
    assert result.entities_written == 7
    assert store.compiler_stats["views_compiled"] == 1


@pytest.mark.parametrize("authored", ["features", "plan"])
def test_one_window_resolution_per_column_window(
    store, window_resolutions, authored
):
    if authored == "features":
        publish(
            store,
            "totals",
            Feature("fare_sum", "float", WindowAggregate("fare", "sum", 3600.0)),
            Feature("fare_n", "float", WindowAggregate("fare", "count", 3600.0)),
        )
    else:
        plan = (
            scan("rides")
            .window("fare", "sum", 3600.0, as_="fare_sum")
            .window("fare", "count", 3600.0, as_="fare_n")
        )
        store.publish_plan("totals", plan, entity="driver")
    store.materialize("totals", as_of=DAY)
    assert window_resolutions == [7]
    store.materialize("totals", as_of=2 * DAY)
    assert window_resolutions == [7, 7]


def test_scheduler_tick_fuses_transform_authored_views(store):
    publish(store, "last", Feature("fare", "float", ColumnRef("fare")))
    publish(
        store,
        "totals",
        Feature("fare_sum", "float", WindowAggregate("fare", "sum", 3600.0)),
    )
    report = CadenceScheduler(store, tick_seconds=600.0).tick()
    assert report.materialized_views == ("last", "totals")
    assert report.fused_groups == 1
    assert report.scans_saved == 1


def test_index_strategy_counts_the_rows_it_reads():
    """The asof-index strategy reports what it read: every hit reads its
    latest row whole (all columns), and each window gathers its event
    rows; the union is ``rows_scanned`` and the rest is pruned."""
    fs = FeatureStore(clock=SimClock(start=0.0))
    fs.register_entity("driver")
    fs.create_source_table(
        "rides", TableSchema(columns={"fare": "float", "tip": "float"})
    )
    fs.ingest(
        "rides",
        [
            {
                "entity_id": i % 7,
                "timestamp": float(i * 60),
                "fare": float(i % 13),
                "tip": 1.0,
            }
            for i in range(300)
        ],
    )
    publish(
        fs,
        "totals",
        Feature("fare_sum", "float", WindowAggregate("fare", "sum", 3600.0)),
    )
    # window (14_400, 18_000] holds events 241..299, which include every
    # entity's latest row (293..299)
    fs.materialize("totals", as_of=18_000.0)
    stats = fs.compiler_stats
    assert stats["rows_scanned"] == 59
    assert stats["rows_pruned"] == 300 - 59
    assert stats["columns_decoded"] == 2
    assert stats["columns_pruned"] == 0

"""Shared-scan fusion: N plans, one physical scan, unchanged answers."""

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import (
    compile_plan,
    execute_fused,
    execute_fused_at,
    explain_fused,
    scan,
)
from repro.core import FeatureStore
from repro.storage.offline import TableSchema
from repro.storage.scan import SharedScan

from tests.compiler.conftest import (
    DAY,
    rows_equal,
    trip_rows,
    trip_schema,
)

AS_OF = 2.5 * DAY


def eight_plans():
    return [
        scan("trips").window("fare", "mean", 3600.0).latest("city"),
        scan("trips").filter("fare", ">", 10.0).window("fare", "sum", 7200.0),
        scan("trips").window("tips", "count", DAY).latest("fare"),
        scan("trips").filter("distance", "<=", 20.0).select("fare", "tips"),
        scan("trips")
        .derived("per_km", lambda f, d: f / d, inputs=("fare", "distance")),
        scan("trips")
        .filter("city", "in", ["nyc", "chi"])
        .window("fare", "max", DAY),
        scan("trips").window("distance", "std", 2 * DAY),
        scan("trips").filter("tips", "not_null").window("tips", "mean", DAY),
    ]


class TestSharedScan:
    def test_column_decoded_once(self, trips):
        shared = SharedScan(trips)
        a = shared.column("fare")
        b = shared.column("fare")
        assert a[0] is b[0]  # cached, not re-decoded
        assert shared.columns_decoded == 1

    def test_rows_match_table_scan_order(self, trips):
        shared = SharedScan(trips)
        scanned = list(trips.scan())
        assert shared.rows_scanned == len(scanned)
        for position in (0, 17, len(scanned) - 1):
            assert shared.row_at(position) is scanned[position]

    def test_time_bounds_prune_rows(self, trips):
        shared = SharedScan(trips, start=DAY, end=2 * DAY)
        assert shared.rows_scanned + shared.rows_pruned == len(trips)
        assert shared.rows_pruned > 0
        assert (shared.timestamps >= DAY).all()
        assert (shared.timestamps < 2 * DAY).all()

    def test_segment_of_is_time_ordered(self, trips):
        shared = SharedScan(trips)
        positions = shared.segment_of(3)
        ts = shared.timestamps[positions]
        assert (np.diff(ts) >= 0).all()
        assert (shared.entity_ids[positions] == 3).all()

    def test_segment_of_unknown_entity_empty(self, trips):
        assert len(SharedScan(trips).segment_of(10_000)) == 0


class TestFusedParity:
    def test_fused_equals_per_view(self, trips):
        plans = eight_plans()
        fused, stats = execute_fused(plans, trips, AS_OF)
        for plan, rows in zip(plans, fused):
            assert rows_equal(rows, plan.execute_rows(trips, AS_OF))
        assert stats["views_compiled"] == 8
        assert stats["fusion_groups"] == 1
        assert stats["views_fused"] == 8  # the string 'in' plan fuses too
        assert stats["scans_saved"] == 7
        # one shared scan, counted once for all 8 fused views
        assert stats["rows_scanned"] <= len(trips)

    def test_fused_asof_join_parity(self, trips):
        plans = eight_plans()[:4]
        rng = np.random.default_rng(7)
        eids = [int(e) for e in rng.integers(0, 45, size=80)]
        ts = [float(t) for t in rng.uniform(0, 3 * DAY, size=80)]
        fused, stats = execute_fused_at(plans, trips, eids, ts)
        for plan, rows in zip(plans, fused):
            assert rows_equal(rows, plan.execute_rows_at(trips, eids, ts))
        assert stats["scans_saved"] == 3

    def test_single_plan_group_degenerates(self, trips):
        plan = eight_plans()[0]
        fused, stats = execute_fused([plan], trips, AS_OF)
        assert rows_equal(fused[0], plan.execute_rows(trips, AS_OF))
        assert stats["fusion_groups"] == 0
        assert stats["scans_saved"] == 0

    def test_empty_group(self, trips):
        fused, stats = execute_fused([], trips, AS_OF)
        assert fused == []
        assert stats["views_compiled"] == 0

    def test_fusion_matches_compiled_singles(self, trips):
        """Fusion must agree with the *compiled* per-plan path too."""
        plans = eight_plans()
        fused, __ = execute_fused(plans, trips, AS_OF)
        for plan, rows in zip(plans, fused):
            single = compile_plan(plan, trips).evaluate(AS_OF)
            assert rows_equal(rows, single)

    def test_explain_fused(self, trips):
        text = explain_fused(eight_plans(), trips)
        assert "FusedGroup: table=trips plans=8 fused=8" in text
        assert "scans_saved=7" in text
        assert "shared scan" in text
        assert text.count("[fused]") == 8


class TestStoreFusion:
    @pytest.fixture
    def store(self):
        fs = FeatureStore(clock=SimClock(start=0.0))
        fs.register_entity("driver")
        fs.create_source_table("trips", trip_schema())
        fs.ingest("trips", trip_rows(n_rows=2000, n_entities=25, seed=3))
        return fs

    def test_materialize_many_fuses_and_matches_single(self, store):
        a = scan("trips").window("fare", "mean", 3600.0).latest("city")
        b = scan("trips").filter("fare", ">", 10.0).window("fare", "sum", DAY)
        store.publish_plan("va", a, entity="driver")
        store.publish_plan("vb", b, entity="driver")

        results = store.materialize_many(["va", "vb"], as_of=AS_OF)
        assert [r.view for r in results] == ["va", "vb"]
        stats = store.compiler_stats
        assert stats["fusion_groups"] == 1
        assert stats["scans_saved"] == 1

        # the fused materialized rows equal a fresh single-view run
        single = FeatureStore(clock=SimClock(start=0.0))
        single.register_entity("driver")
        single.create_source_table("trips", trip_schema())
        single.ingest("trips", trip_rows(n_rows=2000, n_entities=25, seed=3))
        single.publish_plan("va", a, entity="driver")
        single.materialize("va", as_of=AS_OF)
        fused_rows = list(
            store.offline.table(
                store.registry.view("va").materialized_table
            ).scan()
        )
        single_rows = list(
            single.offline.table(
                single.registry.view("va").materialized_table
            ).scan()
        )
        assert rows_equal(fused_rows, single_rows)

    def test_mixed_plan_and_legacy_views(self, store):
        from repro.compiler import ColumnRef
        from repro.core import Feature, FeatureView

        store.publish_plan(
            "pa", scan("trips").latest("fare"), entity="driver"
        )
        store.publish_plan(
            "pb", scan("trips").window("fare", "mean", DAY), entity="driver"
        )
        legacy = FeatureView(
            name="legacy",
            source_table="trips",
            entity="driver",
            features=(Feature("last_fare", "float", ColumnRef("fare")),),
        )
        store.publish_view(legacy)
        results = store.materialize_many(["pa", "legacy", "pb"], as_of=AS_OF)
        assert [r.view for r in results] == ["pa", "legacy", "pb"]
        assert all(r.entities_written > 0 for r in results)
        # a transform-authored view is a plan too: all three share one scan
        assert store.compiler_stats["views_fused"] == 3
        assert store.compiler_stats["fusion_groups"] == 1


class TestSchedulerFusion:
    def test_tick_reports_fusion(self):
        store = FeatureStore(clock=SimClock(start=0.0))
        store.register_entity("driver")
        store.create_source_table("trips", trip_schema())
        store.ingest("trips", trip_rows(n_rows=1500, n_entities=20, seed=11))
        store.publish_plan(
            "pa",
            scan("trips").window("fare", "mean", 3600.0),
            entity="driver",
            cadence=600.0,
        )
        store.publish_plan(
            "pb",
            scan("trips").filter("fare", ">", 5.0).latest("fare"),
            entity="driver",
            cadence=600.0,
        )

        from repro.pipeline.scheduler import CadenceScheduler

        scheduler = CadenceScheduler(store, tick_seconds=600.0)
        report = scheduler.tick()
        assert report.materialized_views == ("pa", "pb")
        assert report.fused_groups == 1
        assert report.scans_saved == 1

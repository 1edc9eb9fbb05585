"""Row-vs-columnar parity suite.

The columnar engine (numpy frames, batched as-of kernels, vectorized query
masks) must be *semantically invisible*: every result bit-for-bit equal to
the row-at-a-time references in ``tests/storage/row_reference.py``. This
suite drives randomized tables — out-of-order appends, duplicate
timestamps, NULLs, mid-stream truncation — through both and insists on
identical answers.

Reference implementations here are deliberately naive (pure-python scans
over the raw rows) so they cannot share a bug with either engine path.
"""

import dataclasses

import numpy as np
import pytest

from repro.clock import SimClock
from repro.compiler import ColumnRef, WindowAggregate
from repro.core import Feature, FeatureSetSpec, FeatureStore, FeatureView
from repro.errors import ValidationError
from repro.storage import OfflineTable, Query, TableSchema

from tests.storage import row_reference

DAY = 86400.0


def _random_rows(rng, n, n_entities=6, span=8 * DAY, dup_rate=0.3):
    """Rows with out-of-order, duplicated timestamps and NULLs."""
    timestamps = rng.uniform(0.0, span, size=n)
    # Force duplicate timestamps (ties must break by insertion order).
    dup = rng.random(n) < dup_rate
    timestamps[dup] = rng.choice([0.0, DAY, 2.5 * DAY, span / 2], size=int(dup.sum()))
    rows = []
    for i in range(n):
        rows.append(
            {
                "entity_id": int(rng.integers(0, n_entities)),
                "timestamp": float(timestamps[i]),
                "x": None if rng.random() < 0.2 else float(rng.normal()),
                "c": None if rng.random() < 0.2 else int(rng.integers(0, 4)),
                "s": None if rng.random() < 0.2 else str(rng.integers(0, 3)),
            }
        )
    return rows


def _make_table(rng, n=120, **kwargs) -> OfflineTable:
    table = OfflineTable(
        "t", TableSchema(columns={"x": "float", "c": "int", "s": "string"})
    )
    rows = _random_rows(rng, n, **kwargs)
    # Append in several chunks so dirty-flag invalidation is exercised
    # between reads.
    third = len(rows) // 3
    table.append(rows[:third])
    list(table.scan())  # build caches mid-stream
    table.append(rows[third : 2 * third])
    table.latest_before(0, 3 * DAY)  # rebuild as-of arrays mid-stream
    table.append(rows[2 * third :])
    return table


def _reference_latest_before(table, entity_id, timestamp):
    """Naive reference: linear scan, max (ts, insertion order)."""
    best = None
    best_key = None
    for i, row in enumerate(table._rows):
        if int(row["entity_id"]) != entity_id:
            continue
        ts = float(row["timestamp"])
        if ts <= timestamp and (best_key is None or (ts, i) > best_key):
            best, best_key = row, (ts, i)
    return best


def _reference_events_between(table, entity_id, start, end):
    hits = [
        (float(r["timestamp"]), i, r)
        for i, r in enumerate(table._rows)
        if int(r["entity_id"]) == entity_id and start < float(r["timestamp"]) <= end
    ]
    return [r for __, __, r in sorted(hits, key=lambda h: (h[0], h[1]))]


class TestAsOfParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_latest_before_matches_reference_and_batch(self, seed):
        rng = np.random.default_rng(seed)
        table = _make_table(rng, n=150)
        probes = [
            (int(rng.integers(0, 8)), float(rng.uniform(-1.0, 9 * DAY)))
            for __ in range(200)
        ]
        batch = table.latest_before_batch(
            [e for e, __ in probes], [t for __, t in probes]
        )
        for (entity, ts), batched in zip(probes, batch):
            single = table.latest_before(entity, ts)
            reference = _reference_latest_before(table, entity, ts)
            assert single is reference  # identity: the very same stored dict
            assert batched is reference

    @pytest.mark.parametrize("seed", range(3))
    def test_events_between_matches_reference_and_batch(self, seed):
        rng = np.random.default_rng(100 + seed)
        table = _make_table(rng, n=150)
        probes = []
        for __ in range(100):
            a, b = sorted(rng.uniform(-1.0, 9 * DAY, size=2))
            probes.append((int(rng.integers(0, 8)), float(a), float(b)))
        batch = table.events_between_batch(
            [e for e, __, __ in probes],
            [s for __, s, __ in probes],
            [t for __, __, t in probes],
        )
        for (entity, start, end), batched in zip(probes, batch):
            single = table.events_between(entity, start, end)
            reference = _reference_events_between(table, entity, start, end)
            assert single == reference
            assert batched == reference

    def test_batch_kernels_on_empty_table(self):
        table = OfflineTable("t", TableSchema(columns={"x": "float"}))
        assert table.latest_before_batch([1, 2], [0.0, 1.0]) == [None, None]
        assert table.events_between_batch([1], 0.0, 1.0) == [[]]
        assert table.latest_before_batch([], []) == []

    def test_scan_matches_sorted_reference(self):
        rng = np.random.default_rng(7)
        table = _make_table(rng, n=150)
        got = [(float(r["timestamp"]), id(r)) for r in table.scan()]
        # Within a partition: (timestamp, insertion order). Reference:
        by_part = {}
        for i, row in enumerate(table._rows):
            key = int(float(row["timestamp"]) // DAY)
            by_part.setdefault(key, []).append((float(row["timestamp"]), i, row))
        expected = []
        for key in sorted(by_part):
            for ts, __, row in sorted(by_part[key], key=lambda h: (h[0], h[1])):
                expected.append((ts, id(row)))
        assert got == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_truncate_mid_stream_keeps_parity(self, seed):
        rng = np.random.default_rng(200 + seed)
        table = _make_table(rng, n=150)
        before_len = len(table)
        dropped = table.truncate_before(3 * DAY)
        assert len(table) == before_len - dropped
        # After truncation, every access path still agrees.
        for __ in range(100):
            entity = int(rng.integers(0, 8))
            ts = float(rng.uniform(3 * DAY, 9 * DAY))
            assert table.latest_before(entity, ts) is _reference_latest_before(
                table, entity, ts
            )
        assert [id(r) for r in table.scan()] == [
            id(r)
            for r in sorted(
                table._rows,
                key=lambda r: (
                    float(r["timestamp"]) // DAY,
                    float(r["timestamp"]),
                    table._rows.index(r),
                ),
            )
        ]
        last = table.last_event_time()
        expected_last = max(
            (float(r["timestamp"]) for r in table._rows), default=None
        )
        assert last == expected_last


class TestQueryParity:
    PREDICATE_SETS = [
        [],
        [("x", ">", 0.0)],
        [("x", "<=", 0.3), ("c", "!=", 2)],
        [("c", "in", (0, 3))],
        [("x", "not_null", None), ("timestamp", ">=", 2 * DAY)],
        [("entity_id", "==", 3)],
        [("s", "==", "1")],
        [("s", "!=", "0"), ("x", "<", 1.0)],
        [("s", "<", "1")],
        [("s", "<=", "1"), ("x", ">", -0.5)],
        [("s", ">", "0")],
        [("s", ">=", "2")],
        [("s", "in", ("0", "2"))],
        [("s", "in", {"1"}), ("c", "in", [1, 2])],
    ]

    def _build(self, seed=11, n=200):
        rng = np.random.default_rng(seed)
        return _make_table(rng, n=n)

    def _assert_query_parity(self, table, predicates, start=None, end=None, limit=None):
        q = Query(table).between(start, end)
        for column, op, value in predicates:
            q = q.where(column, op, value)
        if limit is not None:
            q = q.limit(limit)
        rows = row_reference.query_rows(table, predicates, start, end, limit)
        assert q.count() == len(rows)
        assert q.rows() == [dict(row) for row in rows]
        for column in ("x", "c", "entity_id", "timestamp", "s"):
            vec = q.values(column)
            row = row_reference.query_values(table, rows, column)
            assert vec.dtype == row.dtype
            if vec.dtype == object:
                assert list(vec) == list(row)
            else:
                np.testing.assert_array_equal(vec, row)
        for agg in ("mean", "sum", "min", "max", "count", "std"):
            vec_g = q.group_by_entity("x", agg)
            row_g = row_reference.query_group_by_entity(rows, "x", agg)
            assert set(vec_g) == set(row_g)
            for entity in vec_g:
                assert vec_g[entity] == pytest.approx(row_g[entity], nan_ok=True)

    @pytest.mark.parametrize("predicates", PREDICATE_SETS)
    @pytest.mark.parametrize("window", [(None, None), (DAY, 5 * DAY)])
    def test_count_values_aggregate_group_parity(self, predicates, window):
        self._assert_query_parity(self._build(), predicates, *window)

    @pytest.mark.parametrize("limit", [0, 1, 7, 10_000])
    @pytest.mark.parametrize(
        "predicates", [[], [("x", ">", 0.0)], [("s", ">=", "1")]]
    )
    def test_limit_parity(self, predicates, limit):
        # eight daily partitions: a limit cuts the mask across frames
        table = self._build(seed=19)
        self._assert_query_parity(table, predicates, limit=limit)
        self._assert_query_parity(table, predicates, DAY, 5 * DAY, limit=limit)

    def test_mismatched_type_comparison_raises_like_reference(self):
        table = self._build(seed=23)
        # The reference meets the mismatch row by row; the query refuses
        # it when it is built.
        with pytest.raises(TypeError):
            row_reference.query_rows(table, [("s", "<", 1)])
        with pytest.raises(ValidationError):
            Query(table).where("s", "<", 1)

    def test_query_sees_appends_after_vectorized_run(self):
        table = self._build(seed=17, n=60)
        q = Query(table).where("x", "not_null")
        before = q.count()
        table.append(
            [{"entity_id": 9, "timestamp": 0.5 * DAY, "x": 1.0, "c": 1, "s": "a"}]
        )
        assert q.count() == before + 1


class TestTrainingSetParity:
    def _world(self, seed=0, n_events=400, n_entities=12):
        rng = np.random.default_rng(seed)
        store = FeatureStore(clock=SimClock())
        store.create_source_table(
            "events", TableSchema(columns={"a": "float", "b": "int"})
        )
        store.register_entity("user")
        store.publish_view(
            FeatureView(
                name="v",
                source_table="events",
                entity="user",
                features=(
                    Feature("a_latest", "float", ColumnRef("a")),
                    Feature("b_latest", "int", ColumnRef("b")),
                    Feature("a_sum", "float", WindowAggregate("a", "sum", 2 * DAY)),
                ),
                cadence=DAY,
            )
        )
        rows = []
        for __ in range(n_events):
            rows.append(
                {
                    "entity_id": int(rng.integers(0, n_entities)),
                    "timestamp": float(rng.uniform(0.0, 6 * DAY)),
                    "a": None if rng.random() < 0.15 else float(rng.normal()),
                    "b": None if rng.random() < 0.15 else int(rng.integers(0, 9)),
                }
            )
        store.ingest("events", rows)
        for day in range(1, 7):
            store.materialize("v", as_of=day * DAY)
        store.create_feature_set(
            FeatureSetSpec(
                name="fs", features=("v:a_latest", "v:b_latest", "v:a_sum")
            )
        )
        labels = [
            (int(rng.integers(0, n_entities + 2)), float(rng.uniform(0.0, 7 * DAY)),
             float(rng.integers(0, 2)))
            for __ in range(300)
        ]
        return store, labels

    @pytest.mark.parametrize("seed", range(3))
    def test_build_training_set_row_vs_columnar(self, seed):
        store, labels = self._world(seed=seed)
        row = row_reference.training_matrix(store, labels, "fs")
        col = store.build_training_set(labels, "fs")
        assert col.feature_names == ("v@1:a_latest", "v@1:b_latest", "v@1:a_sum")
        np.testing.assert_array_equal(col.labels, [label for __, __, label in labels])
        np.testing.assert_array_equal(col.entity_ids, [e for e, __, __ in labels])
        np.testing.assert_array_equal(col.timestamps, [t for __, t, __ in labels])
        assert np.array_equal(row, col.features, equal_nan=True)

    def test_build_training_set_after_truncate(self):
        store, labels = self._world(seed=9)
        view = store.registry.view("v")
        store.offline.table(view.materialized_table).truncate_before(3 * DAY)
        row = row_reference.training_matrix(store, labels, "fs")
        col = store.build_training_set(labels, "fs")
        assert np.array_equal(row, col.features, equal_nan=True)

    def test_get_historical_features_row_vs_columnar(self):
        store, labels = self._world(seed=4)
        pairs = [(e, t) for e, t, __ in labels]
        row = row_reference.historical_features(store, pairs, "fs")
        col = store.get_historical_features(pairs, "fs")
        assert row == col

    def test_two_versions_of_one_view_read_their_own_tables(self):
        store, labels = self._world(seed=6)
        v1 = store.registry.view("v")
        store.publish_view(dataclasses.replace(v1, features=v1.features[:1]))
        store.materialize("v", as_of=6 * DAY)  # v2 has one snapshot only
        store.create_feature_set(
            FeatureSetSpec(name="both", features=("v@1:a_latest", "v@2:a_latest"))
        )
        pairs = [(e, t) for e, t, __ in labels]
        row = row_reference.historical_features(store, pairs, "both")
        assert row != [
            {**r, "v@1:a_latest": r["v@2:a_latest"]} for r in row
        ]  # the versions disagree somewhere
        assert store.get_historical_features(pairs, "both") == row
        assert np.array_equal(
            store.build_training_set(labels, "both").features,
            row_reference.training_matrix(store, labels, "both"),
            equal_nan=True,
        )

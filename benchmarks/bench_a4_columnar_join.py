"""A4 (perf) — columnar offline engine vs the row-at-a-time path.

The offline half of the feature store (paper §2.2.1–2.2.2) is the
warehouse workload: date-partitioned scans, declarative filters, and
point-in-time-correct training joins. This bench pits the columnar,
vectorized execution path (batched as-of kernels, column-array gathers,
numpy predicate masks, cached partition sort orders) against the original
row-at-a-time path. The product has one (columnar) path; the row baselines
below (``_build_training_set_row``, ``_query_count_row`` et al.) are the
replaced code copied verbatim into this bench, precisely so this
comparison stays honest across future PRs.

Protocol per size ``n`` (events): ``n/50`` entities, 8 float features,
events spread over 30 daily partitions, 8 materialization snapshots, and a
``n/10``-label point-in-time join. Measured:

* ``build_training_set`` — row path vs columnar path (+ NaN-exact parity),
* ``scan`` — cached-frame scan vs re-sorting every partition per scan
  (what the pre-PR engine did),
* ``Query.count``/``aggregate`` — numpy masks vs the row predicate loop,
* ``latest_before`` — batched kernel vs per-probe calls.

Results are written to ``benchmarks/results/BENCH_columnar_join.json`` so
subsequent PRs have a perf trajectory to defend. Acceptance: the columnar
``build_training_set`` is ≥10x the row path at 100k events / 10k labels.

Run the full pytest bench, or the CLI smoke target::

    PYTHONPATH=src python -m pytest benchmarks/bench_a4_columnar_join.py -q
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.clock import SimClock
from repro.compiler import ColumnRef
from repro.core import (
    Feature,
    FeatureSetSpec,
    FeatureStore,
    FeatureView,
    TrainingSet,
)
from repro.errors import ValidationError
from repro.storage import Query, TableSchema

DAY = 86400.0
N_FEATURES = 8
N_SNAPSHOTS = 8
TIME_SPAN = 30 * DAY
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_columnar_join.json"

DEFAULT_SIZES = (10_000, 100_000)
FULL_SIZES = (10_000, 100_000, 1_000_000)


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs, plus the last return value."""
    best = float("inf")
    result = None
    for __ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _build_world(n_events: int, seed: int = 0):
    """A populated store + labels for one bench size."""
    rng = np.random.default_rng(seed)
    n_entities = max(50, n_events // 50)
    n_labels = max(100, n_events // 10)

    store = FeatureStore(clock=SimClock())
    columns = {f"f{k}": "float" for k in range(N_FEATURES)}
    store.create_source_table("events", TableSchema(columns=columns))
    store.register_entity("user")
    store.publish_view(
        FeatureView(
            name="signals",
            source_table="events",
            entity="user",
            features=tuple(
                Feature(f"f{k}", "float", ColumnRef(f"f{k}"))
                for k in range(N_FEATURES)
            ),
            cadence=DAY,
        )
    )

    entities = rng.integers(0, n_entities, size=n_events)
    timestamps = rng.uniform(0.0, TIME_SPAN, size=n_events)
    values = rng.normal(size=(n_events, N_FEATURES))
    # ~2% NULLs so the NaN path is exercised end to end.
    null_mask = rng.random((n_events, N_FEATURES)) < 0.02
    rows = []
    for i in range(n_events):
        row: dict[str, object] = {
            "entity_id": int(entities[i]),
            "timestamp": float(timestamps[i]),
        }
        for k in range(N_FEATURES):
            row[f"f{k}"] = None if null_mask[i, k] else float(values[i, k])
        rows.append(row)
    t0 = time.perf_counter()
    store.ingest("events", rows)
    ingest_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for snap in range(1, N_SNAPSHOTS + 1):
        store.materialize("signals", as_of=snap * TIME_SPAN / N_SNAPSHOTS)
    materialize_s = time.perf_counter() - t0

    store.create_feature_set(
        FeatureSetSpec(
            name="fs", features=tuple(f"signals:f{k}" for k in range(N_FEATURES))
        )
    )
    labels = [
        (int(rng.integers(0, n_entities)), float(rng.uniform(0.0, TIME_SPAN)), 1.0)
        for __ in range(n_labels)
    ]
    meta = {
        "n_events": n_events,
        "n_entities": n_entities,
        "n_labels": n_labels,
        "n_features": N_FEATURES,
        "n_snapshots": N_SNAPSHOTS,
        "ingest_s": round(ingest_s, 4),
        "materialize_s": round(materialize_s, 4),
    }
    return store, labels, meta


def _scan_resort_baseline(table) -> int:
    """What the pre-PR scan did: re-sort every partition on every call."""
    count = 0
    for key in table.partitions:
        part = table._partitions[key]
        for row in sorted(part.rows, key=lambda r: r["timestamp"]):
            count += 1
    return count


def _historical_features_row(store, entity_events, feature_set):
    """The pre-columnar point-in-time join: one ``latest_before`` per cell."""
    resolved = store.registry.resolve_feature_set(feature_set)
    tables = {
        view.name: store.offline.table(view.materialized_table)
        for view, __ in resolved
    }
    out: list[dict[str, object]] = []
    for entity_id, timestamp in entity_events:
        row: dict[str, object] = {"entity_id": entity_id, "timestamp": timestamp}
        for view, feature_name in resolved:
            hit = tables[view.name].latest_before(entity_id, timestamp)
            key = f"{view.name}@{view.version}:{feature_name}"
            row[key] = None if hit is None else hit.get(feature_name)
        out.append(row)
    return out


def _build_training_set_row(store, labels, feature_set) -> TrainingSet:
    """The pre-columnar ``build_training_set``: a per-cell matrix loop."""
    resolved = store.registry.resolve_feature_set(feature_set)
    for view, feature_name in resolved:
        dtype = view.feature(feature_name).dtype
        if dtype == "string":
            raise ValidationError(
                f"feature {view.name}:{feature_name} is a string; training "
                "sets require numeric features"
            )
    names = tuple(
        f"{view.name}@{view.version}:{feature_name}"
        for view, feature_name in resolved
    )
    n = len(labels)
    joined = _historical_features_row(
        store, [(e, t) for e, t, __ in labels], feature_set
    )
    matrix = np.full((n, len(names)), np.nan)
    for i, row in enumerate(joined):
        for j, name in enumerate(names):
            value = row[name]
            if value is not None:
                matrix[i, j] = float(value)  # type: ignore[arg-type]
    return TrainingSet(
        features=matrix,
        labels=np.array([label for __, __, label in labels]),
        timestamps=np.array([t for __, t, __ in labels]),
        entity_ids=np.array([e for e, __, __ in labels], dtype=np.int64),
        feature_names=names,
        feature_set=feature_set,
    )


_VALUE_DTYPES = {"float": np.float64, "int": np.int64, "string": object}


def _query_matching(query):
    """The pre-columnar ``Query`` row loop: scan, match every predicate."""
    emitted = 0
    for row in query.table.scan(start=query._start, end=query._end):
        if all(p.matches(row) for p in query._predicates):
            yield row
            emitted += 1
            if query._limit is not None and emitted >= query._limit:
                return


def _query_count_row(query) -> int:
    return sum(1 for __ in _query_matching(query))


def _query_values_row(query, column: str) -> np.ndarray:
    collected = [
        row[column] for row in _query_matching(query) if row.get(column) is not None
    ]
    dtype = _VALUE_DTYPES[query.table.schema.column_kind(column)]
    return np.asarray(collected, dtype=dtype)


def run_case(n_events: int, seed: int = 0, repeats: int = 3) -> dict:
    """Measure one size; returns a JSON-able result dict."""
    store, labels, meta = _build_world(n_events, seed)
    table = store.offline.table("events")

    # -- point-in-time training join -------------------------------------
    row_s, ts_row = _best_of(
        lambda: _build_training_set_row(store, labels, "fs"), repeats
    )
    col_s, ts_col = _best_of(
        lambda: store.build_training_set(labels, "fs"), repeats
    )
    parity = bool(
        np.array_equal(ts_row.features, ts_col.features, equal_nan=True)
    )

    # -- batched as-of kernel --------------------------------------------
    probe_entities = np.asarray([e for e, __, __ in labels], dtype=np.int64)
    probe_ts = np.asarray([t for __, t, __ in labels], dtype=np.float64)
    asof_loop_s, __ = _best_of(
        lambda: [
            table.latest_before(int(e), float(t))
            for e, t in zip(probe_entities, probe_ts)
        ],
        repeats,
    )
    asof_batch_s, __ = _best_of(
        lambda: table.latest_before_batch(probe_entities, probe_ts), repeats
    )

    # -- scans ------------------------------------------------------------
    scan_resort_s, __ = _best_of(lambda: _scan_resort_baseline(table), repeats)
    scan_cached_s, scanned = _best_of(
        lambda: sum(1 for __ in table.scan()), repeats
    )
    assert scanned == n_events

    # -- declarative queries ----------------------------------------------
    query = Query(table).where("f0", ">", 0.0).where("f1", "<=", 0.5)
    query.count()  # warm the column caches: steady-state comparison
    count_row_s, count_row = _best_of(lambda: _query_count_row(query), repeats)
    count_vec_s, count_vec = _best_of(query.count, repeats)
    assert count_row == count_vec
    agg_vec_s, __ = _best_of(lambda: query.aggregate("f2", "mean"), repeats)

    def _agg_rowpath():
        vals = _query_values_row(query, "f2")
        return float(np.mean(vals)) if len(vals) else None

    agg_row_s, __ = _best_of(_agg_rowpath, repeats)

    def speedup(row: float, col: float) -> float:
        return round(row / col, 2) if col > 0 else float("inf")

    return {
        **meta,
        "build_training_set": {
            "row_s": round(row_s, 4),
            "columnar_s": round(col_s, 4),
            "speedup": speedup(row_s, col_s),
            "parity_nan_equal": parity,
        },
        "latest_before_10k_probes": {
            "per_call_s": round(asof_loop_s, 4),
            "batched_s": round(asof_batch_s, 4),
            "speedup": speedup(asof_loop_s, asof_batch_s),
        },
        "scan_full_table": {
            "resort_every_call_s": round(scan_resort_s, 4),
            "cached_order_s": round(scan_cached_s, 4),
            "speedup": speedup(scan_resort_s, scan_cached_s),
            "rows_per_s": int(n_events / scan_cached_s) if scan_cached_s else None,
        },
        "query_count_2_predicates": {
            "row_s": round(count_row_s, 4),
            "vectorized_s": round(count_vec_s, 4),
            "speedup": speedup(count_row_s, count_vec_s),
        },
        "query_aggregate_mean": {
            "row_s": round(agg_row_s, 4),
            "vectorized_s": round(agg_vec_s, 4),
            "speedup": speedup(agg_row_s, agg_vec_s),
        },
    }


def run_suite(sizes=DEFAULT_SIZES, seed: int = 0, repeats: int = 3) -> dict:
    """Run every size and assemble the trajectory document."""
    return {
        "bench": "a4_columnar_join",
        "unit": "seconds (best of %d)" % repeats,
        "sizes": {str(n): run_case(n, seed, repeats) for n in sizes},
    }


def write_json(results: dict, path: pathlib.Path = RESULTS_PATH) -> pathlib.Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# -- pytest entry point -------------------------------------------------------


def test_a4_columnar_join(report):
    sizes = FULL_SIZES if os.environ.get("REPRO_BENCH_FULL") else DEFAULT_SIZES
    results = run_suite(sizes)
    write_json(results)

    report.line("A4: columnar offline engine vs row-at-a-time path")
    report.line(f"(written to {RESULTS_PATH.relative_to(RESULTS_PATH.parents[2])})")
    header = ["events", "pit row_s", "pit col_s", "pit x", "scan x",
              "count x", "asof x"]
    rows = []
    for size, case in results["sizes"].items():
        rows.append([
            size,
            case["build_training_set"]["row_s"],
            case["build_training_set"]["columnar_s"],
            case["build_training_set"]["speedup"],
            case["scan_full_table"]["speedup"],
            case["query_count_2_predicates"]["speedup"],
            case["latest_before_10k_probes"]["speedup"],
        ])
    report.table(header, rows, width=12)

    for case in results["sizes"].values():
        assert case["build_training_set"]["parity_nan_equal"]
    # Acceptance: ≥10x on the PIT join at 100k events / 10k labels.
    big = results["sizes"].get("100000")
    if big is not None:
        assert big["build_training_set"]["speedup"] >= 10.0, big

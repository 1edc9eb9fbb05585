"""E18 — vector serving plane: live availability, freshness, online recall.

The paper's §3–4 claim is that embeddings need a *serving plane*, not
just a store: live upserts, non-blocking rebuilds, and online quality
monitoring. This bench measures whether ``repro.vecserve`` delivers:

* **availability under rebuild** — reader threads issue a continuous
  query stream while the writer upserts waves of fresh vectors and runs
  blue/green compactions (index rebuild + atomic swap) the whole time.
  Counted: failed queries (exceptions), blocked queries (latency above a
  generous stall bound), partial results. Acceptance: zero failed, zero
  blocked.
* **freshness** — after each upsert wave, the writer immediately queries
  for every fresh vector *before* compaction folds it; the hit rate must
  be 1.0 (the exact delta serves the young rows).
* **online recall and ANN economics** — a served table over a clustered
  corpus with a 100%-sampled
  :class:`~repro.vecserve.monitor.RecallMonitor` answers a query stream;
  the sampled shadow queries yield online recall@10 (acceptance: ≥0.9).
  Every served generation is an exact scan, so this reads 1.0 by
  construction and guards the merge path. The ANN economics are the
  evidence for serving exact scans: a :class:`repro.index.HNSWIndex`
  over the same corpus is timed against the served table on *both* axes
  that matter, wall time and distance evaluations per query, plus its
  build time (paid again on every compaction if it served). The work
  reduction (evals/query vs corpus size) is the hardware-independent
  number; the wall ratio reflects this host's economics — a BLAS block
  scan is cheap, so the graph walk's pruning does not necessarily win
  wall time. ``cpu_count`` is recorded alongside so the wall numbers can
  be read in context.
* **scatter-gather economics** — (a) micro-batched queries vs the same
  stream issued one at a time (batching amortizes task submission, lock
  acquisition, and future bookkeeping across the batch: a real speedup
  on any host), and (b) batched throughput at 1 vs 4 shards (true
  parallel speedup requires >1 CPU; on a single-core host this measures
  the sharding *overhead* instead, which should be near zero).

Results land in ``benchmarks/results/BENCH_vector_serving.json``.

Run the pytest bench, or the CLI smoke target::

    PYTHONPATH=src python -m pytest benchmarks/bench_e18_vector_serving.py -q
    python benchmarks/run_benchmarks.py --smoke --targets vectors
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.index import HNSWIndex, recall_at_k
from repro.vecserve import VectorService

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_vector_serving.json"
)

N_SHARDS = 4
RECALL_K = 10
STALL_BOUND_S = 1.0  # a query slower than this counts as "blocked"

HNSW_KWARGS = dict(m=8, ef_construction=64, ef_search=48, seed=0)

#: Per-scale case sizing: smoke for CI, default for the tracked JSON,
#: full (REPRO_BENCH_FULL=1) for overnight numbers.
SCALES = {
    "smoke": dict(
        avail_rows=1_200, avail_waves=3, avail_wave_size=25, avail_readers=2,
        recall_rows=4_000, recall_queries=100,
        shard_rows=20_000, shard_queries=48,
    ),
    "default": dict(
        avail_rows=3_000, avail_waves=6, avail_wave_size=40, avail_readers=3,
        recall_rows=12_000, recall_queries=200,
        shard_rows=60_000, shard_queries=64,
    ),
    "full": dict(
        avail_rows=12_000, avail_waves=8, avail_wave_size=50, avail_readers=3,
        recall_rows=24_000, recall_queries=400,
        shard_rows=120_000, shard_queries=128,
    ),
}

AVAIL_DIM = 32
RECALL_DIM = 64
SHARD_DIM = 64


def _random_corpus(
    n_rows: int, dim: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return (
        np.arange(n_rows, dtype=np.int64),
        rng.normal(size=(n_rows, dim)),
    )


def _clustered_corpus(
    n_rows: int, dim: int, n_centers: int = 32, seed: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Clustered embeddings (the regime ANN graphs are built for)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_centers, dim)) * 3.0
    assignments = rng.integers(0, n_centers, size=n_rows)
    vectors = centers[assignments] + rng.normal(size=(n_rows, dim))
    return np.arange(n_rows, dtype=np.int64), vectors


def _availability_case(
    n_rows: int, n_readers: int, n_waves: int, wave_size: int
) -> dict:
    """Continuous queries vs background upserts + rebuild/swap cycles."""
    ids, vectors = _random_corpus(n_rows, AVAIL_DIM)
    with VectorService(n_workers=8) as service:
        service.serve_matrix(
            "live", 1, ids, vectors,
            n_shards=N_SHARDS, sample_rate=0.0,
            deadline_s=None,  # availability counts *stalls*, not deadline sheds
        )
        stop = threading.Event()
        failed: list[BaseException] = []
        blocked = [0]
        partial = [0]
        completed = [0]
        lock = threading.Lock()

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                query = rng.normal(size=AVAIL_DIM)
                t0 = time.perf_counter()
                try:
                    result = service.search("live", query, k=RECALL_K)
                except BaseException as exc:  # noqa: BLE001
                    failed.append(exc)
                    return
                elapsed = time.perf_counter() - t0
                with lock:
                    completed[0] += 1
                    if elapsed > STALL_BOUND_S:
                        blocked[0] += 1
                    if result.partial:
                        partial[0] += 1

        threads = [
            threading.Thread(target=reader, args=(100 + i,))
            for i in range(n_readers)
        ]
        for thread in threads:
            thread.start()

        rng = np.random.default_rng(7)
        fresh_hits = 0
        fresh_total = 0
        compactions = 0
        t0 = time.perf_counter()
        for wave in range(n_waves):
            base = 1_000_000 + wave * wave_size
            fresh_ids = np.arange(base, base + wave_size, dtype=np.int64)
            fresh_vectors = rng.normal(size=(wave_size, AVAIL_DIM))
            service.upsert("live", fresh_ids, fresh_vectors)
            # freshness: every young row retrievable before compaction
            for entity, vector in zip(fresh_ids.tolist(), fresh_vectors):
                top = service.search("live", vector, k=1)
                fresh_total += 1
                fresh_hits += int(len(top) and top.ids[0] == entity)
            # blue/green: rebuild + swap while the readers keep going
            service.compact("live")
            compactions += 1
        load_s = time.perf_counter() - t0
        stop.set()
        for thread in threads:
            thread.join()

        table = service.table("live")
        swaps = sum(shard.cell.swaps for shard in table.shards)
        generation = table.max_generation
        pending = table.pending_mutations

    return {
        "rows": n_rows,
        "dim": AVAIL_DIM,
        "n_readers": n_readers,
        "upsert_waves": n_waves,
        "wave_size": wave_size,
        "compactions": compactions,
        "generation_reached": generation,
        "snapshot_swaps": swaps,
        "queries_completed": completed[0],
        "queries_failed": len(failed),
        "queries_blocked_over_1s": blocked[0],
        "queries_partial": partial[0],
        "fresh_upserts_queried": fresh_total,
        "fresh_upserts_hit": fresh_hits,
        "fresh_hit_rate": round(fresh_hits / fresh_total, 4) if fresh_total else None,
        "load_seconds": round(load_s, 3),
        "pending_after": pending,
    }


def _recall_case(n_rows: int, n_queries: int) -> dict:
    """Online recall@10 (100%-sampled shadow queries) + ANN economics."""
    ids, vectors = _clustered_corpus(n_rows, RECALL_DIM)
    rng = np.random.default_rng(2)
    # Queries near the corpus (perturbed members): the realistic regime.
    picks = rng.integers(0, n_rows, size=n_queries)
    queries = vectors[picks] + 0.1 * rng.normal(size=(n_queries, RECALL_DIM))
    with VectorService(n_workers=8) as service:
        service.serve_matrix(
            "quality", 1, ids, vectors,
            n_shards=N_SHARDS,
            sample_rate=1.0, recall_k=RECALL_K, deadline_s=None,
        )
        t0 = time.perf_counter()
        for query in queries:
            service.search("quality", query, k=RECALL_K)
        monitored_s = time.perf_counter() - t0  # includes the shadow oracle scans

        # The served exact scatter-gather, without the shadow queries.
        table = service.table("quality")
        t0 = time.perf_counter()
        exact = [table.search(query, k=RECALL_K) for query in queries]
        exact_s = time.perf_counter() - t0

        monitor = service.recall_monitor("quality")
        recall = monitor.recall_estimate()
        samples = monitor.samples.value
        latency = table.metrics.search_latency.summary()

    # The ANN alternative, built and queried over the same corpus.
    hnsw = HNSWIndex(**HNSW_KWARGS)
    t0 = time.perf_counter()
    hnsw.build(vectors)
    ann_build_s = time.perf_counter() - t0
    evals_before = hnsw.distance_evaluations
    t0 = time.perf_counter()
    ann = [hnsw.query(query, k=RECALL_K) for query in queries]
    ann_s = time.perf_counter() - t0
    evals_per_query = (hnsw.distance_evaluations - evals_before) / n_queries
    ann_recall = float(
        np.mean(
            [recall_at_k(got, truth, k=RECALL_K) for got, truth in zip(ann, exact)]
        )
    )

    return {
        "rows": n_rows,
        "dim": RECALL_DIM,
        "n_queries": n_queries,
        "codec": "raw",
        "corpus": "clustered",
        "recall_at_10_online": round(recall, 4) if recall is not None else None,
        "recall_samples": samples,
        "ann_index": "hnsw",
        "ann_build_s": round(ann_build_s, 3),
        "ann_recall_at_10": round(ann_recall, 4),
        "ann_query_s": round(ann_s, 4),
        "exact_query_s": round(exact_s, 4),
        "ann_vs_exact_wall_speedup": (
            round(exact_s / ann_s, 2) if ann_s else None
        ),
        "ann_evals_per_query": round(evals_per_query, 1),
        "exact_evals_per_query": n_rows,
        "ann_vs_exact_work_reduction": (
            round(n_rows / evals_per_query, 1) if evals_per_query else None
        ),
        "cpu_count": os.cpu_count(),
        "monitored_stream_s": round(monitored_s, 4),
        "p50_ms": round(latency["p50_s"] * 1e3, 3),
        "p95_ms": round(latency["p95_s"] * 1e3, 3),
    }


def _sharding_case(n_rows: int, n_queries: int, batch: int = 16) -> dict:
    """Scatter-gather economics of the exact scan: batching amortization
    and per-shard overhead."""
    ids, vectors = _random_corpus(n_rows, SHARD_DIM, seed=3)
    rng = np.random.default_rng(4)
    queries = rng.normal(size=(n_queries, SHARD_DIM))
    batched_s: dict[int, float] = {}
    per_query_s: float | None = None
    for shards in (1, N_SHARDS):
        with VectorService(n_workers=8) as service:
            service.serve_matrix(
                "scale", 1, ids, vectors,
                n_shards=shards,
                sample_rate=0.0, deadline_s=None,
            )
            service.search_batch("scale", queries[:batch], k=RECALL_K)  # warm
            t0 = time.perf_counter()
            for start in range(0, n_queries, batch):
                service.search_batch(
                    "scale", queries[start : start + batch], k=RECALL_K
                )
            batched_s[shards] = time.perf_counter() - t0
            if shards == N_SHARDS:
                t0 = time.perf_counter()
                for query in queries:
                    service.search("scale", query, k=RECALL_K)
                per_query_s = time.perf_counter() - t0
    return {
        "rows": n_rows,
        "dim": SHARD_DIM,
        "n_queries": n_queries,
        "batch": batch,
        "cpu_count": os.cpu_count(),
        "single_shard_batched_s": round(batched_s[1], 4),
        f"sharded_{N_SHARDS}_batched_s": round(batched_s[N_SHARDS], 4),
        "sharded_batched_speedup": (
            round(batched_s[1] / batched_s[N_SHARDS], 2)
            if batched_s[N_SHARDS]
            else None
        ),
        f"per_query_{N_SHARDS}_shards_s": (
            round(per_query_s, 4) if per_query_s is not None else None
        ),
        "batching_amortization_speedup": (
            round(per_query_s / batched_s[N_SHARDS], 2)
            if per_query_s and batched_s[N_SHARDS]
            else None
        ),
    }


def run_suite(scale: str = "default") -> dict:
    sizing = SCALES[scale]
    return {
        "bench": "e18_vector_serving",
        "scale": scale,
        "n_shards": N_SHARDS,
        "cpu_count": os.cpu_count(),
        "availability": _availability_case(
            sizing["avail_rows"],
            n_readers=sizing["avail_readers"],
            n_waves=sizing["avail_waves"],
            wave_size=sizing["avail_wave_size"],
        ),
        "recall": _recall_case(
            sizing["recall_rows"], sizing["recall_queries"]
        ),
        "sharding": _sharding_case(
            sizing["shard_rows"], sizing["shard_queries"]
        ),
    }


def write_json(results: dict, path: pathlib.Path = RESULTS_PATH) -> pathlib.Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def check_acceptance(results: dict) -> list[str]:
    """The ISSUE's gates, as a reusable list of failure strings."""
    failures = []
    avail = results["availability"]
    recall = results["recall"]
    if avail["queries_failed"]:
        failures.append(f"{avail['queries_failed']} queries failed during rebuilds")
    if avail["queries_blocked_over_1s"]:
        failures.append(
            f"{avail['queries_blocked_over_1s']} queries blocked over "
            f"{STALL_BOUND_S}s during rebuilds"
        )
    if avail["fresh_hit_rate"] != 1.0:
        failures.append(f"fresh hit rate {avail['fresh_hit_rate']} != 1.0")
    if recall["recall_at_10_online"] is None:
        failures.append("no online recall samples collected")
    elif recall["recall_at_10_online"] < 0.9:
        failures.append(
            f"online recall@10 {recall['recall_at_10_online']} < 0.9"
        )
    return failures


# -- pytest entry point -------------------------------------------------------


def test_e18_vector_serving(report):
    scale = "full" if os.environ.get("REPRO_BENCH_FULL") else "default"
    results = run_suite(scale)
    write_json(results)

    avail = results["availability"]
    recall = results["recall"]
    sharding = results["sharding"]

    report.line("E18: vector serving — availability, freshness, online recall")
    report.line(f"(written to {RESULTS_PATH.relative_to(RESULTS_PATH.parents[2])})")
    report.line(
        f"availability: {avail['queries_completed']} queries over "
        f"{avail['compactions']} rebuild+swap cycles "
        f"({avail['snapshot_swaps']} swaps) — "
        f"failed={avail['queries_failed']} "
        f"blocked={avail['queries_blocked_over_1s']} "
        f"partial={avail['queries_partial']}"
    )
    report.line(
        f"freshness: {avail['fresh_upserts_hit']}/"
        f"{avail['fresh_upserts_queried']} fresh upserts retrievable "
        f"pre-compaction (rate={avail['fresh_hit_rate']})"
    )
    report.line(
        f"recall: online recall@10={recall['recall_at_10_online']} over "
        f"{recall['recall_samples']} sampled shadow queries (exact, clustered); "
        f"hnsw {recall['ann_evals_per_query']} evals/query vs exact "
        f"{recall['exact_evals_per_query']} "
        f"({recall['ann_vs_exact_work_reduction']}x less work, "
        f"recall@10 {recall['ann_recall_at_10']}, "
        f"build {recall['ann_build_s']}s); "
        f"wall {recall['ann_query_s']}s vs served {recall['exact_query_s']}s "
        f"({recall['ann_vs_exact_wall_speedup']}x on "
        f"{recall['cpu_count']} cpu)"
    )
    report.line(
        f"scatter-gather: batching {sharding['batching_amortization_speedup']}x "
        f"vs per-query fan-out; 1 shard {sharding['single_shard_batched_s']}s "
        f"vs {results['n_shards']} shards "
        f"{sharding[f'sharded_{N_SHARDS}_batched_s']}s batched "
        f"({sharding['sharded_batched_speedup']}x on "
        f"{sharding['cpu_count']} cpu)"
    )

    failures = check_acceptance(results)
    assert not failures, failures

"""E19 — compressed embedding codecs: memory/recall tradeoff + live re-encode.

The paper's §4 cost argument is that embedding ecosystems are
memory-bound: a serving tier that must hold every vector at full
precision caps how many tables (and versions) one box can serve. The
codec plane (``repro.codec``) answers with compressed sealed storage —
int8 scalar quantization and product quantization behind one
``VectorCodec`` protocol — scanned by asymmetric-distance (ADC) kernels
and optionally re-ranked against a small fp32 oracle reserve. This bench
measures whether the compression is *free enough to use*:

* **memory/recall tradeoff** — the same clustered corpus served raw
  (fp64), fp32, int8, and PQ. For each codec: resident bytes per vector
  (the memory-reduction factor vs the raw matrix), offline recall@10 of
  the served path vs the exact fp32 oracle, and *online* recall@10 from
  the 100%-sampled :class:`~repro.vecserve.monitor.RecallMonitor` over
  the same query stream — the two estimates must agree, or the
  monitoring is lying. Acceptance: int8 and PQ both reach ≥ 4x memory
  reduction at recall@10 ≥ 0.95, and |online − offline| ≤ 0.05.
* **ADC scan economics** — per-query wall time of the coded scan vs the
  raw scan at the same shard layout (ADC is a smaller memory walk; on a
  BLAS-rich host the fp64 matmul is strong competition, so ``cpu_count``
  is recorded for context).
* **live re-encode** — a raw table is blue/green re-encoded to int8
  *while* reader threads stream queries and a writer streams upserts.
  Acceptance: zero failed queries, every upsert retrievable afterwards,
  and the table's bytes/vector actually drops.

Results land in ``benchmarks/results/BENCH_compressed_vectors.json``.

Run the pytest bench, or the CLI smoke target::

    PYTHONPATH=src python -m pytest benchmarks/bench_e19_compressed_vectors.py -q
    python benchmarks/run_benchmarks.py --smoke --targets codecs
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np

from repro.vecserve import VectorService

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_compressed_vectors.json"
)

N_SHARDS = 2
RECALL_K = 10
DIM = 64
RAW_BYTES_PER_VECTOR = 8.0 * DIM  # fp64 sealed matrix

#: codec → (serve_matrix kwargs, oversample for the oracle re-rank)
CODEC_CASES = [
    ("fp32", {"codec": "fp32"}, 1),
    ("int8", {"codec": "int8"}, 4),
    (
        "pq",
        {"codec": "pq", "codec_options": {"n_subspaces": 8, "n_codes": 256}},
        8,
    ),
]

SCALES = {
    "smoke": dict(
        tradeoff_rows=4_000, tradeoff_queries=120,
        live_rows=2_000, live_waves=3, live_wave_size=30, live_readers=2,
    ),
    "default": dict(
        tradeoff_rows=12_000, tradeoff_queries=250,
        live_rows=6_000, live_waves=5, live_wave_size=40, live_readers=3,
    ),
    "full": dict(
        tradeoff_rows=40_000, tradeoff_queries=500,
        live_rows=20_000, live_waves=8, live_wave_size=50, live_readers=3,
    ),
}


def _clustered_corpus(
    n_rows: int, dim: int = DIM, n_centers: int = 32, seed: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Clustered embeddings (the regime PQ codebooks are built for)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_centers, dim)) * 3.0
    assignments = rng.integers(0, n_centers, size=n_rows)
    vectors = centers[assignments] + rng.normal(size=(n_rows, dim))
    return np.arange(n_rows, dtype=np.int64), vectors


def _query_stream(
    vectors: np.ndarray, n_queries: int, seed: int = 2
) -> np.ndarray:
    """Perturbed corpus members: the realistic near-duplicate regime."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(vectors), size=n_queries)
    return vectors[picks] + 0.1 * rng.normal(size=(n_queries, vectors.shape[1]))


def _tradeoff_case(n_rows: int, n_queries: int) -> dict:
    """Every codec over the same corpus: memory, offline+online recall."""
    ids, vectors = _clustered_corpus(n_rows)
    queries = _query_stream(vectors, n_queries)
    codecs: dict[str, dict] = {}

    # Raw fp64 baseline: wall time + the memory denominator.
    with VectorService(n_workers=4) as service:
        service.serve_matrix(
            "raw", 1, ids, vectors,
            n_shards=N_SHARDS,
            sample_rate=0.0, deadline_s=None,
        )
        table = service.table("raw")
        t0 = time.perf_counter()
        for query in queries:
            table.search(query, k=RECALL_K)
        raw_scan_s = time.perf_counter() - t0
        raw_bpv = table.bytes_per_vector

    for label, kwargs, oversample in CODEC_CASES:
        with VectorService(n_workers=4) as service:
            service.serve_matrix(
                "coded", 1, ids, vectors,
                n_shards=N_SHARDS,
                sample_rate=1.0, recall_k=RECALL_K, deadline_s=None,
                keep_oracle=True, rerank_oversample=oversample,
                **kwargs,
            )
            table = service.table("coded")

            # Offline recall: served path vs the exact fp32 oracle.
            hits = total = 0
            t0 = time.perf_counter()
            for query in queries:
                served = set(table.search(query, k=RECALL_K).ids.tolist())
                truth = set(table.search_exact(query, k=RECALL_K).ids.tolist())
                hits += len(served & truth)
                total += len(truth)
            offline_recall = hits / total if total else None
            t0 = time.perf_counter()
            for query in queries:
                table.search(query, k=RECALL_K)
            coded_scan_s = time.perf_counter() - t0

            # Online recall: the monitor's 100%-sampled shadow queries
            # over the same stream, attributed per (generation, codec).
            for query in queries:
                service.search("coded", query, k=RECALL_K)
            monitor = service.recall_monitor("coded")
            online_recall = monitor.recall_estimate()
            by_context = monitor.recall_by_context()

            bpv = table.bytes_per_vector
            codecs[label] = {
                "bytes_per_vector": round(bpv, 2),
                "memory_reduction_vs_raw": round(raw_bpv / bpv, 2),
                "rerank_oversample": oversample,
                "recall_at_10_offline": (
                    round(offline_recall, 4) if offline_recall is not None else None
                ),
                "recall_at_10_online": (
                    round(online_recall, 4) if online_recall is not None else None
                ),
                "online_offline_gap": (
                    round(abs(online_recall - offline_recall), 4)
                    if online_recall is not None and offline_recall is not None
                    else None
                ),
                "recall_by_context": {
                    key: round(value, 4) for key, value in by_context.items()
                },
                "coded_scan_s": round(coded_scan_s, 4),
                "scan_vs_raw_wall_ratio": (
                    round(raw_scan_s / coded_scan_s, 2) if coded_scan_s else None
                ),
            }

    return {
        "rows": n_rows,
        "dim": DIM,
        "n_queries": n_queries,
        "corpus": "clustered",
        "raw_bytes_per_vector": round(raw_bpv, 2),
        "raw_scan_s": round(raw_scan_s, 4),
        "cpu_count": os.cpu_count(),
        "codecs": codecs,
    }


def _live_reencode_case(
    n_rows: int, n_readers: int, n_waves: int, wave_size: int
) -> dict:
    """Blue/green fp32→int8 re-encode under sustained reads and writes."""
    ids, vectors = _clustered_corpus(n_rows, seed=5)
    with VectorService(n_workers=4) as service:
        service.serve_matrix(
            "live", 1, ids, vectors,
            n_shards=N_SHARDS,
            sample_rate=0.0, deadline_s=None,
        )
        table = service.table("live")
        bpv_before = table.bytes_per_vector

        stop = threading.Event()
        failed: list[BaseException] = []
        completed = [0]
        lock = threading.Lock()

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            while not stop.is_set():
                query = rng.normal(size=DIM)
                try:
                    service.search("live", query, k=RECALL_K)
                except BaseException as exc:  # noqa: BLE001
                    failed.append(exc)
                    return
                with lock:
                    completed[0] += 1

        threads = [
            threading.Thread(target=reader, args=(200 + i,))
            for i in range(n_readers)
        ]
        for thread in threads:
            thread.start()

        rng = np.random.default_rng(9)
        written: list[tuple[int, np.ndarray]] = []
        t0 = time.perf_counter()
        for wave in range(n_waves):
            base = 1_000_000 + wave * wave_size
            fresh_ids = np.arange(base, base + wave_size, dtype=np.int64)
            fresh_vectors = rng.normal(size=(wave_size, DIM))
            service.upsert("live", fresh_ids, fresh_vectors)
            written.extend(zip(fresh_ids.tolist(), fresh_vectors))
            # the tentpole moment: re-encode mid-stream (raw → int8 on
            # the first wave, then keep re-sealing into int8)
            stats = service.reencode("live", "int8")
        reencode_s = time.perf_counter() - t0
        stop.set()
        for thread in threads:
            thread.join()

        bpv_after = table.bytes_per_vector
        fresh_hits = 0
        for entity, vector in written:
            top = service.search("live", vector, k=1)
            fresh_hits += int(len(top) and top.ids[0] == entity)
        codec_after = table.codec_kind
        swaps = sum(shard.cell.swaps for shard in table.shards)

    return {
        "rows": n_rows,
        "dim": DIM,
        "n_readers": n_readers,
        "upsert_waves": n_waves,
        "wave_size": wave_size,
        "reencodes": n_waves,
        "reencode_wall_s": round(reencode_s, 3),
        "snapshot_swaps": swaps,
        "codec_after": codec_after,
        "codec_stats_kinds": sorted({s.codec_kind for s in stats}),
        "bytes_per_vector_before": round(bpv_before, 2),
        "bytes_per_vector_after": round(bpv_after, 2),
        "memory_reduction": (
            round(bpv_before / bpv_after, 2) if bpv_after else None
        ),
        "queries_completed": completed[0],
        "queries_failed": len(failed),
        "fresh_upserts_queried": len(written),
        "fresh_upserts_hit": fresh_hits,
        "fresh_hit_rate": (
            round(fresh_hits / len(written), 4) if written else None
        ),
    }


def run_suite(scale: str = "default") -> dict:
    sizing = SCALES[scale]
    return {
        "bench": "e19_compressed_vectors",
        "scale": scale,
        "n_shards": N_SHARDS,
        "cpu_count": os.cpu_count(),
        "tradeoff": _tradeoff_case(
            sizing["tradeoff_rows"], sizing["tradeoff_queries"]
        ),
        "live_reencode": _live_reencode_case(
            sizing["live_rows"],
            n_readers=sizing["live_readers"],
            n_waves=sizing["live_waves"],
            wave_size=sizing["live_wave_size"],
        ),
    }


def write_json(results: dict, path: pathlib.Path = RESULTS_PATH) -> pathlib.Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def check_acceptance(results: dict) -> list[str]:
    """The ISSUE's gates, as a reusable list of failure strings."""
    failures = []
    codecs = results["tradeoff"]["codecs"]
    for label in ("int8", "pq"):
        case = codecs[label]
        if case["memory_reduction_vs_raw"] < 4.0:
            failures.append(
                f"{label}: memory reduction "
                f"{case['memory_reduction_vs_raw']}x < 4x"
            )
        recall = case["recall_at_10_offline"]
        if recall is None or recall < 0.95:
            failures.append(f"{label}: offline recall@10 {recall} < 0.95")
        gap = case["online_offline_gap"]
        if gap is None or gap > 0.05:
            failures.append(
                f"{label}: online vs offline recall disagree (gap={gap})"
            )
    live = results["live_reencode"]
    if live["queries_failed"]:
        failures.append(
            f"{live['queries_failed']} queries failed during live re-encode"
        )
    if live["codec_after"] != "int8":
        failures.append(f"table ended as {live['codec_after']!r}, not int8")
    if live["fresh_hit_rate"] != 1.0:
        failures.append(f"fresh hit rate {live['fresh_hit_rate']} != 1.0")
    return failures


# -- pytest entry point -------------------------------------------------------


def test_e19_compressed_vectors(report):
    scale = "full" if os.environ.get("REPRO_BENCH_FULL") else "default"
    results = run_suite(scale)
    write_json(results)

    tradeoff = results["tradeoff"]
    live = results["live_reencode"]

    report.line("E19: compressed codecs — memory/recall tradeoff, live re-encode")
    report.line(f"(written to {RESULTS_PATH.relative_to(RESULTS_PATH.parents[2])})")
    report.line(
        f"raw baseline: {tradeoff['raw_bytes_per_vector']} B/vec, "
        f"scan {tradeoff['raw_scan_s']}s over {tradeoff['n_queries']} queries"
    )
    for label, case in tradeoff["codecs"].items():
        report.line(
            f"{label}: {case['bytes_per_vector']} B/vec "
            f"({case['memory_reduction_vs_raw']}x smaller), "
            f"recall@10 offline={case['recall_at_10_offline']} "
            f"online={case['recall_at_10_online']} "
            f"(gap={case['online_offline_gap']}, "
            f"oversample={case['rerank_oversample']})"
        )
    report.line(
        f"live re-encode: {live['queries_completed']} queries over "
        f"{live['reencodes']} re-seal cycles — "
        f"failed={live['queries_failed']}, "
        f"{live['bytes_per_vector_before']} → "
        f"{live['bytes_per_vector_after']} B/vec "
        f"({live['memory_reduction']}x), "
        f"freshness {live['fresh_upserts_hit']}/"
        f"{live['fresh_upserts_queried']}"
    )

    failures = check_acceptance(results)
    assert not failures, failures

#!/usr/bin/env python
"""Benchmark runner for the repro suite.

Two modes:

* ``--smoke`` — run the perf-trajectory benches in-process at small sizes
  (fast, no pytest) and refresh their tracked JSON documents:
  ``BENCH_columnar_join.json`` (A4 columnar engine),
  ``BENCH_ingestion_bus.json`` (E17 ingestion bus),
  ``BENCH_vector_serving.json`` (E18 vector serving plane),
  ``BENCH_compressed_vectors.json`` (E19 codec plane),
  ``BENCH_pipeline_compiler.json`` (E20 pipeline compiler),
  ``BENCH_network_serving.json`` (E21 network serving plane),
  ``BENCH_cluster.json`` (E22 replicated cluster plane), and
  ``BENCH_io_substrate.json`` (E23 selector I/O substrate). This is
  the CI target: cheap enough for every run. ``--targets columnar bus
  vectors codecs compiler net cluster io`` selects a subset
  (default: all).
  After the
  selected benches refresh their JSON, the perf-trajectory gate
  (``tools/check_trajectory.py``) re-checks every tracked document.
* default — delegate to pytest over the whole ``benchmarks/`` tree
  (``--benchmark-disable`` unless pytest-benchmark timing is wanted).

Usage::

    python benchmarks/run_benchmarks.py --smoke
    python benchmarks/run_benchmarks.py --smoke --targets bus
    python benchmarks/run_benchmarks.py                 # full pytest suite
    python benchmarks/run_benchmarks.py -k a4           # filtered pytest run

``src/`` is put on ``sys.path`` automatically, so no PYTHONPATH gymnastics
are needed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"


def _ensure_paths() -> None:
    for path in (str(SRC_DIR), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _smoke_columnar(sizes: list[int], out: pathlib.Path | None) -> int:
    import bench_a4_columnar_join as a4

    results = a4.run_suite(sizes)
    path = a4.write_json(results, out or a4.RESULTS_PATH)
    print(f"wrote {path}")
    for size, case in results["sizes"].items():
        pit = case["build_training_set"]
        print(
            f"  {size:>9} events: PIT join row {pit['row_s']:.3f}s -> "
            f"columnar {pit['columnar_s']:.4f}s ({pit['speedup']}x), "
            f"scan {case['scan_full_table']['speedup']}x, "
            f"count {case['query_count_2_predicates']['speedup']}x, "
            f"parity={'ok' if pit['parity_nan_equal'] else 'FAIL'}"
        )
        if not pit["parity_nan_equal"]:
            return 1
    return 0


def _smoke_bus(n_events: int) -> int:
    import bench_e17_ingestion_bus as e17

    results = e17.run_suite(n_events)
    path = e17.write_json(results)
    print(f"wrote {path}")
    for name, case in results["policies"].items():
        print(
            f"  fsync={name:<10} produce {case['produce_events_s']:>7} ev/s, "
            f"e2e p50 {case['e2e_p50_ms']:.2f}ms p99 {case['e2e_p99_ms']:.2f}ms"
        )
    rep = results["replay"]
    print(
        f"  replay {rep['events']} events in {rep['replay_s']}s "
        f"({rep['replay_events_s']} ev/s), "
        f"parity={'ok' if rep['parity'] else 'FAIL'}; "
        f"group vs per-record fsync {results['group_vs_per_record_speedup']}x"
    )
    if not rep["parity"]:
        return 1
    if results["group_vs_per_record_speedup"] < 5.0:
        print("  FAIL: group commit under the 5x acceptance bar")
        return 1
    return 0


def _smoke_vectors() -> int:
    import bench_e18_vector_serving as e18

    results = e18.run_suite("smoke")
    path = e18.write_json(results)
    print(f"wrote {path}")
    avail = results["availability"]
    recall = results["recall"]
    sharding = results["sharding"]
    print(
        f"  availability: {avail['queries_completed']} queries over "
        f"{avail['compactions']} rebuild+swap cycles — "
        f"failed={avail['queries_failed']} "
        f"blocked={avail['queries_blocked_over_1s']}; "
        f"freshness {avail['fresh_upserts_hit']}/"
        f"{avail['fresh_upserts_queried']}"
    )
    print(
        f"  recall@10 online {recall['recall_at_10_online']} "
        f"({recall['recall_samples']} shadow samples, exact scan); "
        f"hnsw work {recall['ann_vs_exact_work_reduction']}x less than exact, "
        f"wall {recall['ann_vs_exact_wall_speedup']}x, "
        f"build {recall['ann_build_s']}s on {recall['cpu_count']} cpu"
    )
    print(
        f"  scatter-gather: batching {sharding['batching_amortization_speedup']}x "
        f"vs per-query; sharded batched "
        f"{sharding['sharded_batched_speedup']}x vs 1 shard"
    )
    failures = e18.check_acceptance(results)
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _smoke_codecs() -> int:
    import bench_e19_compressed_vectors as e19

    results = e19.run_suite("smoke")
    path = e19.write_json(results)
    print(f"wrote {path}")
    tradeoff = results["tradeoff"]
    print(
        f"  raw baseline {tradeoff['raw_bytes_per_vector']} B/vec "
        f"({tradeoff['rows']} rows x {tradeoff['dim']}d, clustered)"
    )
    for label, case in tradeoff["codecs"].items():
        print(
            f"  {label:<5} {case['bytes_per_vector']:>6} B/vec "
            f"({case['memory_reduction_vs_raw']}x smaller)  "
            f"recall@10 offline={case['recall_at_10_offline']} "
            f"online={case['recall_at_10_online']} "
            f"(gap={case['online_offline_gap']})"
        )
    live = results["live_reencode"]
    print(
        f"  live re-encode: {live['queries_completed']} queries, "
        f"failed={live['queries_failed']}; "
        f"{live['bytes_per_vector_before']} → "
        f"{live['bytes_per_vector_after']} B/vec "
        f"({live['memory_reduction']}x); "
        f"freshness {live['fresh_upserts_hit']}/{live['fresh_upserts_queried']}"
    )
    failures = e19.check_acceptance(results)
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _smoke_net() -> int:
    import bench_e21_network_serving as e21

    results = e21.run_suite("smoke")
    path = e21.write_json(results)
    print(f"wrote {path}")
    baseline = results["baseline"]
    overload = results["overload"]
    drain = results["drain"]
    high = overload["by_priority"]["high"]
    best_effort = overload["by_priority"]["best_effort"]
    print(
        f"  baseline: {baseline['qps']} req/s, "
        f"p50 {baseline['p50_ms']}ms p99 {baseline['p99_ms']}ms, "
        f"success {baseline['success_rate']:.0%}"
    )
    print(
        f"  overload ({overload['saturation_x']}x watermark): "
        f"high success {high['success_rate']:.1%}, best-effort "
        f"429s={best_effort['throttled']} 503s={best_effort['shed']} "
        f"(shed rate {overload['shed_rate']:.0%})"
    )
    print(
        f"  drain: admitted {drain['admitted']} == "
        f"completed {drain['completed']}, "
        f"dropped={drain['dropped_inflight']} "
        f"leaked_threads={drain['leaked_threads']}"
    )
    failures = e21.check_acceptance(results)
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _smoke_compiler() -> int:
    import bench_e20_pipeline_compiler as e20

    results = e20.run_suite()
    path = e20.write_json(results)
    print(f"wrote {path}")
    mat = results["materialization"]
    print(
        f"  {results['n_events']} events, {mat['n_views']} views: "
        f"naive {mat['naive_s']:.3f}s -> compiled {mat['compiled_s']:.3f}s "
        f"({mat['compiled_vs_naive']}x) -> fused {mat['fused_s']:.3f}s "
        f"({mat['fused_vs_naive']}x), {mat['scans_saved']} scans saved, "
        f"parity={'ok' if mat['parity'] else 'FAIL'}"
    )
    push = results["pushdown"]
    print(
        f"  pushdown: {push['pruned_fraction']:.0%} rows pruned, "
        f"{push['pushed_vs_naive']}x vs naive; "
        f"as-of join {results['asof_join']['fused_vs_naive']}x "
        f"({results['asof_join']['n_probes']} probes)"
    )
    failures = e20.check_acceptance(results)
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _smoke_cluster() -> int:
    import bench_e22_cluster as e22

    results = e22.run_suite("smoke")
    path = e22.write_json(results)
    print(f"wrote {path}")
    replication = results["replication"]
    failover = results["failover"]
    print(
        f"  replication: {replication['write_qps']} w/s "
        f"({replication['n_writers']} Zipfian writers), "
        f"ack p50 {replication['ack_p50_ms']}ms "
        f"p99 {replication['ack_p99_ms']}ms, "
        f"lag max {replication['lag_records_max']} rec, "
        f"parity={'ok' if replication['replication_parity'] else 'FAIL'}"
    )
    print(
        f"  failover: {failover['old_leader']} -> {failover['new_leader']} "
        f"detect+promote {failover['detect_promote_ms']}ms, "
        f"first read {failover['failover_first_read_ms']}ms, "
        f"first write {failover['failover_first_write_ms']}ms; "
        f"acked={failover['n_acked_writes']} "
        f"lost={failover['acked_writes_lost']} "
        f"leaked_threads={failover['leaked_threads']}"
    )
    failures = e22.check_acceptance(results)
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _smoke_io() -> int:
    import bench_e23_io_substrate as e23

    results = e23.run_suite("smoke")
    path = e23.write_json(results)
    print(f"wrote {path}")
    selector = results["connection_scale"]["selector"]
    baseline = results["connection_scale"]["baseline"]
    replication = results["socket_replication"]
    failover = results["socket_failover"]
    print(
        f"  selector: {selector['concurrent_connections']} concurrent "
        f"keep-alive conns on {selector['threads_at_peak']} threads, "
        f"request p50 {selector['request_p50_ms']}ms "
        f"p99 {selector['request_p99_ms']}ms"
    )
    print(
        f"  baseline: {baseline['connections']} conns cost "
        f"{baseline['threads_at_peak']} threads "
        f"({baseline['threads_per_connection']}/conn)"
    )
    print(
        f"  socket replication: {replication['write_qps']} w/s, "
        f"ack p50 {replication['ack_p50_ms']}ms "
        f"p99 {replication['ack_p99_ms']}ms, "
        f"parity={'ok' if replication['replication_parity'] else 'FAIL'}"
    )
    print(
        f"  socket failover: {failover['old_leader']} -> "
        f"{failover['new_leader']} in {failover['detect_promote_ms']}ms, "
        f"lost={failover['acked_writes_lost']} "
        f"leaked_threads={failover['leaked_threads']} "
        f"leaked_fds={failover['leaked_fds']}"
    )
    failures = e23.check_acceptance(results)
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def _check_trajectory() -> int:
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_trajectory", REPO_ROOT / "tools" / "check_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_trajectory", module)
    spec.loader.exec_module(module)
    failures = module.check()
    print("trajectory gate:", "ok" if not failures else "FAIL")
    for failure in failures:
        print(f"  FAIL: {failure}")
    return 1 if failures else 0


def run_smoke(
    sizes: list[int],
    out: pathlib.Path | None,
    targets: list[str],
    bus_events: int,
) -> int:
    _ensure_paths()
    status = 0
    if "columnar" in targets:
        status = _smoke_columnar(sizes, out) or status
    if "bus" in targets:
        status = _smoke_bus(bus_events) or status
    if "vectors" in targets:
        status = _smoke_vectors() or status
    if "codecs" in targets:
        status = _smoke_codecs() or status
    if "compiler" in targets:
        status = _smoke_compiler() or status
    if "net" in targets:
        status = _smoke_net() or status
    if "cluster" in targets:
        status = _smoke_cluster() or status
    if "io" in targets:
        status = _smoke_io() or status
    status = _check_trajectory() or status
    return status


def run_pytest(extra: list[str]) -> int:
    cmd = [sys.executable, "-m", "pytest", str(BENCH_DIR), "-q", *extra]
    env_path = str(SRC_DIR)
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        env_path + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else env_path
    )
    return subprocess.call(cmd, env=env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the trajectory benches (A4 columnar, E17 bus, E18 "
        "vectors, E19 codecs, E20 compiler, E21 net, E22 cluster, "
        "E23 io) at small sizes and refresh their tracked JSON "
        "documents",
    )
    parser.add_argument(
        "--targets",
        nargs="+",
        choices=[
            "columnar", "bus", "vectors", "codecs", "compiler", "net",
            "cluster", "io",
        ],
        default=[
            "columnar", "bus", "vectors", "codecs", "compiler", "net",
            "cluster", "io",
        ],
        help="which smoke benches to run (default: all)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10_000],
        help="event counts for the columnar smoke (default: 10000)",
    )
    parser.add_argument(
        "--bus-events",
        type=int,
        default=3_000,
        help="event count for the bus smoke (default: 3000)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="override the columnar JSON output path for --smoke",
    )
    args, extra = parser.parse_known_args(argv)
    if args.smoke:
        return run_smoke(args.sizes, args.out, args.targets, args.bus_events)
    return run_pytest(extra)


if __name__ == "__main__":
    raise SystemExit(main())

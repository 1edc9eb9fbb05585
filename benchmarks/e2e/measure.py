"""One run of one workload: set up, warm up, measure, check, optionally trace.

``trace=False`` yields the end-to-end metrics, from an untraced measured
phase and from several timed set-ups. ``trace=True`` yields the per-layer
metrics: the same untraced phase for counts scraped from the program, then a
traced pass on the same SUT for spans, then the layer probes. End-to-end
numbers never come from a traced pass.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from repro.net import ClientConfig, FeatureClient

import probes
import spans as span_math
import workloads
from loadgen import Loadgen, OpRecord, PhaseResult, SutProcess, WORK_DIR
from stack import CACHE_TTL_S
from tracing import DATA_KINDS

#: set-ups timed per end-to-end run; ``setup_s`` is their median
SETUPS_PER_RUN = 3
MIN_RECALL = 0.95
KIND_OF_METRIC = {"read": "get", "write": "put", "search": "search"}


def _ms(ns: float) -> float:
    return ns / 1e6


def _blocks(records: list[OpRecord]) -> list[list[OpRecord]]:
    size = len(records) // workloads.N_BLOCKS
    return [records[i * size:(i + 1) * size] for i in range(workloads.N_BLOCKS)]


def _ops_per_s(chunks) -> float:
    """Closed-loop throughput of concurrent clients: their own rates, added."""
    return sum(
        sum(r.good and not r.probe for r in chunk)
        / ((chunk[-1].end - chunk[0].start) / 1e9)
        for chunk in chunks
        if chunk
    )


def _latencies_ms(records: list[OpRecord], kind: str | None = None) -> list[float]:
    # a failed op has no latency: it misses every latency metric
    return [
        _ms(r.end - r.start)
        for r in records
        if r.good and (kind is None or r.kind == kind)
    ]


def _by_block(phase: PhaseResult) -> list[tuple[list[OpRecord], ...]]:
    """Block -> one chunk of records per client."""
    return list(zip(*[_blocks(records) for records in phase.per_client]))


def timing_metrics(phase: PhaseResult) -> dict[str, dict[str, float]]:
    """Block medians of the untraced measured phase (value, spread, samples)."""
    by_block = _by_block(phase)
    out = {
        "ops_per_s": span_math.block_summary([_ops_per_s(b) for b in by_block]),
        "op_p50_ms": span_math.block_summary(
            [
                statistics.median(_latencies_ms([r for c in b for r in c]))
                for b in by_block
            ]
        ),
    }
    for metric in out.values():
        metric["samples"] = sum(r.good for r in phase.records)
    return out


def _scrape(port: int) -> dict[str, float]:
    """The server's own registry, read the way an operator would: over HTTP."""
    with FeatureClient(ClientConfig(port=port)) as client:
        registry = client.metrics()
    flat: dict[str, float] = defaultdict(float)
    for name, entries in registry.items():
        for entry in entries:
            labels = entry["labels"]
            if name == "net_responses_total" and labels["status"].startswith("2"):
                continue
            if name.startswith("io_") and labels.get("loop") != "net-io":
                continue
            flat[name] += entry.get("value", 0.0)
    return flat


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _span_ms(linked, name: str, kind: str | None = None) -> list[float]:
    return [
        _ms(s.duration)
        for s in linked
        if s.name == name and s.is_data and (kind is None or s.kind == kind)
    ]


def layer_metrics(
    measured: PhaseResult, traced: PhaseResult, dump: dict,
    before: dict, after: dict, net_before: dict, net_after: dict,
) -> dict[str, float]:
    """Every per-layer metric that comes from spans (T) or scraped counts (S)."""
    out: dict[str, float] = {}
    p50 = lambda values: span_math.percentile(values, 0.5)  # noqa: E731
    records = measured.records
    ops = max(sum(r.good for r in records), 1)

    # the op-type latencies a caller would see, from the untraced phase
    for label, kind in KIND_OF_METRIC.items():
        values = _latencies_ms(records, kind)
        out[f"{label}_p50_ms"] = p50(values)
        out[f"{label}_p99_ms"] = span_math.percentile(
            values, span_math.tail_quantile(len(values))
        )
    blocks = [_ops_per_s(chunks) for chunks in _by_block(measured)]
    out["cluster.write_drift_ratio"] = blocks[-1] / blocks[0]

    # S: counts the program reports about itself, over the untraced phase
    cache = {k: after["cache"][k] - before["cache"][k] for k in after["cache"]}
    lookups = cache["hits"] + cache["misses"]
    batches = after["batches"] - before["batches"]
    batched = after["batched_requests"] - before["batched_requests"]
    acked = after["writes_acked"] - before["writes_acked"]
    out.update({
        "net.responses_non2xx": _delta(net_after, net_before, "net_responses_total"),
        "net.shed_total": _delta(net_after, net_before, "net_shed_total")
        + _delta(net_after, net_before, "net_throttled_total"),
        "net.connections_reaped": _delta(
            net_after, net_before, "net_connections_reaped_total"
        ),
        "serving.cache_hit_share": cache["hits"] / lookups if lookups else 0.0,
        "serving.cache_evictions": cache["evictions"],
        "serving.cache_invalidations": cache["invalidations"],
        "serving.batch_size_mean": batched / batches if batches else 0.0,
        "serving.upstream_keys_per_op": batched / ops,
        "cluster.client_retries": after["client_retries"] - before["client_retries"],
        "cluster.replication_lag_records_max": after["replication_lag_records"],
        "bus.log_bytes_per_acked_write": (
            (after["log_bytes"] - before["log_bytes"]) / acked if acked else 0.0
        ),
        "storage.reads_per_op": (after["store_reads"] - before["store_reads"]) / ops,
        "vecserve.partial_results": after["search_partials"]
        - before["search_partials"],
        "runtime.io.net_bytes_read_per_op": _delta(
            net_after, net_before, "io_bytes_read_total") / ops,
        "runtime.io.net_bytes_written_per_op": _delta(
            net_after, net_before, "io_bytes_written_total") / ops,
        "runtime.io.cluster_bytes_read_per_op": (
            after["cluster_io"]["io_bytes_read_total"]
            - before["cluster_io"]["io_bytes_read_total"]) / ops,
        "runtime.io.cluster_bytes_written_per_op": (
            after["cluster_io"]["io_bytes_written_total"]
            - before["cluster_io"]["io_bytes_written_total"]) / ops,
        "runtime.io.connections_accepted": _delta(
            net_after, net_before, "io_connections_accepted_total"),
    })

    # T: spans of the traced pass
    linked = span_math.link_spans(traced.spans, dump["spans"])
    book = span_math.ledger(linked)
    share, samples = book["share"], book["self_samples"]
    traced_ops = max(len(traced.spans), 1)
    net_self = [_ms(v) for v in samples.get("net", [])]
    out.update({
        "net.self_ms_p50": p50(net_self),
        "net.self_ms_p99": span_math.percentile(
            net_self, span_math.tail_quantile(len(net_self))
        ),
        "net.self_share": share.get("net", 0.0),
        "serving.span_ms_p50": p50(_span_ms(linked, "gateway")),
        "serving.self_ms_p50": p50([_ms(v) for v in samples.get("serving", [])]),
        "serving.self_share": share.get("serving", 0.0),
        "cluster.client_ms_p50": p50(_span_ms(linked, "cluster_client")),
        "cluster.client_self_ms_p50": p50(
            [_ms(v) for v in samples.get("cluster.client", [])]
        ),
        "cluster.client_self_share": share.get("cluster.client", 0.0),
        "cluster.transport_self_ms_p50": p50(
            [_ms(v) for v in samples.get("cluster.transport", [])]
        ),
        "cluster.transport_self_share": share.get("cluster.transport", 0.0),
        "cluster.handle_self_share": share.get("cluster.handle", 0.0),
        "bus.append_ms_p50": p50(_span_ms(linked, "log_append")),
        "bus.append_share": share.get("bus", 0.0),
        "vecserve.search_ms_p50": p50(_span_ms(linked, "vecserve")),
        "vecserve.self_share": share.get("vecserve", 0.0),
        "vecserve.spans_per_op": len(_span_ms(linked, "vecserve")) / traced_ops,
        "trace.unmatched_share": book["unmatched_share"],
        "trace.residual_share": book["residual_share"],
    })
    transport = [s for s in linked if s.name == "transport"]
    for kind in DATA_KINDS:
        out[f"cluster.transport_{kind}_per_op"] = (
            sum(s.kind == kind for s in transport) / traced_ops
        )
        out[f"cluster.handle_{kind}_ms_p50"] = p50(_span_ms(linked, "handler", kind))
    out["cluster.transport_requests_per_op"] = (
        sum(s.is_data for s in transport) / traced_ops
    )
    out["cluster.transport_control_per_s"] = (
        sum(not s.is_data for s in transport) / traced.wall_s
    )
    lags = span_math.apply_lags_ms(linked, dump["events"])
    out["cluster.apply_lag_ms_p50"] = p50(lags)
    out["cluster.apply_lag_ms_p99"] = span_math.percentile(
        lags, span_math.tail_quantile(len(lags))
    )
    stale_probes = [r for r in traced.records if r.probe]
    out["serving.stale_after_ack_share"] = (
        sum(r.verdict == "stale" for r in stale_probes) / len(stale_probes)
        if stale_probes else 0.0
    )
    # against the last untraced block: the nearest state, so log growth
    # between the two is not mistaken for the cost of tracing
    traced_rate = _ops_per_s(traced.per_client)
    out["trace.overhead_share"] = 1.0 - traced_rate / blocks[-1]
    return out


def recall_at_k(gen: Loadgen) -> float:
    """Recall of the measured searches against exact numpy, on a fixed sample."""
    # by query index first, so the sample is spread over both clients
    keys = sorted(gen.search_ids, key=lambda k: (k[1], k[0]))[: workloads.RECALL_SAMPLE]
    if not keys:
        return 0.0
    __, table = workloads.vector_table()
    queries = np.stack([gen.plans[c].queries[q] for c, q in keys])
    exact = workloads.exact_top_k(table, queries, workloads.SEARCH_K)
    hits = sum(
        len(set(gen.search_ids[key]) & set(truth.tolist()))
        for key, truth in zip(keys, exact)
    )
    return hits / (len(keys) * workloads.SEARCH_K)


def _timed_setup_only() -> tuple[float, dict]:
    with SutProcess() as sut:
        return sut.setup_s, sut.shutdown()


def run_once(name: str, seed: int, scale: float, trace: bool) -> dict:
    """One run; returns metrics, checks and the record of how it went."""
    plans = workloads.build_plans(name, seed, scale)
    phases_s: dict[str, float] = {}
    setups, exits = [], []
    clock = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases_s[phase] = round(now - clock, 3)
        clock = now

    if not trace:
        for __ in range(SETUPS_PER_RUN - 1):
            setup_s, left = _timed_setup_only()
            setups.append(setup_s)
            exits.append(left)
        lap("extra_setups")

    with SutProcess() as sut:
        setups.append(sut.setup_s)
        lap("setup")
        gen = Loadgen(sut.port, plans)
        try:
            warmup = gen.run_phase("warmup")
            lap("warmup")
            before, net_before = sut.command("snapshot"), _scrape(sut.port)
            measured = gen.run_phase("measured")
            after, net_after = sut.command("snapshot"), _scrape(sut.port)
            lap("measured")
            phases = [warmup, measured]
            layers: dict[str, float] = {}
            if trace:
                sut.command("trace_on")
                traced = gen.run_phase("traced", traced=True)
                dump = sut.command("trace_dump")
                lap("traced")
                phases.append(traced)
                layers = layer_metrics(
                    measured, traced, dump, before, after, net_before, net_after
                )
                layers.update(probes.run(WORK_DIR))
                lap("probes")

            # checks, after the last ack
            attempted = sum(len(p.records) for p in phases)
            failed = sum(not r.good for p in phases for r in p.records)
            stale = sum(r.verdict == "stale" for p in phases for r in p.records)
            lost = 0
            logs = sut.command("verify_logs", timeout_s=30.0)
            if gen.issued:
                time.sleep(CACHE_TTL_S)  # let every cached pre-write value expire
                read, unreadable, lost = gen.read_back()
                attempted += read
                failed += unreadable
            recall = recall_at_k(gen)
            lap("checks")
        finally:
            gen.close()
        exits.append(sut.shutdown())
        lap("shutdown")

    searched = bool(gen.search_ids)
    checks = {
        "attempted": attempted,
        "failed": failed,
        "stale_tolerated": stale,
        "acked_writes_lost": lost,
        "logs_applied": logs["applied"],
        "replication_parity": logs["parity"],
        "search_recall_at_10": recall,
        "sut_leaked_threads": max(e["leaked_threads"] for e in exits),
        "sut_leaked_fds": max(e["leaked_fds"] for e in exits),
        "sut_exit_codes": [e["exit_code"] for e in exits],
        "errors": [e for p in phases for e in p.errors][:5],
    }
    checks["correct"] = bool(
        failed == 0 and lost == 0 and logs["applied"] and logs["parity"]
        and (recall >= MIN_RECALL or not searched)
        and checks["sut_leaked_threads"] == 0 and checks["sut_leaked_fds"] == 0
        and not any(checks["sut_exit_codes"])
    )

    good = max(sum(r.good for r in measured.records), 1)
    if trace:
        layers["failed_share"] = failed / attempted
        layers["acked_writes_lost"] = float(lost)
        layers["search_recall_at_10"] = recall
        metrics = {k: {"value": v} for k, v in layers.items()}
    else:
        metrics = timing_metrics(measured)
        metrics["setup_s"] = {
            "value": statistics.median(setups),
            "spread": (max(setups) - min(setups)) / statistics.median(setups),
            "samples": len(setups),
        }
        metrics["sut_cpu_s_per_kop"] = {
            "value": (after["cpu_s"] - before["cpu_s"]) / good * 1000.0,
            "samples": good,
        }
        metrics["sut_peak_rss_mb"] = {"value": after["peak_rss_mb"], "samples": 1}
    return {
        "workload": name,
        "trace": trace,
        "metrics": metrics,
        "checks": checks,
        "ops": {
            "measured": len(measured.records),
            "warmup": len(warmup.records),
            "traced": len(phases[2].records) if trace else 0,
        },
        "phases_s": phases_s,
        "loadgen_cpu_s": round(measured.loadgen_cpu_s, 3),
        "measured_wall_s": round(measured.wall_s, 3),
    }

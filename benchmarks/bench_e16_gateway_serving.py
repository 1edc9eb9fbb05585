"""E16 — concurrent gateway serving: caching + micro-batching vs raw lookups.

Paper (sections 2.2.2 / 3): the online half of the dual datastore exists to
serve features at interactive latencies, and embedding ecosystems push the
same serving tier toward vector workloads.  This experiment quantifies what
the serving *gateway* adds on top of the raw store: a read-through hot-key
cache and a micro-batching queue that coalesces concurrent point lookups
into ``read_many`` calls.

Protocol: wrap an ``OnlineStore`` in a ``FaultInjectingOnlineStore`` whose
``base_latency_s`` models the per-call network hop of a remote online
store, then cap concurrent store calls with a small connection pool (a
semaphore) the way a real client library would.  Drive a Zipfian(1.0)
closed loop of concurrent clients through three configurations:

  raw            — gateway with cache and batching disabled (per-key RPCs)
  cached         — read-through LRU + hot tier, no batching
  cached+batched — full gateway

Each cached configuration gets one warmup pass (different workload seed);
hit rates are computed from counter deltas over the measured window only.

Acceptance: cached+batched QPS >= 5x raw QPS and cache hit-rate >= 0.6.
"""

from __future__ import annotations

import threading

from repro.clock import SimClock
from repro.runtime import FaultPolicy
from repro.serving import (
    FaultInjectingOnlineStore,
    GatewayConfig,
    LoadConfig,
    ServingGateway,
    run_closed_loop,
)
from repro.storage.online import OnlineStore

N_KEYS = 2000
N_CLIENTS = 8
REQUESTS_PER_CLIENT = 250
ZIPF_SKEW = 1.0
# Simulated remote online store: a per-call network hop plus a small
# marginal cost per key in the batch, behind a bounded connection pool.
NETWORK_HOP_S = 0.0015
PER_KEY_S = 0.00002
MAX_CONNECTIONS = 2


class ConnectionLimitedStore:
    """Caps concurrent ``read``/``read_many`` calls like a client pool.

    Real online-store clients multiplex requests over a fixed number of
    connections; per-key RPCs queue behind the pool while batched reads
    move many keys per connection slot.  Everything else delegates.
    """

    def __init__(self, inner: FaultInjectingOnlineStore, max_connections: int):
        self._inner = inner
        self._pool = threading.Semaphore(max_connections)

    def read(self, *args, **kwargs):
        with self._pool:
            return self._inner.read(*args, **kwargs)

    def read_many(self, *args, **kwargs):
        with self._pool:
            return self._inner.read_many(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def make_store() -> ConnectionLimitedStore:
    store = OnlineStore(clock=SimClock(start=0.0))
    store.create_namespace("rides")
    for key in range(N_KEYS):
        store.write("rides", key, {"fare": float(key)}, event_time=0.0)
    faulty = FaultInjectingOnlineStore(
        store,
        FaultPolicy(base_latency_s=NETWORK_HOP_S, per_key_latency_s=PER_KEY_S),
    )
    return ConnectionLimitedStore(faulty, MAX_CONNECTIONS)


CONFIGS = {
    "raw": GatewayConfig(enable_cache=False, enable_batching=False, n_workers=8),
    "cached": GatewayConfig(
        enable_batching=False, cache_capacity=2048, hot_capacity=128, n_workers=8
    ),
    "cached+batched": GatewayConfig(
        cache_capacity=2048,
        hot_capacity=128,
        n_workers=8,
        max_batch_size=64,
        batch_wait_s=0.0003,
    ),
}


def load_config(seed: int) -> LoadConfig:
    return LoadConfig(
        n_clients=N_CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        n_keys=N_KEYS,
        zipf_skew=ZIPF_SKEW,
        seed=seed,
    )


def run_config(config: GatewayConfig, warmup: bool) -> tuple[object, dict, float]:
    """Returns (load report, final snapshot, measured-window hit rate)."""
    with ServingGateway(make_store(), config=config) as gateway:
        request = lambda __, key: gateway.get_features("rides", key)  # noqa: E731
        if warmup:
            run_closed_loop(request, load_config(seed=3))
        before = gateway.snapshot()["endpoints"].get("get_features", {})
        load_report = run_closed_loop(request, load_config(seed=7))
        snap = gateway.snapshot()
        after = snap["endpoints"]["get_features"]
        hits = after["cache_hits"] - before.get("cache_hits", 0.0)
        misses = after["cache_misses"] - before.get("cache_misses", 0.0)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
    return load_report, snap, hit_rate


class TestGatewayServing:
    def test_cached_batched_gateway_beats_raw_lookups(self, report):
        results = {
            label: run_config(config, warmup=config.enable_cache)
            for label, config in CONFIGS.items()
        }

        report.line(
            f"E16: {N_CLIENTS} clients x {REQUESTS_PER_CLIENT} reqs, "
            f"Zipf({ZIPF_SKEW}) over {N_KEYS} keys, "
            f"{NETWORK_HOP_S * 1e3:.1f} ms/call hop, "
            f"{MAX_CONNECTIONS}-connection pool"
        )
        rows = []
        for label, (load_report, snap, hit_rate) in results.items():
            batch = snap.get("batch")
            mean_batch = batch["mean_batch_size"] if batch else 1.0
            rows.append(
                [
                    label,
                    round(load_report.qps, 1),
                    round(load_report.p50_ms, 3),
                    round(load_report.p99_ms, 3),
                    round(hit_rate, 3),
                    round(mean_batch, 2),
                ]
            )
        report.table(
            ["config", "qps", "p50_ms", "p99_ms", "hit_rate", "batch_sz"], rows
        )

        raw_qps = results["raw"][0].qps
        full_qps = results["cached+batched"][0].qps
        full_hits = results["cached+batched"][2]
        report.line()
        report.line(
            f"speedup cached+batched vs raw: {full_qps / raw_qps:.1f}x "
            f"(measured-window hit rate {full_hits:.2f})"
        )

        assert results["raw"][0].errors == 0
        assert results["cached+batched"][0].errors == 0
        # Acceptance criteria from the issue.
        assert full_qps >= 5.0 * raw_qps
        assert full_hits >= 0.6

    def test_batching_amortizes_the_connection_pool(self, report):
        """Even without the cache, coalescing calls lifts throughput."""
        batched_only = GatewayConfig(
            enable_cache=False,
            n_workers=8,
            max_batch_size=64,
            batch_wait_s=0.0003,
        )
        raw_report, _, _ = run_config(CONFIGS["raw"], warmup=False)
        batched_report, snap, _ = run_config(batched_only, warmup=False)
        mean_batch = snap["batch"]["mean_batch_size"]
        report.line(
            f"raw {raw_report.qps:.0f} qps vs batched-only "
            f"{batched_report.qps:.0f} qps (mean batch {mean_batch:.1f})"
        )
        assert mean_batch > 1.5
        assert batched_report.qps > raw_report.qps

"""The serving gateway: batched, cached, degradable feature serving.

Walks the serving tier end to end (paper sections 2.2.2 and 3): an
``OnlineStore``, an ``EmbeddingStore`` and a ``VectorService`` serving its
k-NN tables go behind one ``ServingGateway``;
concurrent clients hammer it through the Zipfian closed-loop generator; a
flaky store (injected timeouts) shows graceful degradation serving stale
cached values instead of erroring; and the dashboard renders the gateway's
latency histograms, hit rates and pressure gauges.

Run:  python examples/serving_gateway.py
"""

from __future__ import annotations

import numpy as np

from repro.clock import SimClock
from repro.core.embedding_store import EmbeddingStore, Provenance
from repro.embeddings import EmbeddingMatrix
from repro.monitoring import serving_section
from repro.runtime import FaultPolicy
from repro.serving import (
    FaultInjectingOnlineStore,
    GatewayConfig,
    LoadConfig,
    ServingGateway,
    run_closed_loop,
)
from repro.storage.online import FreshnessPolicy, OnlineStore
from repro.vecserve import VectorService

N_DRIVERS = 500
DIM = 8


def build_stores(clock):
    online = OnlineStore(clock=clock)
    online.create_namespace("driver_stats", ttl=3600.0)
    rng = np.random.default_rng(0)
    for driver in range(N_DRIVERS):
        online.write(
            "driver_stats",
            driver,
            {"avg_fare": float(rng.gamma(2.0, 8.0)), "trips_7d": float(rng.poisson(40))},
            event_time=0.0,
        )
    embeddings = EmbeddingStore(clock=clock)
    embeddings.register(
        "driver_emb",
        EmbeddingMatrix(vectors=rng.normal(size=(N_DRIVERS, DIM))),
        Provenance(trainer="word2vec-nightly"),
    )
    return online, embeddings


def main() -> None:
    clock = SimClock(start=0.0)
    online, embeddings = build_stores(clock)

    print("== one gateway in front of both stores ==")
    with VectorService(embeddings=embeddings) as vectors, ServingGateway(
        online,
        embeddings,
        config=GatewayConfig(cache_capacity=256, hot_capacity=32, n_workers=4),
        vectors=vectors,
    ) as gateway:
        vectors.enable("driver_emb", n_shards=1)
        enriched = gateway.enrich("driver_stats", 7, "driver_emb")
        print(
            f"enrich(driver=7): features={enriched.features} "
            f"embedding[:3]={np.round(enriched.embedding[:3], 3)} "
            f"(version {enriched.embedding_version})"
        )
        neighbors = gateway.search_neighbors(
            "driver_emb", enriched.embedding, k=3
        )
        print(f"3 nearest drivers by embedding: {list(neighbors.ids)}")

        # Writes invalidate the cache through the store's write listener.
        gateway.get_features("driver_stats", 7)
        gateway.write_features("driver_stats", 7, {"avg_fare": 99.0, "trips_7d": 1.0}, 10.0)
        print(f"after write-through: {gateway.get_features('driver_stats', 7)}")

        print()
        print("== Zipfian closed loop (4 clients) ==")
        load = run_closed_loop(
            lambda __, key: gateway.get_features("driver_stats", key),
            LoadConfig(n_clients=4, requests_per_client=500, n_keys=N_DRIVERS, seed=1),
        )
        print(
            f"{load.total_requests} requests at {load.qps:,.0f} qps "
            f"(p50 {load.p50_ms:.2f} ms, p99 {load.p99_ms:.2f} ms, "
            f"errors {load.errors})"
        )
        snap = gateway.snapshot()
        endpoint = snap["endpoints"]["get_features"]
        print(
            f"gateway saw hit_rate={endpoint['cache_hit_rate']:.2f} "
            f"mean_batch={snap['batch']['mean_batch_size']:.2f}"
        )

        print()
        print("== dashboard serving section ==")
        print(serving_section(gateway).render())

    print()
    print("== graceful degradation against a flaky store ==")
    clock2 = SimClock(start=0.0)
    online2, _ = build_stores(clock2)
    flaky = FaultInjectingOnlineStore(
        online2, FaultPolicy(timeout_rate=0.3, seed=11)
    )
    with ServingGateway(
        flaky,
        config=GatewayConfig(
            cache_capacity=256, cache_ttl_s=1e-9, max_retries=0, n_workers=2
        ),
    ) as degraded_gateway:
        for driver in range(32):  # warm the cache
            degraded_gateway.get_features("driver_stats", driver)
        served = sum(
            degraded_gateway.get_features(
                "driver_stats", driver, policy=FreshnessPolicy.SERVE_ANYWAY
            )
            is not None
            for driver in range(32)
        )
        metrics = degraded_gateway.snapshot()["endpoints"]["get_features"]
        print(
            f"30% injected timeouts, 0 retries: {served}/32 answered "
            f"(degraded={metrics['degraded']:.0f}, "
            f"stale_served={metrics['stale_served']:.0f}, "
            f"errors={metrics['errors']:.0f})"
        )
    print("stale-but-served beats erroring: that is the degradation contract.")


if __name__ == "__main__":
    main()

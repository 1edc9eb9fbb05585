"""The network serving plane (paper section 2.2.2).

Everything below the network tier speaks Python; clients in the paper's
deployments speak HTTP. This example stands up the whole stack — store,
gateway, vector plane, HTTP front end — on a loopback socket and drives
it exactly the way a remote feature consumer would:

1. serve an online store (and a vector index) through the
   ``FeatureServer``'s versioned ``/v1`` JSON routes,
2. read, write and search through a retrying ``FeatureClient`` — the
   error envelope tells it which failures are worth retrying,
3. overload the admission plane: a rate-limited batch tenant collects
   429s while the watermark sheds its best-effort traffic with 503s,
   and the high-priority class rides through untouched,
4. scrape the whole plane's metrics (serving, vecserve, admission, net)
   from the single ``GET /v1/metrics`` endpoint,
5. drain the stack gracefully under a ``ServiceGroup`` — every admitted
   request is answered before the sockets close.

Run:  python examples/network_serving.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.monitoring import network_section
from repro.net import (
    AdmissionConfig,
    ClientConfig,
    FeatureClient,
    FeatureServer,
    QuotaConfig,
    ServerConfig,
    ThrottledError,
)
from repro.runtime import RetryPolicy, ServiceGroup
from repro.serving import ServingGateway
from repro.storage.online import OnlineStore
from repro.vecserve import VectorService

N_USERS = 200
DIM = 16


def main() -> None:
    rng = np.random.default_rng(21)

    # 1. The stack: online store -> gateway -> HTTP front end, plus a
    #    sharded vector index attached to the gateway.
    store = OnlineStore()
    store.create_namespace("user")
    now = time.time()
    for uid in range(N_USERS):
        store.write(
            "user",
            uid,
            {"clicks_7d": float(uid % 23), "spend_30d": round(uid * 0.7, 2)},
            event_time=now,
        )
    gateway = ServingGateway(store)
    vectors = VectorService(n_workers=2)
    vectors.serve_matrix(
        "user_emb",
        1,
        np.arange(N_USERS, dtype=np.int64),
        rng.normal(size=(N_USERS, DIM)),
        n_shards=2,
        sample_rate=0.0,
    )
    gateway.vectors = vectors
    server = FeatureServer(
        gateway,
        ServerConfig(
            admission=AdmissionConfig(
                max_inflight=32,
                tenant_quotas={"batch": QuotaConfig(rate=5.0, burst=3)},
            )
        ),
    )
    group = ServiceGroup(name="network-plane")
    group.add(gateway)
    group.add(vectors)
    group.add(server)
    group.start()
    host, port = server.address
    print(f"serving /v1 on http://{host}:{port}")

    # 2. A remote consumer: point read, write, batch read, vector search
    #    — all JSON over the wire, decoded back into Python values.
    with FeatureClient.for_server(server, tenant="ranking") as client:
        features = client.get_features("user", 42)
        print(f"GET  /v1/features/user/42      -> {features}")
        client.write_features("user", 42, {"clicks_7d": 99.0})
        print(
            "PUT  /v1/features/user/42      -> clicks_7d now "
            f"{client.get_features('user', 42)['clicks_7d']}"
        )
        batch = client.get_features_batch("user", [7, 8, 9])
        print(f"POST /v1/features/user (batch) -> {len(batch)} rows")
        hits = client.search_vectors(
            "user_emb", [0.0] * DIM, k=3
        )
        print(
            f"POST /v1/vectors/user_emb/search -> ids {hits['ids']} "
            f"(partial={hits['partial']})"
        )

    # 3. The batch tenant hits its token bucket: the envelope carries
    #    code=throttled + Retry-After, and a non-retrying client sees it
    #    as a typed, retryable exception.
    throttles = 0
    with FeatureClient.for_server(
        server, tenant="batch", retry=RetryPolicy(max_retries=0)
    ) as batch_client:
        for uid in range(10):
            try:
                batch_client.get_features("user", uid)
            except ThrottledError:
                throttles += 1
    print(f"batch tenant: 10 requests -> {throttles} throttled (429)")

    # ...while a retrying client just waits out the bucket and succeeds.
    with FeatureClient.for_server(
        server,
        tenant="batch",
        retry=RetryPolicy(max_retries=6, backoff_s=0.05),
    ) as patient:
        value = patient.get_features("user", 3, deadline_s=5.0)
        print(
            f"retrying client: succeeded after {patient.retries} "
            f"retry(s) -> clicks_7d={value['clicks_7d']}"
        )

    # 4. One scrape endpoint exports the whole plane's metrics.
    with FeatureClient.for_server(server) as client:
        snapshot = client.metrics(json_format=True)
        net_names = sorted(n for n in snapshot if n.startswith("net_"))
        print(
            f"GET /v1/metrics -> {len(snapshot)} metric families "
            f"({len(net_names)} net_*)"
        )
    print(network_section(server).render())

    # 5. Graceful drain: reverse order, front end first; every admitted
    #    request is answered before the listener closes.
    group.stop()
    print(
        "drained: admitted="
        f"{server.admission.admitted.value} == "
        f"completed={server.completed.value}, "
        f"open_connections={server.health()['open_connections']}"
    )


if __name__ == "__main__":
    main()

"""The one request path, composed above ``repro.net`` and ``repro.cluster``.

Layering rule 6 keeps the two socket planes independent, so the wiring
lives here: ``FeatureServer -> ServingGateway (+VectorService) ->
ClusterOnline -> ClusterClient -> SocketTransport -> ClusterNode ->
SegmentLog / OnlineStore``. The adapter is deliberately thin. A later
change may not edit the benchmark, so any batching, caching, retry or
waiting added here would be dead weight nobody can optimise.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.cluster import Cluster, ClusterClient, SocketTransport
from repro.net import FeatureServer, ServerConfig
from repro.runtime import MetricsRegistry
from repro.serving import GatewayConfig, ServingGateway
from repro.vecserve import VectorService

import workloads
from tracing import (
    TracedClusterClient,
    TracedGateway,
    TracedTransport,
    TracedVectors,
    Tracer,
    trace_node,
)

#: cache_ttl_s is required, not cosmetic: the gateway invalidates when a
#: write is issued but nodes apply asynchronously, so a racing read can
#: re-cache the old value; without a TTL it would then stay stale forever
CACHE_TTL_S = 2.0
DEADLINE_S = 1.0

CLUSTER = {"n_shards": 2, "n_replicas": 1, "min_replica_acks": 1}
GATEWAY = {
    "cache_capacity": workloads.CACHE_CAPACITY,
    "hot_capacity": workloads.HOT_CAPACITY,
    "cache_ttl_s": CACHE_TTL_S,
    "default_deadline_s": DEADLINE_S,
}
SERVER = {"worker_threads": 4, "default_deadline_s": DEADLINE_S}
VECTOR_WORKERS = 2
VECTOR_TABLE = {"backend": "brute", "codec": "int8", "n_shards": 2, "sample_rate": 0}

#: the fixed configuration, stated in every result document
SUT_CONFIG = {
    "cluster": {
        **CLUSTER, "transport": "SocketTransport",
        "fsync": "default (GROUP, 256 records / 50 ms)",
    },
    "gateway": GATEWAY,
    "server": {**SERVER, "auth": None},
    "vectors": {
        **VECTOR_TABLE, "n_workers": VECTOR_WORKERS,
        "table": f"{workloads.VECTOR_TABLE} v1",
        "rows": workloads.VECTOR_ROWS, "dim": workloads.VECTOR_DIM,
    },
    "features": {"namespace": workloads.NAMESPACE, "entities": workloads.ENTITIES},
}


class ClusterOnline:
    """The ``online`` a ``ServingGateway`` reads and writes, over a cluster.

    ``read``/``write`` map 1:1 onto ``ClusterClient.get``/``put``, with one
    client per calling thread; ``read_many`` is a plain loop because
    ``ClusterClient`` has no multi-key read.
    """

    def __init__(self, make_client) -> None:
        self._make_client = make_client
        self._local = threading.local()
        self.clients: list = []

    def _client(self):
        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = self._make_client()
            self.clients.append(client)
        return client

    def read(self, namespace, entity_id, policy=None):
        return self._client().get(entity_id, namespace)["features"]

    def read_many(self, namespace, entity_ids, policy=None):
        return [self.read(namespace, entity_id) for entity_id in entity_ids]

    def write(self, namespace, entity_id, values, event_time) -> None:
        attributes = dict(values)
        value = attributes.pop("value")
        self._client().put(entity_id, value, attributes, timestamp=event_time)


@dataclass
class Stack:
    """Everything one SUT process runs, in start order."""

    tracer: Tracer
    cluster_registry: MetricsRegistry
    transport: SocketTransport
    cluster: Cluster
    vectors: VectorService
    online: ClusterOnline
    gateway: ServingGateway
    server: FeatureServer

    def close(self) -> None:
        self.server.stop()
        self.gateway.stop()
        self.vectors.close()
        self.cluster.stop()
        self.transport.stop()  # not in the cluster's group: it is wrapped


def build(root_dir: Path) -> Stack:
    """Stand the whole path up and preload it; returns with the server listening."""
    tracer = Tracer()
    cluster_registry = MetricsRegistry()
    transport = SocketTransport(name="cluster-transport", registry=cluster_registry)
    traced_transport = TracedTransport(transport, tracer)
    cluster = Cluster(
        root_dir, **CLUSTER, namespace=workloads.NAMESPACE,
        transport=traced_transport,
    ).start()
    for node in cluster.nodes.values():
        trace_node(node, tracer)

    loader = cluster.client("preload")
    for entity_id in range(workloads.ENTITIES):
        values = workloads.expected_features(entity_id, 0)
        loader.put(
            entity_id, values.pop("value"), values,
            timestamp=workloads.event_time(0),
        )
    if not cluster.wait_applied(timeout_s=60.0):
        raise RuntimeError("preload was acknowledged but not applied within 60 s")

    vectors = VectorService(n_workers=VECTOR_WORKERS)
    ids, table = workloads.vector_table()
    vectors.serve_matrix(workloads.VECTOR_TABLE, 1, ids, table, **VECTOR_TABLE)

    made = itertools.count()
    online = ClusterOnline(
        lambda: TracedClusterClient(
            ClusterClient(traced_transport, client_id=f"gateway-{next(made)}"),
            tracer,
        )
    )
    gateway = ServingGateway(
        online,
        config=GatewayConfig(**GATEWAY),
        vectors=TracedVectors(vectors, tracer),
    )
    server = FeatureServer(
        TracedGateway(gateway, tracer),
        ServerConfig(**SERVER),
    )
    server.start()
    return Stack(
        tracer, cluster_registry, transport, cluster, vectors, online, gateway,
        server,
    )

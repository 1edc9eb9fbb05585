"""The assembled cluster: shards × replicas wired onto one transport.

:class:`Cluster` is the composition root — the piece that turns the
plane's parts (:class:`~repro.cluster.ClusterNode`,
:class:`~repro.cluster.ClusterCoordinator`,
:class:`~repro.cluster.FaultyTransport`) into a running system:

* ``n_shards`` shard groups named ``shard-0 … shard-(n-1)``, each with a
  leader (``shard-i/n0``) and ``n_replicas`` followers (``shard-i/n1``,
  …), every node with its own data directory under ``root_dir``;
* one shared transport — local or socket — wrapped in a
  :class:`~repro.cluster.FaultyTransport` and exposed as ``transport``
  for fault injection (partitions, drops, delays) and its counters;
* one :class:`~repro.cluster.ClusterCoordinator` detecting failures and
  driving failover;
* one :class:`~repro.runtime.ServiceGroup` so startup is ordered (nodes
  before the coordinator — nothing is declared dead during boot) and
  shutdown is the exact reverse with full drain: after ``stop()``
  returns, zero cluster threads remain.

``crash(node_id)`` is the test/chaos hook: it yanks the node off the
transport *then* stops it, so the rest of the cluster experiences a
silent disappearance — exactly what a kill -9 looks like from the
network — while the process-local resources still drain cleanly.
"""

from __future__ import annotations

from pathlib import Path

from repro.bus import FsyncConfig
from repro.clock import Clock
from repro.errors import ValidationError
from repro.runtime import Service, ServiceGroup

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import (
    ClusterCoordinator,
    CoordinatorConfig,
    ShardSpec,
)
from repro.cluster.node import ClusterNode, NodeConfig, NodeRole
from repro.cluster.socket_transport import SocketTransport
from repro.cluster.transport import FaultyTransport, LocalTransport, Transport


def _build_transport(transport: str | Transport) -> Transport:
    if isinstance(transport, str):
        if transport == "local":
            return LocalTransport()
        if transport == "socket":
            return SocketTransport(name="cluster-transport")
        raise ValidationError(
            f"transport must be 'local', 'socket' or a Transport "
            f"instance ({transport!r})"
        )
    return transport


class Cluster:
    """A full in-process cluster: sharded, replicated, failover-capable.

    ``transport`` selects the message plane: ``"local"`` (the default —
    deterministic in-process calls) or ``"socket"`` (real TCP over
    :class:`~repro.cluster.SocketTransport`); an already-constructed
    :class:`~repro.cluster.Transport` instance is also accepted. Either
    way ``self.transport`` is that transport wrapped in a
    :class:`~repro.cluster.FaultyTransport`. A transport that is itself
    a runtime service joins the group *first*, so it outlives every node
    it carries.
    """

    def __init__(
        self,
        root_dir: str | Path,
        n_shards: int = 2,
        n_replicas: int = 1,
        n_partitions: int = 2,
        segment_bytes: int = 1 << 20,
        fsync: FsyncConfig | None = None,
        min_replica_acks: int = 1,
        namespace: str = "features",
        coordinator_config: CoordinatorConfig | None = None,
        clock: Clock | None = None,
        transport: str | Transport = "local",
    ) -> None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1 ({n_shards=})")
        if n_replicas < 0:
            raise ValidationError(f"n_replicas must be >= 0 ({n_replicas=})")
        self.root_dir = Path(root_dir)
        built = _build_transport(transport)
        self.transport = FaultyTransport(built)
        self.nodes: dict[str, ClusterNode] = {}
        shards: list[ShardSpec] = []
        for s in range(n_shards):
            shard_id = f"shard-{s}"
            node_ids = [f"{shard_id}/n{r}" for r in range(n_replicas + 1)]
            leader_id, follower_ids = node_ids[0], tuple(node_ids[1:])
            for node_id in node_ids:
                role = (
                    NodeRole.LEADER
                    if node_id == leader_id
                    else NodeRole.FOLLOWER
                )
                self.nodes[node_id] = ClusterNode(
                    NodeConfig(
                        node_id=node_id,
                        shard_id=shard_id,
                        data_dir=self.root_dir / node_id.replace("/", "_"),
                        namespace=namespace,
                        n_partitions=n_partitions,
                        segment_bytes=segment_bytes,
                        fsync=fsync,
                        min_replica_acks=min_replica_acks,
                    ),
                    self.transport,
                    role=role,
                    followers=follower_ids if role is NodeRole.LEADER else (),
                    clock=clock,
                )
            shards.append(ShardSpec(shard_id, leader_id, follower_ids))
        self.coordinator = ClusterCoordinator(
            shards, self.transport, config=coordinator_config, clock=clock
        )
        self.group = ServiceGroup(name="cluster")
        if isinstance(built, Service):
            self.group.add(built)  # first up, last down
        for node in self.nodes.values():
            self.group.add(node)
        self.group.add(self.coordinator)  # last up, first down

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Cluster":
        self.group.start()
        return self

    def stop(self) -> None:
        self.group.stop()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- access ---------------------------------------------------------------

    def client(self, client_id: str = "client") -> ClusterClient:
        return ClusterClient(self.transport, client_id=client_id)

    def leader_of(self, shard_id: str) -> ClusterNode:
        return self.nodes[self.coordinator.leader_of(shard_id)]

    def wait_applied(self, timeout_s: float = 5.0) -> bool:
        """Block until every running node has applied its log to its store."""
        deadline = timeout_s
        ok = True
        for node in self.nodes.values():
            if node.running:
                ok = node.wait_applied(deadline) and ok
        return ok

    # -- chaos ----------------------------------------------------------------

    def crash(self, node_id: str) -> ClusterNode:
        """Kill a node the way the network sees a kill -9.

        Deregisters it from the transport first (instant disappearance:
        in-flight requests from peers start failing with
        ``NodeUnreachableError``), then drains it locally so the test
        process leaks nothing. Returns the stopped node so tests can
        inspect — or re-home — its on-disk state.
        """
        node = self.nodes[node_id]
        self.transport.deregister(node_id)
        node.stop()
        return node

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """The dashboard-facing picture: coordinator + node + transport."""
        return {
            "coordinator": self.coordinator.snapshot(),
            "nodes": {
                node_id: node.status()
                for node_id, node in sorted(self.nodes.items())
                if node.running
            },
            "transport": self.transport.snapshot(),
        }

    def health(self) -> dict[str, object]:
        return self.group.health()

"""The replicated cluster plane (sharding, replication, failover).

Paper §4: embedding and feature platforms outgrow one box — Microsoft's
feature-store deployments are *geo-distributed*, and the paper's
"coming wave" platforms all shard state across fleets of serving nodes.
Every plane built so far (store, bus, gateway, net) lives in a single
process with a single copy of the data: one crash loses availability,
and one heap bounds the feature set. This package is the scale-out
answer, built from the planes below it rather than beside them:

* :mod:`repro.cluster.ring` — consistent-hash routing over shard groups
  with virtual nodes (stable: failover moves zero keys);
* :mod:`repro.cluster.transport` — the message plane: a narrow
  request/response :class:`Transport` protocol, the in-process
  :class:`LocalTransport` (deterministic delivery), and
  :class:`FaultyTransport`, the one fault surface — drops, delays,
  partitions via the runtime's :class:`FaultInjector`, plus counters —
  wrapped around either transport;
* :mod:`repro.cluster.socket_transport` — the same protocol over real
  TCP on the runtime's selector substrate (:mod:`repro.runtime.io`):
  length-prefixed JSON frames, pooled handler dispatch, and
  ``add_route`` for cross-process peers;
* :mod:`repro.cluster.node` — a shard replica: the PR3
  :class:`~repro.bus.SegmentLog` as the replication stream, leader →
  follower frame shipping with CRC-checked apply and checkpointed
  catch-up, the store/consumer stack behind it;
* :mod:`repro.cluster.coordinator` — heartbeat failure detection and
  failover: promote the most-caught-up follower, re-point routes;
* :mod:`repro.cluster.client` — ring-routed reads/writes with bounded
  retry-on-wrong-owner and stale-bounded follower fallback;
* :mod:`repro.cluster.cluster` — the composition root wiring it all
  onto one :class:`~repro.runtime.ServiceGroup`.

Sits at the top of the import DAG next to :mod:`repro.net` (layering
rule 6): it may use bus/serving/storage/runtime, nothing imports it
back, and the two top planes stay mutually independent.
"""

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import Cluster
from repro.cluster.coordinator import (
    COORDINATOR_ID,
    ClusterCoordinator,
    CoordinatorConfig,
    ShardSpec,
)
from repro.cluster.node import ClusterNode, NodeConfig, NodeRole
from repro.cluster.ring import Ring
from repro.cluster.socket_transport import SocketTransport
from repro.cluster.transport import (
    FaultyTransport,
    LocalTransport,
    Message,
    Transport,
)

__all__ = [
    "COORDINATOR_ID",
    "Cluster",
    "ClusterClient",
    "ClusterCoordinator",
    "ClusterNode",
    "CoordinatorConfig",
    "FaultyTransport",
    "LocalTransport",
    "Message",
    "NodeConfig",
    "NodeRole",
    "Ring",
    "ShardSpec",
    "SocketTransport",
    "Transport",
]

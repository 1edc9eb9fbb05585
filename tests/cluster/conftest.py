"""Shared builders for the cluster plane tests.

The replication suites run twice: once over :class:`LocalTransport`
(deterministic in-process calls) and once over
:class:`SocketTransport` (real TCP frames on the selector substrate).
Same tests, same assertions — the transports are behavioral twins, and
parameterizing here is what enforces it. Either one is wrapped in a
:class:`FaultyTransport`, the fault surface the tests cut links with.
"""

from pathlib import Path

import pytest

from repro.cluster import (
    ClusterNode,
    FaultyTransport,
    LocalTransport,
    NodeConfig,
    NodeRole,
    SocketTransport,
)
from repro.runtime import Service

TRANSPORT_KINDS = ("local", "socket")


def build_transport(kind: str) -> FaultyTransport:
    """The fault surface over the named delivery (what ``Cluster`` builds)."""
    if kind == "socket":
        return FaultyTransport(SocketTransport(name="test-transport"))
    return FaultyTransport(LocalTransport())


def stop_transport(transport: FaultyTransport) -> None:
    inner = transport.inner
    if isinstance(inner, Service) and inner.running:
        inner.stop()


def segment_files(log_dir: Path) -> dict[str, bytes]:
    """All segment file contents keyed by path relative to the log root —
    the byte-identical replication oracle."""
    return {
        str(path.relative_to(log_dir)): path.read_bytes()
        for path in sorted(log_dir.rglob("*.seg"))
    }


def assert_logs_identical(leader: ClusterNode, follower: ClusterNode) -> None:
    leader.log.flush()
    follower.log.flush()
    leader_files = segment_files(Path(leader.config.data_dir) / "log")
    follower_files = segment_files(Path(follower.config.data_dir) / "log")
    assert leader_files.keys() == follower_files.keys()
    for name in leader_files:
        assert leader_files[name] == follower_files[name], (
            f"segment {name} diverged between "
            f"{leader.config.node_id} and {follower.config.node_id}"
        )


def make_pair(
    tmp_path: Path,
    n_partitions: int = 2,
    min_replica_acks: int = 1,
    segment_bytes: int = 1 << 20,
    reconcile_interval_s: float = 0.01,
    transport_kind: str = "local",
):
    """A started leader/follower pair on one transport, no coordinator."""
    transport = build_transport(transport_kind)
    leader = ClusterNode(
        NodeConfig(
            node_id="L",
            shard_id="s0",
            data_dir=tmp_path / "L",
            n_partitions=n_partitions,
            segment_bytes=segment_bytes,
            min_replica_acks=min_replica_acks,
            reconcile_interval_s=reconcile_interval_s,
        ),
        transport,
        role=NodeRole.LEADER,
        followers=("F",),
    )
    follower = ClusterNode(
        NodeConfig(
            node_id="F",
            shard_id="s0",
            data_dir=tmp_path / "F",
            n_partitions=n_partitions,
            segment_bytes=segment_bytes,
            min_replica_acks=min_replica_acks,
            reconcile_interval_s=reconcile_interval_s,
        ),
        transport,
        role=NodeRole.FOLLOWER,
    )
    leader.start()
    follower.start()
    return transport, leader, follower


@pytest.fixture(params=TRANSPORT_KINDS)
def transport_kind(request):
    """Parameterizes a test over both message planes."""
    return request.param


@pytest.fixture
def pair(tmp_path, transport_kind):
    transport, leader, follower = make_pair(
        tmp_path, transport_kind=transport_kind
    )
    yield transport, leader, follower
    leader.stop()
    follower.stop()
    stop_transport(transport)

"""Failover: kill the leader under live load, lose nothing acked.

Every scenario runs over both transports (the ``transport_kind``
fixture): the deterministic in-process ``LocalTransport`` and the real
TCP ``SocketTransport`` — acked-write durability must not depend on the
message plane.

The acceptance scenario for the cluster plane: Zipfian writers hammer a
replicated cluster through :class:`ClusterClient`, the shard-0 leader is
killed mid-stream, the coordinator promotes the most-caught-up follower,
and afterwards **every acknowledged write is present** in the promoted
leader's log and store — synchronous frame shipping means an ack implies
the record was already durable on a follower. The cluster drains to zero
threads when stopped.
"""

import threading
import time

from repro.cluster import (
    Cluster,
    ClusterCoordinator,
    CoordinatorConfig,
    ShardSpec,
)
from repro.datagen.workloads import ZipfianWorkloadConfig, generate_zipfian_keys
from repro.runtime import await_condition

from tests.cluster.conftest import assert_logs_identical, build_transport


def _read_log_sequences(node) -> dict[int, tuple[int, float]]:
    """sequence -> (entity_id, value) for every record in a node's log."""
    out: dict[int, tuple[int, float]] = {}
    for partition in range(node.log.n_partitions):
        for __, record in node.log.read(partition, 0, 1_000_000):
            out[record.sequence] = (record.entity_id, record.value)
    return out


class TestFailover:
    def test_kill_leader_under_zipfian_load_loses_no_acked_write(
        self, tmp_path, transport_kind
    ):
        baseline_threads = threading.active_count()
        cluster = Cluster(
            tmp_path,
            n_shards=2,
            n_replicas=2,
            min_replica_acks=1,
            coordinator_config=CoordinatorConfig(
                heartbeat_interval_s=0.02, failure_threshold=3
            ),
            transport=transport_kind,
        )
        keys = generate_zipfian_keys(
            ZipfianWorkloadConfig(n_keys=500, n_requests=4000, skew=1.0),
            seed=7,
        )
        acked: dict[int, tuple[int, float]] = {}  # seq -> (eid, value)
        acked_lock = threading.Lock()
        stop_writers = threading.Event()
        writer_errors: list[Exception] = []

        def writer(worker: int) -> None:
            client = cluster.client(client_id=f"writer-{worker}")
            sequence = worker * 1_000_000  # unique per worker
            for eid in keys[worker::4]:
                if stop_writers.is_set():
                    return
                sequence += 1
                try:
                    client.put(
                        int(eid),
                        float(sequence),
                        timestamp=time.time(),
                        sequence=sequence,
                    )
                except Exception as exc:  # noqa: BLE001 - collected below
                    writer_errors.append(exc)
                    continue
                with acked_lock:
                    acked[sequence] = (int(eid), float(sequence))

        with cluster:
            old_leader_id = cluster.coordinator.leader_of("shard-0")
            writers = [
                threading.Thread(target=writer, args=(i,), daemon=True)
                for i in range(4)
            ]
            for thread in writers:
                thread.start()
            # let real load build before pulling the trigger
            assert await_condition(lambda: len(acked) > 300, timeout_s=10.0)

            old_leader = cluster.crash(old_leader_id)

            # the coordinator notices and promotes a follower
            assert await_condition(
                lambda: cluster.coordinator.leader_of("shard-0")
                != old_leader_id,
                timeout_s=5.0,
            )
            new_leader_id = cluster.coordinator.leader_of("shard-0")
            assert new_leader_id.startswith("shard-0/")
            # writers keep acking against the promoted leader
            acked_at_failover = len(acked)
            assert await_condition(
                lambda: len(acked) > acked_at_failover + 100, timeout_s=10.0
            )
            for thread in writers:
                thread.join(timeout=30.0)
            assert not any(t.is_alive() for t in writers)

            # --- no acked write lost ---------------------------------------
            new_leader = cluster.nodes[new_leader_id]
            in_logs: dict[int, tuple[int, float]] = {}
            for node in {
                new_leader,
                cluster.leader_of("shard-1"),
            }:
                in_logs.update(_read_log_sequences(node))
            missing = {
                seq: record
                for seq, record in acked.items()
                if seq not in in_logs
            }
            assert missing == {}, (
                f"{len(missing)} acked write(s) lost in failover"
            )
            for seq, (eid, value) in list(acked.items())[:200]:
                assert in_logs[seq] == (eid, value)

            # the failover was observed and the old leader is really gone
            snap = cluster.snapshot()
            assert snap["coordinator"]["failovers"] >= 1
            assert old_leader_id not in snap["nodes"]
            assert not old_leader.running

            # promoted leader reconciles its remaining follower to parity
            remaining = [
                node_id
                for node_id in cluster.nodes
                if node_id.startswith("shard-0/")
                and node_id not in (old_leader_id, new_leader_id)
            ]
            assert len(remaining) == 1
            follower = cluster.nodes[remaining[0]]
            assert await_condition(
                lambda: follower.log.end_offsets()
                == new_leader.log.end_offsets(),
                timeout_s=5.0,
            )
            assert_logs_identical(new_leader, follower)

            # acked writes are served through the read path
            assert cluster.wait_applied()
            client = cluster.client(client_id="reader")
            some_seq = max(acked)
            eid, value = acked[some_seq]
            features = client.get(eid)["features"]
            assert features is not None

        # --- zero leaked threads after full reverse drain ------------------
        assert await_condition(
            lambda: threading.active_count() <= baseline_threads,
            timeout_s=5.0,
        ), f"threads leaked: {threading.enumerate()}"

    def test_reads_keep_serving_stale_during_detection_window(
        self, tmp_path, transport_kind
    ):
        """Between the leader dying and the coordinator noticing, reads
        with stale_ok drain to a follower replica (bounded-stale)."""
        cluster = Cluster(
            tmp_path,
            n_shards=1,
            n_replicas=1,
            # slow detector: the window is open long enough to assert in
            coordinator_config=CoordinatorConfig(
                heartbeat_interval_s=0.5, failure_threshold=5
            ),
            transport=transport_kind,
        )
        with cluster:
            client = cluster.client()
            for eid in range(50):
                client.put(eid, float(eid))
            assert cluster.wait_applied()
            leader_id = cluster.coordinator.leader_of("shard-0")
            cluster.crash(leader_id)
            # authoritative read path is down, stale path still serves
            response = client.get(7, stale_ok=True)
            assert response["features"]["value"] == 7.0
            assert response["role"] == "follower"
            assert client.stale_reads.value >= 1

    def test_follower_death_degrades_but_keeps_writing(
        self, tmp_path, transport_kind
    ):
        """A dead follower must not wedge the write path: the coordinator
        reconfigures the leader's replica set and writes continue."""
        cluster = Cluster(
            tmp_path,
            n_shards=1,
            n_replicas=1,
            min_replica_acks=1,
            coordinator_config=CoordinatorConfig(
                heartbeat_interval_s=0.02, failure_threshold=3
            ),
            transport=transport_kind,
        )
        with cluster:
            client = cluster.client()
            for eid in range(20):
                client.put(eid, 1.0)
            leader_id = cluster.coordinator.leader_of("shard-0")
            follower_id = next(
                node_id
                for node_id in cluster.nodes
                if node_id != leader_id
            )
            cluster.crash(follower_id)
            assert await_condition(
                lambda: cluster.nodes[leader_id].followers == (),
                timeout_s=5.0,
            )
            assert cluster.coordinator.reconfigures.value >= 1
            # un-replicated but available: acks=0 accepted (degraded)
            ack = client.put(999, 9.0)
            assert ack["acks"] == 0
            assert cluster.coordinator.leader_of("shard-0") == leader_id


class TestCoordinatorCounters:
    """Counters move at the decision, before the node hears about it —
    so a test that sees the node's new state always sees the count."""

    def _coordinator(self, alive: str, notice: str, counter):
        transport = build_transport("local")
        seen: list[int] = []

        def node(message):
            if message.kind == notice:
                seen.append(counter(coordinator).value)
            return {"healthy": True, "end_offsets": [0]}

        transport.register(alive, node)
        coordinator = ClusterCoordinator(
            [ShardSpec("s0", "L", ("F",))],
            transport,
            config=CoordinatorConfig(
                heartbeat_interval_s=0.005, failure_threshold=2
            ),
        )
        return coordinator, seen

    def test_reconfigure_is_counted_before_the_leader_hears_it(self):
        coordinator, seen = self._coordinator(
            "L", "reconfigure", lambda c: c.reconfigures
        )
        with coordinator:
            assert await_condition(lambda: seen, timeout_s=5.0)
        assert seen[0] == 1

    def test_failover_is_counted_before_the_winner_hears_it(self):
        coordinator, seen = self._coordinator(
            "F", "promote", lambda c: c.failovers
        )
        with coordinator:
            assert await_condition(lambda: seen, timeout_s=5.0)
        assert seen[0] == 1

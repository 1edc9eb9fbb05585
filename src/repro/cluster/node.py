"""One cluster node: a store shard, its replicated log, and its services.

A :class:`ClusterNode` is the unit the cluster is made of. Each node owns
a full runtime :class:`~repro.runtime.ServiceGroup`-style stack for one
shard group:

* a **segment log** (:class:`~repro.bus.SegmentLog`) — the durable write
  path and the unit of replication;
* an **online store shard** (:class:`~repro.storage.online.OnlineStore`)
  fed from the local log by a checkpointed
  :class:`~repro.bus.ConsumerWorker` +
  :class:`~repro.bus.OnlineStoreSink` (the PR3 machinery unchanged — a
  restarted node resumes applying from its consumer-group offset, and
  the sink's :class:`~repro.bus.DedupeWindow` keeps replayed or
  duplicated deliveries effectively-once in the store).

Roles and replication: within a shard group one node is the **leader**
— it encodes each write once, appends that frame to its log and
synchronously *ships the same bytes* to every follower before acking
(at least ``min_replica_acks`` follower acks, else the write fails
retryably). Followers CRC-check each frame (:func:`repro.bus.decode_frame`)
and append the received bytes verbatim, so a follower's log is
byte-identical to the leader's by construction. A follower that missed
ships (restart, partition) is caught up by the leader's **reconcile**
loop, which ships ``read_frames`` output from the follower's durable end
offset — never from zero.

The node is driven entirely through its transport handler (``put`` /
``get`` / ``replicate`` / ``heartbeat`` / ``promote`` / ``reconfigure``
/ ``status``); :class:`~repro.cluster.coordinator.ClusterCoordinator`
owns role changes, :class:`~repro.cluster.client.ClusterClient` owns
routing.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bus import (
    BusRecord,
    Consumer,
    ConsumerWorker,
    DedupeWindow,
    FsyncConfig,
    OnlineStoreSink,
    SegmentLog,
    decode_frame,
    encode_record,
)
from repro.clock import Clock
from repro.errors import (
    ClusterError,
    NodeUnreachableError,
    ReplicationError,
    ValidationError,
    WrongOwnerError,
)
from repro.runtime import Counter, PeriodicTask, Service
from repro.storage.online import FreshnessPolicy, OnlineStore

from repro.cluster.transport import Message, Transport


class NodeRole(enum.Enum):
    """What a node is doing for its shard group right now."""

    LEADER = "leader"
    FOLLOWER = "follower"


@dataclass(frozen=True)
class NodeConfig:
    """Identity and tuning for one :class:`ClusterNode`."""

    node_id: str
    shard_id: str
    data_dir: str | Path
    namespace: str = "features"
    n_partitions: int = 2
    segment_bytes: int = 1 << 20
    fsync: FsyncConfig | None = None
    #: follower acks required before a write is acknowledged (clamped to
    #: the follower count; 0 followers = un-replicated single node)
    min_replica_acks: int = 1
    #: records per replicate request during catch-up shipping
    ship_batch_records: int = 256
    #: leader's background catch-up cadence
    reconcile_interval_s: float = 0.05
    ttl: float | None = None

    def validate(self) -> None:
        if not self.node_id or not self.shard_id:
            raise ValidationError("node_id and shard_id cannot be empty")
        if self.min_replica_acks < 0:
            raise ValidationError(
                f"min_replica_acks must be >= 0 ({self.min_replica_acks=})"
            )
        if self.ship_batch_records <= 0:
            raise ValidationError(
                f"ship_batch_records must be positive "
                f"({self.ship_batch_records=})"
            )
        if self.reconcile_interval_s <= 0:
            raise ValidationError(
                f"reconcile_interval_s must be positive "
                f"({self.reconcile_interval_s=})"
            )


class ClusterNode(Service):
    """A shard replica: local log + store + apply pump behind a transport.

    Construction *is* recovery: reopening a node on an existing
    ``data_dir`` runs the segment log's torn-tail truncation and resumes
    the apply pump from its committed consumer-group checkpoint. The
    node only joins the message plane once :meth:`start` registers its
    handler (a :class:`~repro.runtime.ServiceGroup` decides when).
    """

    def __init__(
        self,
        config: NodeConfig,
        transport: Transport,
        role: NodeRole = NodeRole.FOLLOWER,
        followers: tuple[str, ...] = (),
        clock: Clock | None = None,
    ) -> None:
        config.validate()
        super().__init__(name=f"node:{config.node_id}")
        self.config = config
        self.transport = transport
        self.log = SegmentLog(
            Path(config.data_dir) / "log",
            n_partitions=config.n_partitions,
            segment_bytes=config.segment_bytes,
            fsync=config.fsync,
        )
        self.store = OnlineStore(clock)
        self.dedupe = DedupeWindow()
        self.sink = OnlineStoreSink(
            self.store,
            config.namespace,
            ttl=config.ttl,
            dedupe=self.dedupe,
        )
        self.consumer = Consumer(self.log, group="apply")
        self.worker = ConsumerWorker(
            self.consumer, self.sink, name=f"{config.node_id}-apply"
        )
        self._role = role
        self._followers = tuple(followers)
        self._role_lock = threading.RLock()
        # serializes append+ship so frames reach followers in offset order
        self._append_lock = threading.Lock()
        self._reconcile_task = PeriodicTask(
            self._reconcile_followers,
            interval_s=config.reconcile_interval_s,
            name=f"{config.node_id}-reconcile",
        )
        self._lag_records: dict[str, int] = {}
        self._last_event_time = 0.0
        self.writes_acked = Counter()
        self.writes_rejected = Counter()
        self.reads_served = Counter()
        self.frames_shipped = Counter()
        self.frames_applied = Counter()
        self.duplicate_frames = Counter()
        self.ship_failures = Counter()
        self.promotions = Counter()

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        self.worker.start()
        self._reconcile_task.start()
        self.transport.register(self.config.node_id, self.handle)

    def _on_stop(self) -> None:
        self.transport.deregister(self.config.node_id)
        self._reconcile_task.stop()
        self.worker.stop()
        self.log.close()
        self._stop_event.set()
        self._join_workers()

    # -- role ----------------------------------------------------------------

    @property
    def role(self) -> NodeRole:
        with self._role_lock:
            return self._role

    @property
    def followers(self) -> tuple[str, ...]:
        with self._role_lock:
            return self._followers

    def set_followers(self, followers: tuple[str, ...]) -> None:
        with self._role_lock:
            self._followers = tuple(followers)
            self._lag_records = {
                f: lag
                for f, lag in self._lag_records.items()
                if f in self._followers
            }

    # -- transport handler ----------------------------------------------------

    def handle(self, message: Message) -> dict:
        """Dispatch one transport request (any caller thread)."""
        kind = message.kind
        payload = message.payload
        if kind == "put":
            return self._put(payload)
        if kind == "get":
            return self._get(payload)
        if kind == "replicate":
            return self._replicate(payload)
        if kind == "heartbeat":
            return self.heartbeat()
        if kind == "promote":
            return self._promote(payload)
        if kind == "reconfigure":
            self.set_followers(tuple(payload.get("followers", ())))
            return {"followers": list(self.followers)}
        if kind == "status":
            return self.status()
        raise ValidationError(
            f"{self.config.node_id}: unknown message kind {kind!r}"
        )

    # -- write path (leader) --------------------------------------------------

    def _put(self, payload: dict) -> dict:
        self._check_running("accept a write")
        with self._role_lock:
            if self._role is not NodeRole.LEADER:
                self.writes_rejected.inc()
                raise WrongOwnerError(
                    f"{self.config.node_id} is a {self._role.value} for "
                    f"shard {self.config.shard_id}; writes go to the leader"
                )
            followers = self._followers
        record = BusRecord(
            entity_id=int(payload["entity_id"]),
            timestamp=float(payload.get("timestamp") or time.time()),
            value=float(payload.get("value", 0.0)),
            attributes=dict(payload.get("attributes") or {}),
            sequence=int(payload.get("sequence", 0)),
        )
        frame = encode_record(record)
        with self._append_lock:
            partition = self.log.partition_for(record.entity_id)
            (offset,) = self.log.append_many(partition, [frame])
            self._last_event_time = max(self._last_event_time, record.timestamp)
            acks = self._ship(followers, partition, offset, [frame])
        required = min(self.config.min_replica_acks, len(followers))
        if acks < required:
            self.writes_rejected.inc()
            raise ReplicationError(
                f"{self.config.node_id}: write at "
                f"(partition={partition}, offset={offset}) got {acks} "
                f"replica ack(s), needs {required}"
            )
        self.writes_acked.inc()
        return {
            "partition": partition,
            "offset": offset,
            "acks": acks,
            "node": self.config.node_id,
        }

    def _ship(
        self,
        followers: tuple[str, ...],
        partition: int,
        base_offset: int,
        frames: list[bytes],
    ) -> int:
        """Ship frames to every follower; return how many acked them.

        A follower answering ``gap`` (it is missing earlier records) gets
        one inline catch-up from its durable end offset — the common
        post-partition path — before the frame counts as acked.
        Unreachable followers are skipped; reconcile retries them.
        """
        acks = 0
        target = base_offset + len(frames)
        for follower in followers:
            try:
                response = self.transport.request(
                    self.config.node_id,
                    follower,
                    "replicate",
                    {
                        "partition": partition,
                        "base_offset": base_offset,
                        "frames": frames,
                    },
                )
                if response["status"] == "gap":
                    end = self._ship_range(
                        follower, partition, int(response["end_offset"])
                    )
                else:
                    end = int(response["end_offset"])
                if end >= target:
                    acks += 1
                self._lag_records[follower] = max(
                    self.log.end_offset(partition) - end, 0
                )
            except (NodeUnreachableError, ClusterError):
                self.ship_failures.inc()
        self.frames_shipped.inc(len(frames) * max(len(followers), 1))
        return acks

    def _ship_range(self, follower: str, partition: int, start: int) -> int:
        """Ship ``[start, end)`` of one partition; return follower's end.

        Bounded: each round either advances the follower's end offset or
        backs up to it (``gap``), and a round that does neither breaks —
        so a follower that stops making progress cannot wedge the
        leader's write path.
        """
        position = max(start, 0)
        for __ in range(1024):  # hard bound against pathological loops
            batch = self.log.read_frames(
                partition, position, self.config.ship_batch_records
            )
            if not batch:
                return position
            response = self.transport.request(
                self.config.node_id,
                follower,
                "replicate",
                {
                    "partition": partition,
                    "base_offset": batch[0][0],
                    "frames": [frame for __, frame in batch],
                },
            )
            end = int(response["end_offset"])
            self.frames_shipped.inc(len(batch))
            if response["status"] == "gap":
                if end >= position:
                    break  # no progress possible; give up this round
                position = end
            else:
                if end <= position:
                    break
                position = end
        return position

    def _reconcile_followers(self) -> None:
        """Leader background loop: re-ship whatever followers are missing."""
        with self._role_lock:
            if self._role is not NodeRole.LEADER or not self._followers:
                return
            followers = self._followers
        for follower in followers:
            try:
                theirs = self.transport.request(
                    self.config.node_id, follower, "heartbeat", {}
                )["end_offsets"]
            except (NodeUnreachableError, ClusterError):
                continue
            lag = 0
            for partition in range(self.log.n_partitions):
                mine = self.log.end_offset(partition)
                if theirs[partition] < mine:
                    with self._append_lock:
                        end = self._ship_range(
                            follower, partition, int(theirs[partition])
                        )
                    lag += max(self.log.end_offset(partition) - end, 0)
            self._lag_records[follower] = lag

    # -- replica path (follower) ----------------------------------------------

    def _replicate(self, payload: dict) -> dict:
        self._check_running("apply replication")
        if self.role is NodeRole.LEADER:
            raise ClusterError(
                f"{self.config.node_id} is the leader for shard "
                f"{self.config.shard_id}; it does not accept replication"
            )
        partition = int(payload["partition"])
        base = int(payload["base_offset"])
        frames: list[bytes] = payload["frames"]
        with self._append_lock:
            end = self.log.end_offset(partition)
            if base > end:
                # the leader is ahead of what we have durably: refuse and
                # report our end so it backs up (checkpointed catch-up)
                return {"status": "gap", "end_offset": end, "applied": 0}
            skip = end - base
            if skip:
                # duplicate delivery of an already-appended prefix: the
                # log-level dedupe guard (the store-level one is the
                # sink's DedupeWindow keyed on the same offsets)
                self.duplicate_frames.inc(min(skip, len(frames)))
            fresh = frames[skip:]
            if fresh:
                # CRC-gate every frame, then append the leader's bytes
                latest = max(decode_frame(frame).timestamp for frame in fresh)
                self.log.append_many(partition, fresh)
                self._last_event_time = max(self._last_event_time, latest)
                self.frames_applied.inc(len(fresh))
        return {
            "status": "ok",
            "end_offset": self.log.end_offset(partition),
            "applied": len(fresh),
        }

    # -- read path ------------------------------------------------------------

    def _get(self, payload: dict) -> dict:
        self._check_running("serve a read")
        stale_ok = bool(payload.get("stale_ok", False))
        role = self.role
        if role is not NodeRole.LEADER and not stale_ok:
            raise WrongOwnerError(
                f"{self.config.node_id} is a {role.value}; authoritative "
                "reads go to the leader (set stale_ok for bounded-stale)"
            )
        namespace = payload.get("namespace") or self.config.namespace
        entity_id = int(payload["entity_id"])
        features = self.store.read(
            namespace, entity_id, FreshnessPolicy.SERVE_ANYWAY
        )
        self.reads_served.inc()
        return {
            "entity_id": entity_id,
            "features": features,
            "role": role.value,
            "node": self.config.node_id,
            "staleness_s": self.store.staleness(namespace, entity_id),
        }

    # -- control plane --------------------------------------------------------

    def _promote(self, payload: dict) -> dict:
        """Coordinator order: become the shard leader."""
        with self._role_lock:
            if self._role is not NodeRole.LEADER:
                self._role = NodeRole.LEADER
                self.promotions.inc()
            self._followers = tuple(payload.get("followers", ()))
        return {"role": self.role.value, "followers": list(self.followers)}

    def heartbeat(self) -> dict:
        """Liveness + replication position, polled by the coordinator."""
        return {
            "node_id": self.config.node_id,
            "shard_id": self.config.shard_id,
            "role": self.role.value,
            "end_offsets": self.log.end_offsets(),
            "applied_offsets": [
                self.consumer.position(p)
                for p in range(self.log.n_partitions)
            ],
            "last_event_time": self._last_event_time,
            "healthy": self.running,
        }

    # -- introspection --------------------------------------------------------

    def wait_applied(self, timeout_s: float = 5.0) -> bool:
        """Block until the local log is fully applied to the store.

        The ack contract is durability + replication, not read-your-
        writes: the store apply pump is asynchronous behind the log.
        Tests and benchmarks that need to observe a write through the
        read path wait here first.
        """
        return self.worker.wait_until_caught_up(timeout_s)

    def replication_lag_records(self) -> int:
        """Leader view: total records followers are missing (0 on followers)."""
        return sum(self._lag_records.values())

    def status(self) -> dict:
        return {
            **self.heartbeat(),
            "followers": list(self.followers),
            "store_size": self.store.size(self.config.namespace),
            "writes_acked": self.writes_acked.value,
            "writes_rejected": self.writes_rejected.value,
            "reads_served": self.reads_served.value,
            "frames_shipped": self.frames_shipped.value,
            "frames_applied": self.frames_applied.value,
            "duplicate_frames": self.duplicate_frames.value,
            "ship_failures": self.ship_failures.value,
            "promotions": self.promotions.value,
            "lag_by_follower": dict(self._lag_records),
            "caught_up": self.worker.caught_up,
        }

    def health(self) -> dict[str, object]:
        record = super().health()
        record["role"] = self.role.value
        record["shard_id"] = self.config.shard_id
        record["worker"] = self.worker.health()
        return record

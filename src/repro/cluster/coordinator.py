"""Cluster control plane: membership, failure detection, failover.

The :class:`ClusterCoordinator` is the one actor allowed to change who
leads a shard group. It polls every node's ``heartbeat`` on a fixed
cadence; a node that misses ``failure_threshold`` consecutive polls is
declared dead. A dead **leader** triggers failover: among the shard's
surviving followers the coordinator promotes the one whose log is most
caught up (max summed end offsets — the follower with the fewest
acknowledged-but-unshipped records to lose, and with synchronous
shipping that is *zero* records), then re-points the shard→leader route
and bumps the route version so clients refresh. A dead **follower**
triggers a ``reconfigure`` on its leader, shrinking the replica set so
the write path stops waiting for acks that can never arrive (degraded
but available).

The key is what failover does **not** do: the consistent-hash
:class:`~repro.cluster.Ring` is built over *shard ids*, never node ids,
so promoting a new leader moves zero keys. Routing is two layers —
``ring.owner(entity) -> shard_id`` (stable) and
``leaders[shard_id] -> node_id`` (re-pointed on failover) — and only
the cheap second layer ever changes.

The coordinator is deliberately simple: a single process, no elections,
no quorum. That is the honest scale of this repo's in-process cluster;
the transport shapes (heartbeat / promote / reconfigure / routes) are
the ones a consensus-backed coordinator would keep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.clock import Clock, WallClock
from repro.errors import ClusterError, NodeUnreachableError, ValidationError
from repro.runtime import Counter, PeriodicTask, Service

from repro.cluster.ring import Ring
from repro.cluster.transport import Message, Transport

COORDINATOR_ID = "coordinator"


@dataclass(frozen=True)
class ShardSpec:
    """Static description of one shard group: its id and member nodes."""

    shard_id: str
    leader: str
    followers: tuple[str, ...] = ()

    def nodes(self) -> tuple[str, ...]:
        return (self.leader, *self.followers)


@dataclass(frozen=True)
class CoordinatorConfig:
    heartbeat_interval_s: float = 0.02
    #: consecutive missed heartbeats before a node is declared dead
    failure_threshold: int = 3
    vnodes: int = 64

    def validate(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValidationError(
                f"heartbeat_interval_s must be positive "
                f"({self.heartbeat_interval_s=})"
            )
        if self.failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1 ({self.failure_threshold=})"
            )


class _NodeView:
    """The coordinator's last known picture of one node."""

    __slots__ = ("shard_id", "alive", "missed", "heartbeat")

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.alive = True
        self.missed = 0
        self.heartbeat: dict = {}


class ClusterCoordinator(Service):
    """Heartbeat-driven failure detector + shard leader registry."""

    def __init__(
        self,
        shards: list[ShardSpec],
        transport: Transport,
        config: CoordinatorConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(name="cluster-coordinator")
        if not shards:
            raise ValidationError("a cluster needs at least one shard")
        self.config = config or CoordinatorConfig()
        self.config.validate()
        self.transport = transport
        self.clock = clock or WallClock()
        self.ring = Ring(
            [s.shard_id for s in shards], vnodes=self.config.vnodes
        )
        self._lock = threading.RLock()
        self._leaders: dict[str, str] = {}
        self._replicas: dict[str, tuple[str, ...]] = {}
        self._views: dict[str, _NodeView] = {}
        for spec in shards:
            self._leaders[spec.shard_id] = spec.leader
            self._replicas[spec.shard_id] = tuple(spec.followers)
            for node_id in spec.nodes():
                if node_id in self._views:
                    raise ValidationError(
                        f"node {node_id!r} appears in two shards"
                    )
                self._views[node_id] = _NodeView(spec.shard_id)
        self._route_version = 1
        self._heartbeat_task = PeriodicTask(
            self._poll_once,
            interval_s=self.config.heartbeat_interval_s,
            name="coordinator-heartbeat",
        )
        self.failovers = Counter()
        self.reconfigures = Counter()
        self.heartbeats = Counter()

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        self.transport.register(COORDINATOR_ID, self.handle)
        self._heartbeat_task.start()

    def _on_stop(self) -> None:
        self._heartbeat_task.stop()
        self.transport.deregister(COORDINATOR_ID)
        self._stop_event.set()
        self._join_workers()

    # -- transport handler (clients ask for routes) ----------------------------

    def handle(self, message: Message) -> dict:
        if message.kind == "routes":
            return self.routes()
        if message.kind == "status":
            return self.snapshot()
        raise ValidationError(
            f"coordinator: unknown message kind {message.kind!r}"
        )

    def routes(self) -> dict:
        """The route table a client needs to rebuild routing from scratch."""
        with self._lock:
            return {
                "version": self._route_version,
                "vnodes": self.config.vnodes,
                "members": self.ring.members(),
                "leaders": dict(self._leaders),
                "replicas": {s: list(f) for s, f in self._replicas.items()},
            }

    def leader_of(self, shard_id: str) -> str:
        with self._lock:
            return self._leaders[shard_id]

    @property
    def route_version(self) -> int:
        with self._lock:
            return self._route_version

    # -- failure detection -----------------------------------------------------

    def _poll_once(self) -> None:
        """One heartbeat round: poll everyone, react to transitions."""
        with self._lock:
            node_ids = list(self._views)
        dead_leaders: list[str] = []
        dead_followers: list[str] = []
        for node_id in node_ids:
            try:
                beat = self.transport.request(
                    COORDINATOR_ID, node_id, "heartbeat", {}, timeout_s=0.5
                )
                alive = bool(beat.get("healthy", True))
            except (NodeUnreachableError, ClusterError):
                beat, alive = {}, False
            self.heartbeats.inc()
            with self._lock:
                view = self._views[node_id]
                if alive:
                    view.alive = True
                    view.missed = 0
                    view.heartbeat = beat
                    continue
                view.missed += 1
                if (
                    view.alive
                    and view.missed >= self.config.failure_threshold
                ):
                    view.alive = False
                    if self._leaders[view.shard_id] == node_id:
                        dead_leaders.append(view.shard_id)
                    else:
                        dead_followers.append(node_id)
        for shard_id in dead_leaders:
            self._failover(shard_id)
        for node_id in dead_followers:
            self._drop_follower(node_id)

    def _failover(self, shard_id: str) -> None:
        """Promote the most-caught-up surviving follower to shard leader.

        Counted at the decision, under the lock that bumps the route
        version — never behind what the promoted node already shows.
        """
        with self._lock:
            dead = self._leaders[shard_id]
            candidates = [
                f
                for f in self._replicas[shard_id]
                if f != dead and self._views[f].alive
            ]
            if not candidates:
                # total shard loss; keep routes pointed at the corpse so
                # clients fail loudly rather than silently misroute
                return

            def caught_up(node_id: str) -> tuple[int, str]:
                beat = self._views[node_id].heartbeat
                return (sum(beat.get("end_offsets", [0])), node_id)

            winner = max(candidates, key=caught_up)
            remaining = tuple(f for f in candidates if f != winner)
            self._leaders[shard_id] = winner
            self._replicas[shard_id] = remaining
            self._route_version += 1
            self.failovers.inc()
        try:
            self.transport.request(
                COORDINATOR_ID,
                winner,
                "promote",
                {"followers": list(remaining)},
            )
        except (NodeUnreachableError, ClusterError):
            # the winner died between heartbeat and promote; the next
            # poll round will detect it and fail over again
            pass

    def _drop_follower(self, node_id: str) -> None:
        """Shrink a shard's replica set after a follower death.

        Counted at the decision, like :meth:`_failover`.
        """
        with self._lock:
            shard_id = self._views[node_id].shard_id
            remaining = tuple(
                f for f in self._replicas[shard_id] if f != node_id
            )
            if remaining == self._replicas[shard_id]:
                return  # already dropped (e.g. it lost a failover race)
            self._replicas[shard_id] = remaining
            leader = self._leaders[shard_id]
            self._route_version += 1
            self.reconfigures.inc()
        try:
            self.transport.request(
                COORDINATOR_ID,
                leader,
                "reconfigure",
                {"followers": list(remaining)},
            )
        except (NodeUnreachableError, ClusterError):
            pass

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """JSON-able cluster picture for the dashboard's cluster pane."""
        now = self.clock.now()
        with self._lock:
            nodes = []
            for node_id, view in sorted(self._views.items()):
                beat = view.heartbeat
                role = beat.get("role", "?")
                lag_records = 0
                lag_seconds = 0.0
                if view.shard_id in self._leaders and role == "follower":
                    leader = self._leaders[view.shard_id]
                    leader_beat = self._views.get(leader)
                    if leader_beat is not None and leader_beat.heartbeat:
                        theirs = beat.get("end_offsets") or []
                        mine = leader_beat.heartbeat.get("end_offsets") or []
                        lag_records = max(sum(mine) - sum(theirs), 0)
                        their_time = beat.get("last_event_time", 0.0)
                        if their_time:
                            lag_seconds = max(now - their_time, 0.0)
                nodes.append(
                    {
                        "node_id": node_id,
                        "shard_id": view.shard_id,
                        "role": role,
                        "alive": view.alive,
                        "is_leader": self._leaders[view.shard_id] == node_id,
                        "lag_records": lag_records,
                        "lag_seconds": lag_seconds,
                    }
                )
            return {
                "nodes": nodes,
                "shards": {
                    shard_id: {
                        "leader": self._leaders[shard_id],
                        "followers": list(self._replicas[shard_id]),
                    }
                    for shard_id in sorted(self._leaders)
                },
                "ring_spread": self.ring.spread(),
                "route_version": self._route_version,
                "failovers": self.failovers.value,
                "reconfigures": self.reconfigures.value,
                "heartbeats": self.heartbeats.value,
            }

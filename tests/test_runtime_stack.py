"""Full-stack lifecycle integration: one ServiceGroup, four planes.

The acceptance test of the unified runtime kernel: a deployment wired as

    segment log → consumer worker (bus) → serving gateway → vector service

through one :class:`repro.runtime.ServiceGroup` starts in dependency
order, serves mixed feature + vector load, and shuts down cleanly in
**reverse** order under that load — with zero leaked threads and every
plane's metrics visible through one shared registry.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bus import (
    BusMetrics,
    BusRecord,
    Consumer,
    ConsumerWorker,
    OnlineStoreSink,
    SegmentLog,
    encode_record,
)
from repro.clock import SimClock
from repro.runtime import (
    LifecycleError,
    MetricsRegistry,
    ServiceGroup,
    ServiceState,
    await_condition,
)
from repro.serving import GatewayConfig, ServingGateway
from repro.storage.online import OnlineStore
from repro.vecserve import VectorService

N_ENTITIES = 64
DIM = 16


def rec(i):
    return BusRecord(
        entity_id=i % N_ENTITIES,
        timestamp=float(i),
        value=float(i),
        sequence=i,
    )


@pytest.fixture
def stack(tmp_path):
    """Build the full deployment on one shared metrics registry."""
    registry = MetricsRegistry()
    clock = SimClock(start=10_000.0)
    online = OnlineStore(clock=clock)

    log = SegmentLog(tmp_path / "log", n_partitions=2)
    bus_metrics = BusMetrics(registry=registry)
    worker = ConsumerWorker(
        Consumer(log, group="stack", metrics=bus_metrics),
        OnlineStoreSink(online, namespace="bus_fx", metrics=bus_metrics),
    )

    gateway = ServingGateway(
        online,
        config=GatewayConfig(batch_wait_s=0.001, n_workers=2, default_deadline_s=0.5),
        registry=registry,
    )

    vectors = VectorService(registry=registry, n_workers=4)
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(N_ENTITIES, DIM))
    vectors.serve_matrix(
        "items", 1, ids=np.arange(N_ENTITIES), vectors=matrix, n_shards=2
    )

    group = ServiceGroup(name="deployment")
    group.add(log, name="segment-log")
    group.add(worker)
    group.add(gateway)
    group.add(vectors)

    return {
        "registry": registry,
        "log": log,
        "worker": worker,
        "gateway": gateway,
        "vectors": vectors,
        "group": group,
        "matrix": matrix,
    }


class TestRuntimeStack:
    def test_full_stack_reverse_shutdown_under_load_no_leaked_threads(self, stack):
        threads_before = set(threading.enumerate())

        group = stack["group"]
        group.start()
        assert group.state is ServiceState.RUNNING
        assert group.health()["healthy"] is True

        # Feed the bus and wait for the consumer to land rows online.
        stack["log"].append_many(0, [encode_record(rec(i)) for i in range(0, 200, 2)])
        stack["log"].append_many(1, [encode_record(rec(i)) for i in range(1, 200, 2)])
        assert stack["worker"].wait_until_caught_up(timeout_s=10.0)

        # Mixed load from client threads while we pull the plug.
        stop_load = threading.Event()
        served = {"features": 0, "vectors": 0}
        errors: list[BaseException] = []

        def feature_load():
            i = 0
            while not stop_load.is_set():
                try:
                    value = stack["gateway"].get_features("bus_fx", i % N_ENTITIES)
                    if value is not None:
                        served["features"] += 1
                except LifecycleError:
                    return  # the plane is draining: expected rejection
                except Exception as exc:
                    errors.append(exc)
                    return
                i += 1

        def vector_load():
            rng = np.random.default_rng(7)
            while not stop_load.is_set():
                try:
                    result = stack["vectors"].search(
                        "items", rng.normal(size=DIM), k=5
                    )
                    if len(result.ids):
                        served["vectors"] += 1
                except LifecycleError:
                    return  # the plane is draining: expected rejection
                except Exception as exc:
                    errors.append(exc)
                    return

        clients = [
            threading.Thread(target=feature_load),
            threading.Thread(target=feature_load),
            threading.Thread(target=vector_load),
        ]
        for client in clients:
            client.start()
        assert await_condition(
            lambda: served["features"] > 50 and served["vectors"] > 50,
            timeout_s=10.0,
        )

        # Record the actual drain order by instrumenting each member.
        drain_order: list[str] = []
        for member in group.services:
            original = member._on_stop

            def instrumented(member=member, original=original):
                drain_order.append(member.name)
                original()

            member._on_stop = instrumented

        # Stop the whole deployment while clients are still hammering it.
        group.stop()
        stop_load.set()
        for client in clients:
            client.join(timeout=5.0)

        assert errors == []
        assert group.state is ServiceState.STOPPED
        # Reverse dependency order: front-ends drained before back-ends,
        # consumers before the log.
        assert drain_order == [
            "vecserve",
            "gateway",
            "consumer-worker:stack",
            "segment-log",
        ]
        for member in group.services:
            assert member.state is ServiceState.STOPPED

        # Zero leaked threads: everything spawned during the test exits.
        assert await_condition(
            lambda: set(threading.enumerate()) <= threads_before, timeout_s=5.0
        ), (
            "leaked threads: "
            f"{[t.name for t in set(threading.enumerate()) - threads_before]}"
        )

    def test_one_registry_exports_every_plane(self, stack):
        group = stack["group"]
        group.start()
        stack["log"].append_many(0, [encode_record(rec(i)) for i in range(20)])
        assert stack["worker"].wait_until_caught_up(timeout_s=10.0)
        assert stack["gateway"].get_features("bus_fx", 0) is not None
        stack["vectors"].search("items", stack["matrix"][0], k=3)
        group.stop()

        text = stack["registry"].to_prometheus()
        assert "bus_applied_total" in text
        assert 'serving_requests_total{endpoint="get_features"}' in text
        assert "vecserve_queries_total" in text
        # The freshness series the bus recorded is the same shared registry
        # series a serving dashboard would scrape.
        assert "bus_freshness_lag_seconds" in text

    def test_group_health_aggregates_all_planes(self, stack):
        group = stack["group"]
        group.start()
        record = group.health()
        assert record["healthy"] is True
        names = [member["name"] for member in record["services"]]
        assert names == [
            "segment-log",
            "consumer-worker:stack",
            "gateway",
            "vecserve",
        ]
        group.stop()
        assert group.health()["healthy"] is False

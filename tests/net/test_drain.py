"""Graceful drain under live load: the E21 shutdown invariant.

A ``ServiceGroup`` wired ``gateway → server`` must drain the *front end
first* and do it gracefully: every request admitted before the drain
began gets its response (zero dropped in-flight), requests arriving
during the drain get a retryable 503 ``unavailable`` envelope (never a
connection reset mid-stream), and when ``stop()`` returns no handler or
worker thread is left running. These tests assert all three while a
thread pool of clients is actively hammering the server.
"""

import threading
import time

import pytest

from repro.net import ClientConfig, FeatureClient, FeatureServer, ServerConfig
from repro.errors import ReproError
from repro.net.protocol import OverloadedError
from repro.runtime import FaultPolicy, RetryPolicy, ServiceGroup, await_condition
from repro.runtime.lifecycle import LifecycleError, ServiceState
from repro.serving import FaultInjectingOnlineStore, ServingGateway
from repro.storage.online import OnlineStore


class _GatedStore:
    """Delegating store whose read of one entity blocks on an event —
    turns "a request is in flight during the drain" from a timing bet
    into a certainty."""

    def __init__(self, inner: OnlineStore, gated_entity: int) -> None:
        self._inner = inner
        self._gated_entity = gated_entity
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def _gate(self, entity_id) -> None:
        if entity_id == self._gated_entity:
            self.entered.set()
            self.release.wait(timeout=10.0)

    def read(self, namespace, entity_id, *args, **kwargs):
        self._gate(entity_id)
        return self._inner.read(namespace, entity_id, *args, **kwargs)

    def read_many(self, namespace, entity_ids, *args, **kwargs):
        for entity_id in entity_ids:
            self._gate(entity_id)
        return self._inner.read_many(namespace, entity_ids, *args, **kwargs)


def _build_stack(latency_s: float = 0.0):
    store = OnlineStore()
    store.create_namespace("profile")
    for eid in range(20):
        store.write(
            "profile", eid, {"score": float(eid)}, event_time=time.time()
        )
    backend = (
        FaultInjectingOnlineStore(store, FaultPolicy(base_latency_s=latency_s))
        if latency_s > 0
        else store
    )
    gateway = ServingGateway(backend)
    server = FeatureServer(gateway, ServerConfig(drain_deadline_s=5.0))
    group = ServiceGroup(name="net-stack")
    group.add(gateway)
    group.add(server)
    return group, gateway, server


class TestDrainUnderLoad:
    def test_drain_completes_with_zero_dropped_inflight(self):
        """Clients hammer the server while the group drains: every
        admitted request is answered, new ones get retryable envelopes,
        and no handler threads leak."""
        group, __, server = _build_stack(latency_s=0.01)
        group.start()
        port = server.port
        stop_clients = threading.Event()
        outcomes = {"ok": 0, "unavailable": 0, "refused": 0, "other": 0}
        outcomes_lock = threading.Lock()

        def client_loop(worker: int) -> None:
            client = FeatureClient(
                ClientConfig(
                    host="127.0.0.1",
                    port=port,
                    default_deadline_s=2.0,
                    retry=RetryPolicy(max_retries=0),
                )
            )
            with client:
                while not stop_clients.is_set():
                    try:
                        client.get_features("profile", worker % 20)
                        bucket = "ok"
                    except Exception as exc:  # noqa: BLE001 - classified below
                        code = getattr(exc, "code", None)
                        cause = exc.__cause__
                        if code == "unavailable":
                            bucket = "unavailable"
                        elif isinstance(
                            cause, (ConnectionError, OSError, TimeoutError)
                        ) or isinstance(exc, (ConnectionError, OSError)):
                            bucket = "refused"  # listener already closed
                        else:
                            bucket = "other"
                    with outcomes_lock:
                        outcomes[bucket] += 1

        workers = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(8)
        ]
        for worker in workers:
            worker.start()
        # let load build, then drain mid-flight
        assert await_condition(lambda: server.requests.value > 50, 5.0)
        thread_count_under_load = threading.active_count()
        group.stop()
        stop_clients.set()
        for worker in workers:
            worker.join(timeout=5.0)

        # 1. zero dropped in-flight: every admitted request was answered
        assert server.admission.admitted.value == server.completed.value
        assert server.admission.inflight.value == 0
        # 2. real work happened, and the drain was observed by clients
        assert outcomes["ok"] > 50
        assert outcomes["other"] == 0, outcomes
        # 3. zero leaked threads: handlers + accept loop + gateway workers
        assert await_condition(
            lambda: threading.active_count() < thread_count_under_load - 7,
            5.0,
        ), f"threads leaked: {threading.enumerate()}"
        assert server._connections.value == 0
        assert server.state is ServiceState.STOPPED

    def test_drain_refuses_new_work_with_retryable_envelope(self):
        """A request racing the drain on a kept-alive connection gets
        503 unavailable (retryable), not a reset — while the request
        already in flight still completes.

        The backend read for entity 2 is *gated* on an event rather
        than a sleep, so "the request is in flight when the drain
        begins" is guaranteed, not timed.
        """
        store = OnlineStore()
        store.create_namespace("profile")
        for eid in range(5):
            store.write(
                "profile", eid, {"score": float(eid)}, event_time=time.time()
            )
        gate = _GatedStore(store, gated_entity=2)
        gateway = ServingGateway(gate)
        server = FeatureServer(gateway, ServerConfig(drain_deadline_s=5.0))
        group = ServiceGroup(name="net-stack")
        group.add(gateway)
        group.add(server)
        group.start()
        client = FeatureClient(
            ClientConfig(
                host="127.0.0.1",
                port=server.port,
                retry=RetryPolicy(max_retries=0),
            )
        )
        try:
            with client:
                client.get_features("profile", 1)  # warm the keep-alive conn

                slow_done = threading.Event()
                slow_result: list[object] = []

                def slow_request():
                    other = FeatureClient(
                        ClientConfig(
                            host="127.0.0.1",
                            port=server.port,
                            default_deadline_s=5.0,
                            retry=RetryPolicy(max_retries=0),
                        )
                    )
                    with other:
                        slow_result.append(other.get_features("profile", 2))
                    slow_done.set()

                slow = threading.Thread(target=slow_request, daemon=True)
                slow.start()
                # the gated read proves the request is inside dispatch
                assert gate.entered.wait(timeout=5.0)
                stopper = threading.Thread(target=group.stop, daemon=True)
                stopper.start()
                assert await_condition(lambda: server.draining, 5.0)
                # the draining server refuses the kept-alive request retryably
                with pytest.raises(LifecycleError):
                    client.get_features("profile", 3)
                gate.release.set()  # let the in-flight request finish
                stopper.join(timeout=6.0)
                assert not stopper.is_alive()
                # the in-flight request completed despite the drain
                assert slow_done.wait(timeout=5.0)
                assert slow_result == [{"score": 2.0}]
        finally:
            gate.release.set()
            group.stop()

    def test_group_drains_front_end_before_gateway(self):
        """Reverse drain order: when the server's _on_stop runs, the
        gateway behind it must still be RUNNING."""
        group, gateway, server = _build_stack()
        group.start()
        gateway_state_at_server_drain: list[ServiceState] = []
        original = server._on_stop

        def spying_on_stop():
            gateway_state_at_server_drain.append(gateway.state)
            original()

        server._on_stop = spying_on_stop
        group.stop()
        assert gateway_state_at_server_drain == [ServiceState.RUNNING]
        assert gateway.state is ServiceState.STOPPED

    def test_double_stop_is_idempotent(self):
        group, __, server = _build_stack()
        group.start()
        group.stop()
        group.stop()
        server.stop()
        assert server.state is ServiceState.STOPPED

    def test_stopped_server_refuses_port_access(self):
        group, __, server = _build_stack()
        group.start()
        port = server.port
        group.stop()
        # the listener is really gone: the client's transport failure
        # surfaces as its retries-exhausted wrapper with the refusal chained
        client = FeatureClient(
            ClientConfig(
                host="127.0.0.1", port=port, retry=RetryPolicy(max_retries=0)
            )
        )
        with client:
            with pytest.raises(
                (ConnectionError, OSError, OverloadedError, ReproError)
            ) as info:
                client.get_features("profile", 1)
            if isinstance(info.value, ReproError):
                assert isinstance(info.value.__cause__, OSError)

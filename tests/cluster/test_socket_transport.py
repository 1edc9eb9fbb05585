"""SocketTransport: the FaultyTransport contract over real TCP.

Runs :class:`~tests.cluster.test_transport.FaultSurfaceSuite` over the
socket delivery, then adds what only a real wire can test: bytes
surviving the JSON framing, exception classes reconstructed across the
boundary, concurrent callers, and clean teardown.
"""

import threading

import pytest

from repro.cluster import Cluster, FaultyTransport, Message, SocketTransport
from repro.errors import WrongOwnerError
from repro.runtime import await_condition

from tests.cluster.test_transport import FaultSurfaceSuite


def _echo(message: Message) -> dict:
    return {"kind": message.kind, "src": message.src, **message.payload}


class TestSocketTransport(FaultSurfaceSuite):
    kind = "socket"

    def test_handler_exceptions_cross_the_wire_typed(self, transport):
        def boom(message: Message) -> dict:
            raise WrongOwnerError("not the leader for that key")

        transport.register("a", boom)
        with pytest.raises(WrongOwnerError, match="not the leader"):
            transport.request("b", "a", "ping")

    def test_builtin_exceptions_reconstruct_too(self, transport):
        def boom(message: Message) -> dict:
            raise RuntimeError("handler exploded")

        transport.register("a", boom)
        with pytest.raises(RuntimeError, match="handler exploded"):
            transport.request("b", "a", "ping")

    def test_bytes_payloads_survive_the_json_framing(self, transport):
        """Replication frames are raw bytes: the __b64__ tagging must
        return them byte-identical, nested anywhere in the payload."""
        blob = bytes(range(256)) * 4

        def relay(message: Message) -> dict:
            assert message.payload["frames"] == [blob]
            return {"echo": message.payload["frames"], "n": 1}

        transport.register("a", relay)
        response = transport.request(
            "b", "a", "replicate", {"frames": [blob], "meta": {"raw": blob}}
        )
        assert response["echo"] == [blob]

    def test_concurrent_requests_from_many_threads(self, transport):
        transport.register("a", _echo)
        errors: list[Exception] = []

        def caller(i: int) -> None:
            try:
                for j in range(20):
                    out = transport.request("b", "a", "ping", {"i": i, "j": j})
                    assert out["i"] == i and out["j"] == j
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [
            threading.Thread(target=caller, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        assert transport.requests.value == 160

    def test_snapshot_reports_state(self, transport):
        super().test_snapshot_reports_state(transport)
        # the inner transport's own fields ride along
        assert transport.snapshot()["address"][0] == "127.0.0.1"

    def test_stop_leaks_no_threads(self):
        baseline = threading.active_count()
        transport = SocketTransport(name="leak-check")
        transport.register("a", _echo)
        for __ in range(10):
            transport.request("b", "a", "ping")
        transport.stop()
        assert await_condition(
            lambda: threading.active_count() <= baseline, timeout_s=5.0
        ), f"leaked threads: {threading.enumerate()}"


def test_cluster_wraps_and_owns_its_socket_transport(tmp_path):
    baseline = threading.active_count()
    cluster = Cluster(tmp_path, n_shards=1, transport="socket").start()
    try:
        assert isinstance(cluster.transport, FaultyTransport)
        assert isinstance(cluster.transport.inner, SocketTransport)
        assert "address" in cluster.snapshot()["transport"]
    finally:
        cluster.stop()
    assert not cluster.transport.inner.running
    assert await_condition(
        lambda: threading.active_count() <= baseline, timeout_s=5.0
    ), f"leaked threads: {threading.enumerate()}"

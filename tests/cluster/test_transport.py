"""FaultyTransport: partitions, fault injection and counters, over both
deliveries.

:class:`FaultSurfaceSuite` is written once and runs twice — as
``TestLocalTransport`` here and as ``TestSocketTransport`` in
``test_socket_transport.py`` — so the fault surface is checked over the
in-process and the real-TCP transport alike. Each class adds what only
its delivery can show.
"""

import pytest

from repro.cluster import FaultyTransport, LocalTransport, Message
from repro.errors import NodeUnreachableError
from repro.runtime import FaultPolicy

from tests.cluster.conftest import build_transport, stop_transport


def _echo(message: Message) -> dict:
    return {"kind": message.kind, "src": message.src, **message.payload}


class FaultSurfaceSuite:
    """The :class:`FaultyTransport` contract; subclasses pick ``kind``."""

    kind = "local"

    @pytest.fixture
    def transport(self):
        transport = build_transport(self.kind)
        yield transport
        stop_transport(transport)

    def test_request_reaches_handler_and_returns_response(self, transport):
        transport.register("a", _echo)
        response = transport.request("b", "a", "ping", {"x": 1})
        assert response == {"kind": "ping", "src": "b", "x": 1}
        assert transport.requests.value == 1

    def test_unregistered_destination_is_unreachable(self, transport):
        transport.register("a", _echo)
        with pytest.raises(NodeUnreachableError):
            transport.request("a", "ghost", "ping")
        assert transport.unreachable.value == 1

    def test_deregister_makes_node_disappear(self, transport):
        transport.register("a", _echo)
        assert transport.request("b", "a", "ping")["src"] == "b"
        transport.deregister("a")
        with pytest.raises(NodeUnreachableError):
            transport.request("b", "a", "ping")

    def test_partition_is_symmetric_and_healable(self, transport):
        transport.register("a", _echo)
        transport.register("b", _echo)
        transport.partition("a", "b")
        for src, dst in (("a", "b"), ("b", "a")):
            with pytest.raises(NodeUnreachableError):
                transport.request(src, dst, "ping")
        assert transport.unreachable.value == 2
        # third parties are unaffected
        assert transport.request("c", "a", "ping")["src"] == "c"
        transport.heal("a", "b")
        assert transport.request("a", "b", "ping")["src"] == "a"
        transport.partition("a", "b")
        transport.heal_all()
        assert transport.request("b", "a", "ping")["src"] == "b"

    def test_injected_errors_surface_as_unreachable(self, transport):
        transport.register("a", _echo)
        transport.set_fault(FaultPolicy(error_rate=1.0, seed=1), dst="a")
        with pytest.raises(NodeUnreachableError):
            transport.request("b", "a", "ping")
        assert transport.dropped.value == 1

    def test_fault_specificity_exact_link_wins_over_wildcard(self, transport):
        transport.register("a", _echo)
        # global: drop everything; exact link a<-b: clean
        transport.set_fault(FaultPolicy(error_rate=1.0, seed=1))
        transport.set_fault(FaultPolicy(), src="b", dst="a")
        assert transport.request("b", "a", "ping")["src"] == "b"
        with pytest.raises(NodeUnreachableError):
            transport.request("c", "a", "ping")
        transport.clear_faults()
        assert transport.request("c", "a", "ping")["src"] == "c"

    def test_snapshot_reports_state(self, transport):
        transport.register("a", _echo)
        transport.register("b", _echo)
        transport.partition("a", "b")
        snap = transport.snapshot()
        assert snap["nodes"] == ["a", "b"]
        assert snap["partitions"] == [("a", "b")]


class TestLocalTransport(FaultSurfaceSuite):
    kind = "local"

    def test_handler_exceptions_propagate_unchanged(self, transport):
        def boom(message: Message) -> dict:
            raise RuntimeError("handler exploded")

        transport.register("a", boom)
        with pytest.raises(RuntimeError, match="handler exploded"):
            transport.request("b", "a", "ping")

    def test_faults_are_decided_before_delivery(self):
        delivered: list[str] = []
        transport = FaultyTransport(LocalTransport())
        transport.register("a", lambda m: delivered.append(m.src) or {})
        transport.partition("a", "b")
        transport.set_fault(FaultPolicy(error_rate=1.0, seed=1), src="c")
        for src in ("b", "c"):
            with pytest.raises(NodeUnreachableError):
                transport.request(src, "a", "ping")
        transport.request("d", "a", "ping")
        assert delivered == ["d"]
        assert transport.inner.registered() == ["a"]

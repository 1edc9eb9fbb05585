"""End-to-end tests: FeatureClient ↔ FeatureServer over real sockets.

Everything here exercises the full stack — client encode, TCP, HTTP
parse, auth, admission, gateway dispatch, envelope decode — against a
real :class:`~repro.serving.ServingGateway` (and, for the vector route,
a real :class:`~repro.vecserve.VectorService`). No mocked transport: the
protocol tests already cover the codecs in isolation; these prove the
wiring.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    NotRegisteredError,
    ValidationError,
)
from repro.net import (
    AdmissionConfig,
    AuthError,
    ClientConfig,
    FeatureClient,
    FeatureServer,
    PayloadTooLargeError,
    QuotaConfig,
    ServerConfig,
    ThrottledError,
)
from repro.runtime import FaultPolicy, RetryPolicy, await_condition
from repro.serving import FaultInjectingOnlineStore, ServingGateway
from repro.storage.online import OnlineStore
from repro.vecserve import VectorService


@pytest.fixture()
def stack():
    """A served online store with a few rows, torn down in order."""
    store = OnlineStore()
    store.create_namespace("profile")
    for eid in range(50):
        store.write(
            "profile", eid, {"score": eid * 0.5}, event_time=time.time()
        )
    gateway = ServingGateway(store)
    server = FeatureServer(gateway)
    server.start()
    try:
        yield store, gateway, server
    finally:
        server.stop()
        gateway.stop()


def _client(server, **overrides) -> FeatureClient:
    return FeatureClient.for_server(server, **overrides)


class TestFeatureRoutes:
    def test_point_read(self, stack):
        __, __, server = stack
        with _client(server) as client:
            assert client.get_features("profile", 4) == {"score": 2.0}

    def test_batch_read(self, stack):
        __, __, server = stack
        with _client(server) as client:
            got = client.get_features_batch("profile", [1, 3, 5])
            assert got == [{"score": 0.5}, {"score": 1.5}, {"score": 2.5}]

    def test_write_then_read(self, stack):
        __, __, server = stack
        with _client(server) as client:
            client.write_features("profile", 7, {"score": 99.0})
            assert client.get_features("profile", 7) == {"score": 99.0}

    def test_unknown_namespace_round_trips_not_registered(self, stack):
        __, __, server = stack
        with _client(server) as client:
            with pytest.raises(NotRegisteredError):
                client.get_features("ghost", 1)

    def test_non_integer_entity_id_rejected(self, stack):
        __, __, server = stack
        with _client(server) as client:
            with pytest.raises(ValidationError):
                client.request("GET", "/features/profile/abc")

    def test_unknown_policy_rejected(self, stack):
        __, __, server = stack
        with _client(server) as client:
            with pytest.raises(ValidationError):
                client.get_features("profile", 1, policy="stale_is_fine")

    def test_healthz_no_auth(self, stack):
        __, __, server = stack
        with _client(server) as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["health"]["state"] == "running"


class TestVectorRoute:
    def test_search_over_the_wire(self, stack):
        __, gateway, server = stack
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(40, 8))
        with VectorService(n_workers=2) as vectors_service:
            vectors_service.serve_matrix(
                "emb", 1, np.arange(40, dtype=np.int64), vectors,
                n_shards=2, sample_rate=0.0,
            )
            gateway.vectors = vectors_service
            with _client(server) as client:
                result = client.search_vectors(
                    "emb", [float(x) for x in vectors[11]], k=3
                )
                assert result["ids"][0] == 11
                assert len(result["ids"]) == 3
                assert result["partial"] is False
                assert result["name"] == "emb"

    def test_search_without_vector_service_is_client_error(self, stack):
        __, __, server = stack
        with _client(server) as client:
            with pytest.raises(ValidationError):
                client.search_vectors("emb", [0.0] * 8)


_ZEROS7 = ", 0.0" * 7


class TestHostileNumbers:
    """Bodies whose numbers are not finite JSON numbers of the right type
    fail closed with 400 ``invalid_argument`` instead of a 500 or a 200
    carrying NaN scores (which is not RFC 8259 JSON)."""

    @staticmethod
    def _send(server, method, path, body: bytes):
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "body",
        [
            '{"query": [NaN' + _ZEROS7 + "]}",
            '{"query": ["inf"' + _ZEROS7 + "]}",
            '{"query": [1e400' + _ZEROS7 + "]}",
            '{"query": [-1e400' + _ZEROS7 + "]}",
            '{"query": [1' + "0" * 400 + _ZEROS7 + "]}",
            '{"query": [true' + _ZEROS7 + "]}",
            '{"query": [[0.5]' + _ZEROS7 + "]}",
            '{"query": [1.0' + _ZEROS7 + '], "k": "abc"}',
            '{"query": [1.0' + _ZEROS7 + '], "k": null}',
            '{"query": [1.0' + _ZEROS7 + '], "k": 2.5}',
            '{"query": [1.0' + _ZEROS7 + '], "k": true}',
            '{"query": [1.0' + _ZEROS7 + '], "version": "x"}',
            '{"query": [1.0' + _ZEROS7 + '], "version": 1.5}',
        ],
        ids=[
            "nan",
            "inf-string",
            "overflow",
            "negative-overflow",
            "huge-int",
            "bool-element",
            "nested-element",
            "k-string",
            "k-null",
            "k-float",
            "k-bool",
            "version-string",
            "version-float",
        ],
    )
    def test_vector_search_rejects(self, stack, body):
        __, gateway, server = stack
        rng = np.random.default_rng(3)
        with VectorService(n_workers=2) as vectors_service:
            vectors_service.serve_matrix(
                "emb", 1, np.arange(40, dtype=np.int64), rng.normal(size=(40, 8)),
                n_shards=2, sample_rate=0.0,
            )
            gateway.vectors = vectors_service
            status, payload = self._send(
                server, "POST", "/v1/vectors/emb/search", body.encode()
            )
        assert status == 400, payload
        assert payload["error"]["code"] == "invalid_argument"

    @pytest.mark.parametrize(
        "event_time",
        ['"nan"', '"abc"', "NaN", "1e400", "1" + "0" * 400, "true", "[1.0]"],
        ids=["nan-string", "string", "nan", "overflow", "huge-int", "bool", "list"],
    )
    def test_write_rejects_event_time(self, stack, event_time):
        store, __, server = stack
        body = '{"values": {"score": 1.0}, "event_time": ' + event_time + "}"
        status, payload = self._send(
            server, "PUT", "/v1/features/profile/3", body.encode()
        )
        assert status == 400, payload
        assert payload["error"]["code"] == "invalid_argument"
        assert store.read("profile", 3)["score"] == 1.5


class TestProtocolEdges:
    """Malformed JSON / oversized body / unknown route / bad method."""

    def _raw(self, server, method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def test_malformed_json_is_400_invalid_json(self, stack):
        __, __, server = stack
        status, payload = self._raw(
            server, "POST", "/v1/features/profile", body=b"{nope"
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"
        assert payload["error"]["retryable"] is False

    def test_oversized_body_is_413(self, stack):
        __, __, server = stack
        gateway = server.gateway
        small = FeatureServer(gateway, ServerConfig(max_body_bytes=64))
        small.start()
        try:
            status, payload = self._raw(
                small,
                "POST",
                "/v1/features/profile",
                body=json.dumps(
                    {"entity_ids": list(range(200))}
                ).encode(),
            )
            assert status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            small.stop()

    def test_unknown_route_is_404_envelope(self, stack):
        __, __, server = stack
        status, payload = self._raw(server, "GET", "/v1/nonsense")
        assert status == 404
        assert payload["error"]["code"] == "unknown_route"

    def test_unversioned_path_is_404(self, stack):
        __, __, server = stack
        status, payload = self._raw(server, "GET", "/features/profile/1")
        assert status == 404
        assert payload["error"]["code"] == "unknown_route"

    def test_wrong_method_is_405(self, stack):
        __, __, server = stack
        status, payload = self._raw(server, "DELETE", "/v1/features/profile/1")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_malformed_deadline_header_is_400(self, stack):
        __, __, server = stack
        status, payload = self._raw(
            server,
            "GET",
            "/v1/features/profile/1",
            headers={"X-Deadline-Ms": "soon"},
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_argument"


class TestSelectorSubstrate:
    """Behaviors only the selector front end has: header-time 413 and
    idle keep-alive reaping."""

    def test_oversized_content_length_rejected_before_body_sent(self, stack):
        """The 413 arrives from the headers alone — the client never
        gets to upload the body it declared."""
        __, __, server = stack
        gateway = server.gateway
        small = FeatureServer(gateway, ServerConfig(max_body_bytes=64))
        small.start()
        try:
            with socket.create_connection(small.address, timeout=5) as sock:
                sock.sendall(
                    b"POST /v1/features/profile HTTP/1.1\r\n"
                    b"Content-Length: 1000000\r\n\r\n"
                )  # headers only: the megabyte body is never sent
                response = sock.recv(65536)
            assert response.startswith(b"HTTP/1.1 413 ")
            assert b'"payload_too_large"' in response
            assert b"Connection: close" in response
        finally:
            small.stop()

    def test_idle_keepalive_connection_is_reaped_and_counted(self, stack):
        __, __, server = stack
        gateway = server.gateway
        quick = FeatureServer(gateway, ServerConfig(keepalive_idle_s=0.15))
        quick.start()
        try:
            with socket.create_connection(quick.address, timeout=5) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
                # then go quiet: the loop reaps us
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
            # the FIN races the counter increment by a few instructions
            assert await_condition(
                lambda: quick.connections_reaped.value == 1, timeout_s=5.0
            )
            assert quick.snapshot()["connections_reaped"] == 1
        finally:
            quick.stop()


class TestAuth:
    @pytest.fixture()
    def authed(self, stack):
        __, gateway, __ = stack
        server = FeatureServer(
            gateway,
            ServerConfig(auth_tokens={"sekret": "alice", "zzz": "bob"}),
        )
        server.start()
        yield server
        server.stop()

    def test_valid_token_admits(self, authed):
        with _client(authed, token="sekret") as client:
            assert client.get_features("profile", 1) == {"score": 0.5}

    def test_missing_token_is_401(self, authed):
        with _client(authed) as client:
            with pytest.raises(AuthError):
                client.get_features("profile", 1)

    def test_wrong_token_is_401(self, authed):
        with _client(authed, token="guess") as client:
            with pytest.raises(AuthError):
                client.get_features("profile", 1)

    def test_healthz_bypasses_auth(self, authed):
        with _client(authed) as client:
            assert client.healthz()["status"] == "ok"

    def test_token_maps_to_tenant_quota(self, stack):
        """The tenant resolved from the token is the one the quota hits."""
        __, gateway, __ = stack
        server = FeatureServer(
            gateway,
            ServerConfig(
                auth_tokens={"sekret": "alice"},
                admission=AdmissionConfig(
                    tenant_quotas={"alice": QuotaConfig(rate=0.001, burst=2)}
                ),
            ),
        )
        server.start()
        try:
            with _client(
                server,
                token="sekret",
                retry=RetryPolicy(max_retries=0),
            ) as client:
                client.get_features("profile", 1)
                client.get_features("profile", 2)
                with pytest.raises(ThrottledError):
                    client.get_features("profile", 3)
            assert server.admission.throttled.value >= 1
        finally:
            server.stop()


class TestMetricsEndpoint:
    def test_json_negotiation(self, stack):
        __, __, server = stack
        with _client(server) as client:
            client.get_features("profile", 1)
            snap = client.metrics(json_format=True)
            assert "net_requests_total" in snap
            # the shared registry exports the gateway's plane too
            assert any(name.startswith("serving_") for name in snap)

    def test_prometheus_negotiation(self, stack):
        __, __, server = stack
        with _client(server) as client:
            client.get_features("profile", 1)
            text = client.metrics(json_format=False)
            assert "# TYPE net_requests_total counter" in text
            assert "net_request_latency_seconds" in text


class TestDeadlinePropagation:
    def test_deadline_header_bounds_slow_store(self, stack):
        """A short X-Deadline-Ms must bound a stalling backend: the
        gateway degrades (serve-anyway -> None) instead of stalling."""
        store, __, __ = stack
        stall_s = 3.0
        slow = FaultInjectingOnlineStore(
            store, FaultPolicy(base_latency_s=stall_s)
        )
        gateway = ServingGateway(slow)
        server = FeatureServer(gateway)
        server.start()
        try:
            with _client(
                server, retry=RetryPolicy(max_retries=0)
            ) as client:
                start = time.monotonic()
                got = client.get_features(
                    "profile", 1, deadline_s=0.15
                )
                elapsed = time.monotonic() - start
                assert got is None  # degraded, not served late
                # well under the stall even with scheduler noise on a
                # loaded single-core box
                assert elapsed < stall_s - 1.0
        finally:
            server.stop()
            gateway.stop()

    def test_raise_policy_surfaces_deadline_exceeded(self, stack):
        store, __, __ = stack
        slow = FaultInjectingOnlineStore(
            store, FaultPolicy(base_latency_s=1.0)
        )
        gateway = ServingGateway(slow)
        server = FeatureServer(gateway)
        server.start()
        try:
            with _client(
                server, retry=RetryPolicy(max_retries=0)
            ) as client:
                with pytest.raises(DeadlineExceededError):
                    client.get_features(
                        "profile", 1, policy="raise", deadline_s=0.15
                    )
        finally:
            server.stop()
            gateway.stop()


class TestClientRetry:
    def test_retryable_envelope_is_retried_to_success(self, stack):
        """A quota that refills lets a retrying client succeed where a
        non-retrying one would surface ThrottledError."""
        __, gateway, __ = stack
        server = FeatureServer(
            gateway,
            ServerConfig(
                admission=AdmissionConfig(
                    default_quota=QuotaConfig(rate=50.0, burst=1)
                )
            ),
        )
        server.start()
        try:
            with _client(
                server,
                retry=RetryPolicy(max_retries=4, backoff_s=0.02),
            ) as client:
                # burst of 2: the second must wait for a refill
                assert client.get_features("profile", 1) is not None
                assert (
                    client.get_features("profile", 2, deadline_s=1.0)
                    is not None
                )
                assert client.retries >= 1
        finally:
            server.stop()

    def test_terminal_envelope_fails_fast(self, stack):
        __, __, server = stack
        with _client(
            server, retry=RetryPolicy(max_retries=5)
        ) as client:
            before = client.attempts
            with pytest.raises(NotRegisteredError):
                client.get_features("ghost", 1)
            assert client.attempts == before + 1  # no retry burned

    def test_oversized_body_error_decodes(self, stack):
        __, gateway, __ = stack
        server = FeatureServer(gateway, ServerConfig(max_body_bytes=64))
        server.start()
        try:
            with _client(server) as client:
                with pytest.raises(PayloadTooLargeError):
                    client.get_features_batch(
                        "profile", list(range(500))
                    )
        finally:
            server.stop()

    def test_connection_survives_keepalive_reuse(self, stack):
        """Many sequential calls on one client reuse the thread-local
        connection (regression against per-request reconnect)."""
        __, __, server = stack
        with _client(server) as client:
            for eid in range(20):
                client.get_features("profile", eid % 5)
            assert client.attempts == 20
        assert server._connections.peak <= 3

    def test_close_closes_every_threads_connection(self, stack):
        """close() on one thread reaches the keep-alive connections other
        threads opened, while those threads are still alive. The server
        never reaps them itself within the test."""
        __, gateway, __ = stack
        server = FeatureServer(gateway, ServerConfig(keepalive_idle_s=60.0))
        server.start()
        client = _client(server)
        fetched = threading.Barrier(4)
        release = threading.Event()

        def reader(eid: int) -> None:
            client.get_features("profile", eid)
            fetched.wait()
            release.wait(timeout=10.0)

        threads = [
            threading.Thread(target=reader, args=(eid,)) for eid in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            fetched.wait(timeout=10.0)
            assert server.snapshot()["open_connections"] == 3
            client.close()
            assert await_condition(
                lambda: server.snapshot()["open_connections"] == 0,
                timeout_s=5.0,
            )
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
            server.stop()
        assert not any(thread.is_alive() for thread in threads)

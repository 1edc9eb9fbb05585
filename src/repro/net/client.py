"""The retrying client: the other half of the wire contract.

:class:`FeatureClient` is what a deployed model process holds instead of
an in-process gateway reference. It speaks exactly the protocol
:mod:`repro.net.protocol` defines, and its retry loop is driven by the
server's own error envelope — not by guessing from HTTP status codes:

* a **retryable** envelope (throttled, overloaded, unavailable,
  transient_store, deadline_exceeded, backpressure) is retried with
  exponential backoff, waiting at least the server's ``Retry-After``
  hint when one is present — the server knows when capacity returns, the
  client only knows how long it has waited;
* a **terminal** envelope (not_found, invalid_argument, unauthenticated,
  …) is raised immediately as the *decoded* :mod:`repro.errors`
  exception class, so ``except NotRegisteredError:`` works identically
  against a remote gateway and a local one;
* a **transport** failure (connection refused/reset) is retryable by
  definition — with one free immediate reconnect when the failure hit a
  *reused* keep-alive connection, the classic stale-connection case.

Every attempt shares one request deadline: it is sent to the server as
``X-Deadline-Ms`` (recomputed per attempt from the *remaining* budget,
so a retry never asks the server for time the client no longer has) and
locally bounds the socket timeout, plus a short grace for the reply to
travel back. Connections are per-thread
(``http.client`` is not thread-safe), so one client instance can be
shared by a multi-threaded loadgen; :meth:`FeatureClient.close` closes
the connections of every thread that used it.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.errors import DeadlineExceededError
from repro.net.protocol import (
    API_PREFIX,
    DEADLINE_HEADER,
    JSON_CONTENT_TYPE,
    PRIORITY_HEADER,
    TENANT_HEADER,
    decode_error,
    dump_json,
    is_retryable,
    parse_json_body,
)
from repro.runtime import Deadline, RetryPolicy

#: The socket waits this long past the deadline sent in ``X-Deadline-Ms``,
#: so a reply the server degrades *at* the deadline still arrives.
_DEADLINE_GRACE_S = 0.25


@dataclass(frozen=True)
class ClientConfig:
    """How one client talks to one server."""

    host: str = "127.0.0.1"
    port: int = 0
    token: str | None = None
    tenant: str | None = None
    priority: str | None = None  # "high" | "best_effort" | None (server default)
    default_deadline_s: float = 0.5
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=3, backoff_s=0.01)
    )


class FeatureClient:
    """A thread-safe, retrying HTTP client for the ``repro.net`` surface."""

    def __init__(self, config: ClientConfig) -> None:
        self.config = config
        self._local = threading.local()
        self.attempts = 0  # total HTTP attempts (inspectable by tests/bench)
        self.retries = 0
        self._counter_lock = threading.Lock()
        #: every thread's open connection, so close() reaches them all
        self._open: set[http.client.HTTPConnection] = set()

    @classmethod
    def for_server(cls, server, **overrides) -> "FeatureClient":
        """Convenience: a client pointed at a running FeatureServer."""
        host, port = server.address
        return cls(ClientConfig(host=host, port=port, **overrides))

    # -- endpoints ------------------------------------------------------------

    def get_features(
        self,
        namespace: str,
        entity_id: int,
        policy: str | None = None,
        deadline_s: float | None = None,
    ) -> dict | None:
        suffix = f"?policy={policy}" if policy else ""
        payload = self.request(
            "GET",
            f"/features/{namespace}/{entity_id}{suffix}",
            deadline_s=deadline_s,
        )
        return payload.get("features")

    def get_features_batch(
        self,
        namespace: str,
        entity_ids: list[int],
        policy: str | None = None,
        deadline_s: float | None = None,
    ) -> list[dict | None]:
        body: dict[str, object] = {"entity_ids": entity_ids}
        if policy:
            body["policy"] = policy
        payload = self.request(
            "POST", f"/features/{namespace}", body=body, deadline_s=deadline_s
        )
        return payload.get("features", [])

    def write_features(
        self,
        namespace: str,
        entity_id: int,
        values: dict,
        event_time: float | None = None,
        deadline_s: float | None = None,
    ) -> None:
        body: dict[str, object] = {"values": values}
        if event_time is not None:
            body["event_time"] = event_time
        self.request(
            "PUT",
            f"/features/{namespace}/{entity_id}",
            body=body,
            deadline_s=deadline_s,
        )

    def search_vectors(
        self,
        name: str,
        query: list[float],
        k: int = 10,
        version: int | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        body: dict[str, object] = {"query": list(query), "k": k}
        if version is not None:
            body["version"] = version
        return self.request(
            "POST", f"/vectors/{name}/search", body=body, deadline_s=deadline_s
        )

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self, json_format: bool = True) -> dict | str:
        headers = {"Accept": JSON_CONTENT_TYPE if json_format else "text/plain"}
        status, raw = self._send("GET", "/metrics", None, headers, 2.0)
        if status != 200:
            raise decode_error(parse_json_body(raw))
        return parse_json_body(raw) if json_format else raw.decode("utf-8")

    # -- the retry loop -------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        """One logical request: attempts until success, terminal error, or
        the shared deadline runs out."""
        deadline = Deadline.after(deadline_s or self.config.default_deadline_s)
        attempt = 0
        last_exc: BaseException | None = None
        while True:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"{method} {path}: client deadline exhausted after "
                    f"{attempt} attempt(s); last error: {last_exc!r}"
                ) from last_exc
            with self._counter_lock:
                self.attempts += 1
            try:
                status, raw = self._send(
                    method, path, body, self._headers(remaining),
                    remaining + _DEADLINE_GRACE_S,
                )
            except (ConnectionError, socket.timeout, TimeoutError, OSError) as exc:
                last_exc = exc
            else:
                if status < 400:
                    return parse_json_body(raw)
                exc = decode_error(parse_json_body(raw))
                if not is_retryable(exc):
                    raise exc
                last_exc = exc
            attempt += 1
            if attempt > self.config.retry.max_retries:
                if getattr(last_exc, "code", None) is not None:
                    # a decoded envelope is the real failure — surface it
                    # (a non-retrying client sees ThrottledError, not a
                    # synthetic deadline wrapper)
                    raise last_exc  # type: ignore[misc]
                raise DeadlineExceededError(
                    f"{method} {path}: retries exhausted after {attempt} "
                    f"attempt(s); last error: {last_exc!r}"
                ) from last_exc
            with self._counter_lock:
                self.retries += 1
            pause = max(
                self.config.retry.backoff_for(attempt),
                float(getattr(last_exc, "retry_after_s", 0.0)),
            )
            deadline.sleep(min(pause, max(deadline.remaining(), 0.0)))

    def _headers(self, remaining_s: float) -> dict[str, str]:
        headers = {
            "Content-Type": JSON_CONTENT_TYPE,
            "Accept": JSON_CONTENT_TYPE,
            # per-attempt recomputation: the server only ever sees the
            # budget the client actually has left
            DEADLINE_HEADER: str(max(int(remaining_s * 1000), 1)),
        }
        if self.config.token:
            headers["Authorization"] = f"Bearer {self.config.token}"
        if self.config.tenant:
            headers[TENANT_HEADER] = self.config.tenant
        if self.config.priority:
            headers[PRIORITY_HEADER] = self.config.priority
        return headers

    # -- transport ------------------------------------------------------------

    def _connection(self, timeout_s: float) -> tuple[http.client.HTTPConnection, bool]:
        """The calling thread's keep-alive connection; (conn, was_reused)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.config.host, self.config.port, timeout=timeout_s
            )
            self._local.conn = conn
            return conn, False
        conn.timeout = timeout_s
        if conn.sock is not None:
            conn.sock.settimeout(timeout_s)
        return conn, True

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            with self._counter_lock:
                self._open.discard(conn)
            conn.close()
            self._local.conn = None

    def _send(
        self,
        method: str,
        path: str,
        body: dict | None,
        headers: dict[str, str],
        timeout_s: float,
    ) -> tuple[int, bytes]:
        payload = dump_json(body) if body is not None else None
        url = API_PREFIX + path
        for reconnect in (False, True):
            conn, reused = self._connection(timeout_s)
            try:
                if conn.sock is None:
                    with self._counter_lock:
                        self._open.add(conn)
                    conn.connect()
                    # request headers and body are separate send()s;
                    # Nagle would serialize them behind a delayed ACK
                    conn.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                conn.request(method, url, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                if response.getheader("Connection", "").lower() == "close":
                    self._drop_connection()
                return response.status, raw
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                TimeoutError,
                OSError,
            ):
                self._drop_connection()
                # a dead *reused* keep-alive connection gets one free
                # immediate reconnect; a fresh connection failing is real
                if reconnect or not reused:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close every connection this client opened, from any thread.

        Call it once the client's threads are done with it; a thread
        that uses the client again afterwards reconnects."""
        self._drop_connection()
        with self._counter_lock:
            stale, self._open = self._open, set()
        for conn in stale:
            conn.close()

    def __enter__(self) -> "FeatureClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

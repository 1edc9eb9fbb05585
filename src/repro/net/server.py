"""The HTTP front end: a selector-loop server over the serving gateway.

This is the process boundary the roadmap's "network serving surface"
item asks for: requests arrive as bytes on a socket, which is what makes
replicas, real clients and real load shedding possible. The server rides
the runtime kernel's I/O substrate (:mod:`repro.runtime.io`) — one
selector thread multiplexes every connection, so ten thousand idle
keep-alive clients cost ten thousand fds, not ten thousand threads —
because the interesting engineering is not connection plumbing but the
three-stage request path every call walks:

1. **protocol** (:mod:`repro.net.protocol` + :mod:`repro.net.http_io`):
   incremental HTTP/1.1 parsing on the loop thread (oversized
   ``Content-Length`` refused with 413 *before* buffering a body byte),
   versioned routes, auth token check, ``X-Deadline-Ms`` →
   :class:`~repro.runtime.Deadline`, and the structured error envelope
   for every failure;
2. **admission** (:mod:`repro.net.admission`): per-tenant token buckets
   (429 + ``Retry-After``) and watermark shedding of best-effort traffic
   under pressure (503 + ``Retry-After``);
3. **dispatch**: the surviving request becomes a plain
   :class:`~repro.serving.ServingGateway` /
   ``VectorService``-via-gateway call with the *remaining* deadline
   budget, run on a small fixed worker pool (gateway calls block on
   deadlines; the loop thread never does).

Concurrency shape: parse on the loop thread, dispatch on the pool, one
request in flight per connection (matching ``http.client``'s
non-pipelined keep-alive), responses flushed back through the loop's
buffered writer with write-interest toggling. Idle keep-alive
connections are reaped by the loop after ``keepalive_idle_s`` and
counted in ``connections_reaped`` — an abandoned client pins an fd for
half a second, not a thread forever.

The server is a :class:`repro.runtime.Service`, so a
:class:`~repro.runtime.ServiceGroup` drains it *before* the gateway
behind it. Drain is graceful and bounded: ``stop()`` closes the
listener, requests already admitted run to completion (new requests on
kept-alive connections get a retryable 503 ``unavailable`` and
``Connection: close``), idle connections are actively closed, and the
worker pool + loop shut down only when the last response has flushed —
the E21/E23 acceptance gates assert zero dropped in-flight responses
and zero leaked threads or fds under load.

Routes (all under ``/v1``):

====================================  =======================================
``GET  /v1/healthz``                  liveness + drain state (no auth)
``GET  /v1/metrics``                  registry export; ``Accept:
                                      application/json`` negotiates JSON,
                                      anything else Prometheus text
``GET  /v1/features/{ns}/{id}``       point feature lookup (``?policy=``)
``POST /v1/features/{ns}``            batch lookup ``{"entity_ids": [...]}``
``PUT  /v1/features/{ns}/{id}``       write-through ``{"values", "event_time"}``
``POST /v1/vectors/{name}/search``    top-k ``{"query", "k", "version"}``
====================================  =======================================
"""

from __future__ import annotations

import math
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ValidationError
from repro.net.admission import AdmissionConfig, AdmissionController, Priority
from repro.net.http_io import (
    HttpRequest,
    HttpRequestParser,
    serialize_response,
)
from repro.net.protocol import (
    API_PREFIX,
    AuthError,
    JSON_CONTENT_TYPE,
    OverloadedError,
    PROMETHEUS_CONTENT_TYPE,
    PRIORITY_HEADER,
    RETRY_AFTER_HEADER,
    TENANT_HEADER,
    ThrottledError,
    bearer_token,
    dump_json,
    encode_error,
    parse_deadline,
    parse_json_body,
    protocol_error,
    search_result_payload,
)
from repro.runtime import Deadline, MetricsRegistry, Service, await_condition
from repro.runtime.io import Connection, IoLoop, Listener
from repro.runtime.lifecycle import LifecycleError
from repro.serving import FreshnessPolicy


@dataclass(frozen=True)
class ServerConfig:
    """Everything tunable about the front end."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off server.port
    #: token -> tenant; empty mapping disables auth (tenant comes from
    #: the X-Tenant header, default "anonymous")
    auth_tokens: Mapping[str, str] = field(default_factory=dict)
    #: max Content-Length accepted; larger requests get 413 *before*
    #: any body byte is buffered
    max_body_bytes: int = 1_000_000
    #: budget for in-flight requests + idle keep-alive connections to
    #: clear after the listener closes
    drain_deadline_s: float = 5.0
    #: deadline applied when a request carries no X-Deadline-Ms
    default_deadline_s: float = 0.25
    #: idle budget for keep-alive connections — the loop reaps quieter
    #: ones (counted in ``connections_reaped``)
    keepalive_idle_s: float = 0.5
    #: dispatch pool size: how many gateway calls may block concurrently
    worker_threads: int = 16
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def validate(self) -> None:
        if self.max_body_bytes < 1:
            raise ValidationError(
                f"max_body_bytes must be >= 1 ({self.max_body_bytes=})"
            )
        if self.drain_deadline_s <= 0:
            raise ValidationError(
                f"drain_deadline_s must be positive ({self.drain_deadline_s=})"
            )
        if self.default_deadline_s <= 0:
            raise ValidationError(
                f"default_deadline_s must be positive "
                f"({self.default_deadline_s=})"
            )
        if self.worker_threads < 1:
            raise ValidationError(
                f"worker_threads must be >= 1 ({self.worker_threads=})"
            )
        self.admission.validate()


def _is_int(value) -> bool:
    """A JSON integer (Python parses ``true``/``false`` as ints too)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A JSON number as a float; bools, strings, lists and nulls are
    rejected. An integer too large for a float becomes ``±inf``, so the
    caller's finiteness check sees it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a JSON number ({value!r})")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class _Exchange:
    """One request/response pair moving through the server.

    Presents the surface the route/dispatch code consumes (``method``,
    ``path``, ``headers``, already-buffered ``body``) and collects the
    response as bytes; the worker ships ``response_bytes`` through the
    connection's buffered writer when the handler returns.
    """

    __slots__ = (
        "method",
        "path",
        "headers",
        "body",
        "close_connection",
        "response_bytes",
    )

    def __init__(self, request: HttpRequest) -> None:
        self.method = request.method
        self.path = request.target
        self.headers = request.headers
        self.body = request.body
        self.close_connection = request.close
        self.response_bytes = b""


class FeatureServer(Service):
    """The HTTP/JSON serving surface over a gateway (and its vector plane).

    ``gateway`` is a :class:`~repro.serving.ServingGateway`; vector
    search routes through ``gateway.search_neighbors``, so attach a
    ``VectorService`` to the gateway to serve ``/v1/vectors``.
    ``registry`` defaults to the gateway's own metrics registry — which
    makes ``GET /v1/metrics`` export the *whole* plane (serving,
    vecserve, admission, net, io) through one scrape endpoint.

    Unlike the historical planes this service is **not** started by its
    constructor: binding a socket is an observable side effect, so the
    caller (usually a :class:`~repro.runtime.ServiceGroup`) decides when.
    """

    def __init__(
        self,
        gateway,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name="net-server")
        self.config = config or ServerConfig()
        self.config.validate()
        self.gateway = gateway
        self.registry = (
            registry
            if registry is not None
            else gateway.metrics.registry
        )
        self.admission = AdmissionController(
            self.config.admission, registry=self.registry
        )
        self._loop: IoLoop | None = None
        self._listener: Listener | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._draining = threading.Event()
        self._previous_handlers: dict[int, object] = {}
        self._signal_drains = 0
        self._connections = self.registry.gauge("net_open_connections")
        self._inflight = self.registry.gauge("net_inflight")
        self.requests = self.registry.counter("net_requests_total")
        self.completed = self.registry.counter("net_completed_total")
        self.connections_reaped = self.registry.counter(
            "net_connections_reaped_total"
        )

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        self._loop = IoLoop(name="net-io", registry=self.registry)
        self._loop.start()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.worker_threads,
            thread_name_prefix="net-worker",
        )
        self._listener = self._loop.listen(
            self.config.host,
            self.config.port,
            self._on_accept,
            idle_timeout_s=self.config.keepalive_idle_s,
        )

    def _on_stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, then close.

        Order matters: listener first (no new connections), then wait
        for admitted requests (draining refusals carry ``Connection:
        close`` so their connections self-retire), then actively close
        idle keep-alives, and only then take down the pool and loop —
        every response flushes before its fd dies.
        """
        loop = self._loop
        if loop is None:
            return
        self._draining.set()
        if self._listener is not None:
            self._listener.close()
        deadline = Deadline.after(self.config.drain_deadline_s)
        await_condition(
            lambda: self._inflight.value == 0,
            timeout_s=max(deadline.remaining(), 0.0),
        )

        def _close_idle() -> None:
            for conn in loop.connections():
                if (
                    not getattr(conn, "busy", False)
                    and not getattr(conn, "queue", None)
                    and not conn.pending_out_bytes()
                ):
                    loop._close_connection(conn, "local")

        loop.run_on_loop(_close_idle)
        await_condition(
            lambda: self._connections.value == 0,
            timeout_s=max(
                deadline.remaining(), self.config.keepalive_idle_s + 0.5
            ),
        )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        loop.stop()
        self._stop_event.set()
        self._join_workers()

    # -- signal-initiated drain -----------------------------------------------

    def install_signal_handlers(
        self, signals: tuple[int, ...] = (signal.SIGTERM,)
    ) -> None:
        """Route process signals into the graceful drain (SIGTERM by default).

        This is the supervisor contract: an orchestrator (systemd,
        Kubernetes) sends SIGTERM and expects the listener to stop
        accepting while admitted requests run to completion — exactly
        what :meth:`stop` already does. The handler fires on the main
        thread, so it hands the blocking drain to a helper thread and
        returns immediately; in-flight dispatch is untouched.

        CPython only allows installing handlers from the main thread —
        call this from ``main()`` after :meth:`start`. Previous handlers
        are remembered and restored by :meth:`uninstall_signal_handlers`.
        """
        for signum in signals:
            self._previous_handlers[signum] = signal.signal(
                signum, self._handle_signal
            )

    def uninstall_signal_handlers(self) -> None:
        """Restore whatever handlers were in place before installation."""
        for signum, previous in self._previous_handlers.items():
            try:
                signal.signal(signum, previous)  # type: ignore[arg-type]
            except ValueError:
                pass  # not on the main thread; the process is exiting anyway
        self._previous_handlers.clear()

    def _handle_signal(self, signum: int, frame) -> None:
        self._signal_drains += 1
        self._draining.set()  # healthz flips before the drain thread runs
        threading.Thread(
            target=self.stop, name="net-signal-drain", daemon=True
        ).start()

    @property
    def signal_drains(self) -> int:
        """How many times a signal initiated the drain (0 or 1 normally)."""
        return self._signal_drains

    @property
    def port(self) -> int:
        if self._listener is None:
            raise LifecycleError(f"{self.name}: not started, no bound port")
        return self._listener.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.config.host, self.port)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def health(self) -> dict[str, object]:
        record = super().health()
        record["draining"] = self.draining
        record["inflight"] = self._inflight.value
        record["open_connections"] = self._connections.value
        if self._listener is not None:
            record["address"] = list(self.address)
        return record

    # -- connection plumbing (loop thread) -------------------------------------

    def _on_accept(self, conn: Connection) -> None:
        self._connections.inc()
        conn.parser = HttpRequestParser(  # type: ignore[attr-defined]
            max_body_bytes=self.config.max_body_bytes
        )
        conn.queue = deque()  # type: ignore[attr-defined]
        conn.busy = False  # type: ignore[attr-defined]
        conn.on_data = self._on_data
        conn.on_close = self._on_conn_close

    def _on_conn_close(self, conn: Connection, reason: str) -> None:
        self._connections.dec()
        if reason == "idle":
            self.connections_reaped.inc()

    def _on_data(self, conn: Connection, chunk: bytes) -> None:
        try:
            requests = conn.parser.feed(chunk)  # type: ignore[attr-defined]
        except Exception as exc:  # noqa: BLE001 - protocol violation
            # the stream cannot be resynchronized: envelope, then close
            self.requests.inc()
            status, payload = encode_error(exc)
            self.registry.counter(
                "net_responses_total", status=str(status)
            ).inc()
            conn.send(
                serialize_response(
                    status, dump_json(payload), JSON_CONTENT_TYPE, close=True
                )
            )
            conn.close_when_drained()
            return
        if requests:
            conn.queue.extend(requests)  # type: ignore[attr-defined]
            self._pump(conn)

    def _pump(self, conn: Connection) -> None:
        """Start the next queued request unless one is already running."""
        if conn.closed or conn.busy or not conn.queue:  # type: ignore[attr-defined]
            return
        request = conn.queue.popleft()  # type: ignore[attr-defined]
        conn.busy = True  # type: ignore[attr-defined]
        conn.reap_exempt = True  # never idle-reap mid-request
        pool = self._pool
        if pool is None:  # racing shutdown
            conn.close("shutdown")
            return
        pool.submit(self._work, conn, request)

    def _work(self, conn: Connection, request: HttpRequest) -> None:
        """Pool thread: run the request path, ship the response."""
        exchange = _Exchange(request)
        try:
            self._handle(exchange)
        except Exception as exc:  # noqa: BLE001 - belt and braces
            status, payload = encode_error(exc)
            exchange.response_bytes = serialize_response(
                status, dump_json(payload), JSON_CONTENT_TYPE, close=True
            )
            exchange.close_connection = True
        conn.send(exchange.response_bytes)
        if exchange.close_connection:
            conn.close_when_drained()
            return
        loop = self._loop

        def _request_done() -> None:
            conn.busy = False  # type: ignore[attr-defined]
            conn.reap_exempt = False
            conn.touch()
            self._pump(conn)

        if loop is not None:
            loop.call_soon(_request_done)

    # -- request path ---------------------------------------------------------

    def _handle(self, exchange: _Exchange) -> None:
        self.requests.inc()
        route = "unmatched"
        start = time.monotonic()
        status = 500
        try:
            route, status = self._route(exchange, exchange.method)
        except Exception as exc:  # noqa: BLE001 - every failure is an envelope
            status, payload = encode_error(exc)
            self._respond(exchange, status, payload)
        finally:
            self.registry.histogram(
                "net_request_latency_seconds", route=route
            ).record(time.monotonic() - start)
            self.registry.counter(
                "net_responses_total", status=str(status)
            ).inc()

    def _route(self, exchange: _Exchange, method: str) -> tuple[str, int]:
        """Match + dispatch; returns ``(route_label, http_status)``."""
        path = exchange.path.split("?", 1)[0].rstrip("/")
        query = self._query(exchange)
        if not path.startswith(API_PREFIX + "/"):
            return "unmatched", self._respond(
                exchange,
                *protocol_error(
                    "unknown_route", f"no route for {path!r}", 404
                ),
            )
        parts = path[len(API_PREFIX) + 1 :].split("/")

        # unauthenticated liveness first: load balancers probe it
        if parts == ["healthz"] and method == "GET":
            return "healthz", self._respond(
                exchange,
                200,
                {
                    "status": "draining" if self.draining else "ok",
                    "health": self.health(),
                },
            )

        tenant = self._authenticate(exchange)

        if parts == ["metrics"] and method == "GET":
            return "metrics", self._serve_metrics(exchange)

        priority = Priority.parse(exchange.headers.get(PRIORITY_HEADER))
        deadline = parse_deadline(exchange.headers) or Deadline.after(
            self.config.default_deadline_s
        )

        if self.draining:
            # a kept-alive connection racing the drain: refuse retryably,
            # and close so the client reconnects elsewhere
            status, payload = encode_error(
                LifecycleError("server is draining; retry another replica")
            )
            return "draining", self._respond(
                exchange, status, payload, close=True
            )

        admission = self.admission.try_admit(tenant, priority)
        if not admission.admitted:
            exc: Exception = (
                ThrottledError(admission.reason)
                if admission.verdict.value == "throttle"
                else OverloadedError(admission.reason)
            )
            status, payload = encode_error(
                exc, retry_after_s=admission.retry_after_s
            )
            return "shed", self._respond(
                exchange,
                status,
                payload,
                extra_headers={
                    RETRY_AFTER_HEADER: f"{admission.retry_after_s:.3f}"
                },
            )

        try:
            return self._dispatch(
                exchange, method, parts, query, deadline, priority
            )
        finally:
            self.completed.inc()  # an error envelope is still a response
            self.admission.release()

    def _dispatch(
        self,
        exchange: _Exchange,
        method: str,
        parts: list[str],
        query: dict[str, str],
        deadline: Deadline,
        priority: Priority,
    ) -> tuple[str, int]:
        self._inflight.inc()
        try:
            if parts[0] == "features" and len(parts) == 2 and method == "POST":
                return "features_batch", self._serve_features_batch(
                    exchange, parts[1], deadline
                )
            if parts[0] == "features" and len(parts) == 3 and method == "GET":
                return "features_get", self._serve_feature(
                    exchange, parts[1], parts[2], query, deadline
                )
            if parts[0] == "features" and len(parts) == 3 and method == "PUT":
                return "features_write", self._serve_write(
                    exchange, parts[1], parts[2]
                )
            if (
                parts[0] == "vectors"
                and len(parts) == 3
                and parts[2] == "search"
                and method == "POST"
            ):
                return "vector_search", self._serve_vector_search(
                    exchange, parts[1], deadline
                )
            known_prefix = parts[0] in ("features", "vectors", "metrics", "healthz")
            if known_prefix:
                return "unmatched", self._respond(
                    exchange,
                    *protocol_error(
                        "method_not_allowed",
                        f"{method} not allowed on {exchange.path!r}",
                        405,
                    ),
                )
            return "unmatched", self._respond(
                exchange,
                *protocol_error(
                    "unknown_route", f"no route for {exchange.path!r}", 404
                ),
            )
        finally:
            self._inflight.dec()

    # -- endpoints ------------------------------------------------------------

    def _serve_feature(
        self,
        exchange: _Exchange,
        namespace: str,
        raw_id: str,
        query: dict[str, str],
        deadline: Deadline,
    ) -> int:
        entity_id = self._parse_entity_id(raw_id)
        policy = self._parse_policy(query.get("policy"))
        values = self.gateway.get_features(
            namespace,
            entity_id,
            policy=policy,
            deadline_s=max(deadline.remaining(), 0.0),
        )
        return self._respond(
            exchange,
            200,
            {"namespace": namespace, "entity_id": entity_id, "features": values},
        )

    def _serve_features_batch(
        self, exchange: _Exchange, namespace: str, deadline: Deadline
    ) -> int:
        body = self._read_body(exchange)
        entity_ids = body.get("entity_ids")
        if not isinstance(entity_ids, list):
            raise ValidationError(
                "POST /v1/features/{ns} body needs an 'entity_ids' list"
            )
        policy = self._parse_policy(body.get("policy"))
        values = self.gateway.get_features_batch(
            namespace,
            [self._parse_entity_id(e) for e in entity_ids],
            policy=policy,
            deadline_s=max(deadline.remaining(), 0.0),
        )
        return self._respond(
            exchange, 200, {"namespace": namespace, "features": values}
        )

    def _serve_write(
        self, exchange: _Exchange, namespace: str, raw_id: str
    ) -> int:
        body = self._read_body(exchange)
        values = body.get("values")
        if not isinstance(values, dict):
            raise ValidationError(
                "PUT /v1/features/{ns}/{id} body needs a 'values' object"
            )
        entity_id = self._parse_entity_id(raw_id)
        raw_time = body.get("event_time")
        event_time = (
            time.time() if raw_time is None else _number(raw_time, "'event_time'")
        )
        if not math.isfinite(event_time):
            raise ValidationError(f"'event_time' must be finite ({raw_time!r})")
        self.gateway.write_features(
            namespace, entity_id, values, event_time=event_time
        )
        return self._respond(
            exchange, 200, {"namespace": namespace, "entity_id": entity_id, "written": True}
        )

    def _serve_vector_search(
        self, exchange: _Exchange, name: str, deadline: Deadline
    ) -> int:
        body = self._read_body(exchange)
        query_vector = body.get("query")
        if not isinstance(query_vector, list) or not query_vector:
            raise ValidationError(
                "POST /v1/vectors/{name}/search body needs a non-empty "
                "'query' list"
            )
        k = body.get("k", 10)
        if not _is_int(k):
            raise ValidationError(f"'k' must be an integer ({k!r})")
        version = body.get("version")
        if version is not None and not _is_int(version):
            raise ValidationError(
                f"'version' must be an integer or null ({version!r})"
            )
        result = self.gateway.search_neighbors(
            name,
            [_number(v, "'query' element") for v in query_vector],
            k=k,
            version=version,
            deadline_s=max(deadline.remaining(), 0.0),
        )
        return self._respond(
            exchange, 200, {"name": name, **search_result_payload(result)}
        )

    def _serve_metrics(self, exchange: _Exchange) -> int:
        accept = exchange.headers.get("Accept", "") or ""
        if JSON_CONTENT_TYPE in accept:
            body = self.registry.to_json(indent=2).encode("utf-8")
            return self._respond_raw(exchange, 200, body, JSON_CONTENT_TYPE)
        body = self.registry.to_prometheus().encode("utf-8")
        return self._respond_raw(exchange, 200, body, PROMETHEUS_CONTENT_TYPE)

    # -- request plumbing -----------------------------------------------------

    def _authenticate(self, exchange: _Exchange) -> str:
        """Token check (when configured) and tenant resolution."""
        tokens = self.config.auth_tokens
        if tokens:
            token = bearer_token(exchange.headers)
            if token is None:
                raise AuthError("missing bearer token")
            tenant = tokens.get(token)
            if tenant is None:
                raise AuthError("unrecognized bearer token")
            return tenant
        return exchange.headers.get(TENANT_HEADER) or "anonymous"

    @staticmethod
    def _query(exchange: _Exchange) -> dict[str, str]:
        if "?" not in exchange.path:
            return {}
        out: dict[str, str] = {}
        for pair in exchange.path.split("?", 1)[1].split("&"):
            if pair:
                key, __, value = pair.partition("=")
                out[key] = value
        return out

    @staticmethod
    def _parse_entity_id(raw) -> int:
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ValidationError(
                f"entity id must be an integer ({raw!r})"
            ) from None

    @staticmethod
    def _parse_policy(raw) -> FreshnessPolicy:
        if raw is None or raw == "":
            return FreshnessPolicy.SERVE_ANYWAY
        try:
            return FreshnessPolicy(str(raw))
        except ValueError:
            raise ValidationError(
                f"unknown freshness policy {raw!r}; allowed "
                f"{sorted(p.value for p in FreshnessPolicy)}"
            ) from None

    def _read_body(self, exchange: _Exchange) -> dict:
        # size was enforced at header-parse time (413 before buffering);
        # here the bytes are already bounded
        return parse_json_body(exchange.body)

    def _respond(
        self,
        exchange: _Exchange,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> int:
        return self._respond_raw(
            exchange,
            status,
            dump_json(payload),
            JSON_CONTENT_TYPE,
            extra_headers=extra_headers,
            close=close,
        )

    def _respond_raw(
        self,
        exchange: _Exchange,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> int:
        if close or self.draining:
            exchange.close_connection = True
        exchange.response_bytes = serialize_response(
            status,
            body,
            content_type,
            extra_headers=extra_headers,
            close=exchange.close_connection,
        )
        return status

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Operational state for the dashboard's network section."""
        responses = {
            labels["status"]: metric.value
            for name, labels, metric in self.registry.collect()
            if name == "net_responses_total"
        }
        latency = {
            labels["route"]: metric.summary()
            for name, labels, metric in self.registry.collect()
            if name == "net_request_latency_seconds"
        }
        return {
            "address": list(self.address) if self._listener else None,
            "draining": self.draining,
            "signal_drains": self._signal_drains,
            "requests": self.requests.value,
            "completed": self.completed.value,
            "inflight": self._inflight.value,
            "inflight_peak": self._inflight.peak,
            "open_connections": self._connections.value,
            "connections_reaped": self.connections_reaped.value,
            "responses_by_status": responses,
            "latency_by_route": latency,
            "admission": self.admission.snapshot(),
        }

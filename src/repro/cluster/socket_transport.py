"""A real-TCP cluster transport on the runtime's selector substrate.

:class:`SocketTransport` implements the exact :class:`Transport`
protocol that :class:`LocalTransport` does — ``register`` /
``deregister`` / ``request`` / ``registered`` — but every request,
including one whose destination handler lives in the same process,
crosses a real TCP socket: length-prefixed JSON frames
(:func:`~repro.runtime.io.length_prefix`) into a
:class:`~repro.runtime.io.IoLoop` listener, handler dispatch on a small
worker pool, and the response frame back over the same connection.
Leader→follower log shipping, gap catch-up, heartbeats and failover all
run over the wire; ``LocalTransport`` remains the deterministic twin
for tests that want no kernel in the loop.

Shape of the wire:

* **request frame** — ``{"src", "dst", "kind", "payload"}`` as JSON;
  ``bytes`` values anywhere in the payload (replication frames!) are
  tagged ``{"__b64__": <base64>}`` and restored on decode, so the
  byte-identical-follower-log invariant survives serialization.
* **response frame** — ``{"status": "ok", "response": …}`` |
  ``{"status": "error", "class", "message"}`` (the handler's exception,
  reconstructed by class name from :mod:`repro.errors` on the caller) |
  ``{"status": "unreachable", "message"}`` (no such handler — what a
  crashed node looks like).

Client side: one blocking socket per (thread, destination address),
kept alive across requests (the cluster client, apply pumps and
heartbeat loops are all long-lived threads, so this amortizes the
handshake without a connection pool). Handlers run on a pool — never
the loop thread — because they nest: a leader's ``put`` issues
``replicate`` requests through this same transport, and the loop must
stay free to carry them.

Faults are not this class's business: it only delivers. Partitions,
injected drops/delays and the ``requests``/``unreachable``/``dropped``
counters live in :class:`~repro.cluster.FaultyTransport`, which wraps
either transport and decides a fault before any bytes move — so the
replication/failover suites parameterize over both transports
unchanged.

Multi-process reach: a transport only *serves* the node ids registered
with it, but :meth:`add_route` maps a remote node id to another
transport's ``(host, port)``, so two processes each hosting a
``SocketTransport`` form one cluster plane.
"""

from __future__ import annotations

import base64
import builtins
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import repro.errors as errors
from repro.errors import ClusterError, NodeUnreachableError, ValidationError
from repro.runtime import MetricsRegistry
from repro.runtime.io import Connection, FrameBuffer, IoLoop, length_prefix
from repro.runtime.lifecycle import Service, ServiceState

from repro.cluster.transport import Handler, Message

_B64_KEY = "__b64__"


def encode_wire_value(value):
    """Make ``value`` JSON-able: tag ``bytes`` leaves with base64."""
    if isinstance(value, bytes):
        return {_B64_KEY: base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        return {key: encode_wire_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_wire_value(item) for item in value]
    return value


def decode_wire_value(value):
    """Invert :func:`encode_wire_value` (restore tagged ``bytes``)."""
    if isinstance(value, dict):
        if len(value) == 1 and _B64_KEY in value:
            return base64.b64decode(value[_B64_KEY])
        return {key: decode_wire_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_wire_value(item) for item in value]
    return value


def _exception_for(class_name: str, message: str) -> BaseException:
    """Rebuild a handler exception from its wire record.

    Classes from :mod:`repro.errors` (the cluster contract: wrong owner,
    under-replication, validation) and builtin exceptions reconstruct
    exactly; anything else degrades to :class:`ClusterError` carrying
    the original class name.
    """
    cls = getattr(errors, class_name, None)
    if cls is None:
        cls = getattr(builtins, class_name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls(message)
    return ClusterError(f"{class_name}: {message}")


class SocketTransport(Service):
    """The :class:`Transport` protocol over real TCP sockets.

    Lazily started: the first ``register``/``request`` brings the
    listener up, so tests can use it exactly like a ``LocalTransport``
    literal; a :class:`~repro.runtime.ServiceGroup` can also own it
    explicitly (add it *first*, so it outlives the nodes it carries).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "socket-transport",
        max_workers: int = 32,
        registry: MetricsRegistry | None = None,
        request_timeout_s: float = 5.0,
    ) -> None:
        super().__init__(name=name)
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.request_timeout_s = request_timeout_s
        self._registry = registry
        self._max_workers = max_workers
        self.loop: IoLoop | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._handlers: dict[str, Handler] = {}
        self._routes: dict[str, tuple[str, int]] = {}
        self._tls = threading.local()
        self._client_socks: set[socket.socket] = set()
        self._client_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def _on_start(self) -> None:
        self.loop = IoLoop(name=f"{self.name}-io", registry=self._registry)
        self.loop.start()
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers,
            thread_name_prefix=f"{self.name}-handler",
        )
        listener = self.loop.listen(
            self.host, self._requested_port, self._on_accept
        )
        self.port = listener.port

    def _on_stop(self) -> None:
        # Drop cached client sockets first so no request thread can hang
        # on a listener that is about to vanish, then drain the handler
        # pool, then the loop (which closes every server-side fd).
        with self._client_lock:
            socks, self._client_socks = self._client_socks, set()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.loop is not None:
            self.loop.stop()

    def _ensure_started(self) -> None:
        if self.state is ServiceState.NEW:
            self.start()

    @property
    def address(self) -> tuple[str, int]:
        """The listener address remote transports dial via ``add_route``."""
        self._ensure_started()
        assert self.port is not None
        return (self.host, self.port)

    # -- membership ------------------------------------------------------------

    def register(self, node_id: str, handler: Handler) -> None:
        self._ensure_started()
        with self._lock:
            self._handlers[node_id] = handler

    def deregister(self, node_id: str) -> None:
        with self._lock:
            self._handlers.pop(node_id, None)

    def registered(self) -> list[str]:
        with self._lock:
            return sorted(self._handlers)

    def add_route(self, node_id: str, address: tuple[str, int]) -> None:
        """Point requests for ``node_id`` at another transport's listener."""
        with self._lock:
            self._routes[node_id] = (address[0], int(address[1]))

    # -- the request path (client side) ----------------------------------------

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict | None = None,
        timeout_s: float = 1.0,
    ) -> dict:
        """One request over the wire; LocalTransport failure semantics.

        Refused/reset/timed-out connections, and a destination no
        listener serves, all surface as
        :class:`~repro.errors.NodeUnreachableError`.
        """
        self._ensure_started()
        with self._lock:
            local = dst in self._handlers
            route = self._routes.get(dst)
        if not local and route is None:
            raise NodeUnreachableError(f"{src} -> {dst}: no such node")
        if route is None:
            assert self.port is not None
            route = (self.host, self.port)
        frame = length_prefix(
            json.dumps(
                {
                    "src": src,
                    "dst": dst,
                    "kind": kind,
                    "payload": encode_wire_value(payload or {}),
                }
            ).encode("utf-8")
        )
        reply = self._exchange(src, dst, route, frame, timeout_s)
        status = reply.get("status")
        if status == "ok":
            response = decode_wire_value(reply.get("response", {}))
            return response if isinstance(response, dict) else {}
        if status == "unreachable":
            raise NodeUnreachableError(str(reply.get("message", dst)))
        if status == "error":
            raise _exception_for(
                str(reply.get("class", "ClusterError")),
                str(reply.get("message", "")),
            )
        raise ClusterError(f"{src} -> {dst}: malformed reply {reply!r}")

    def _exchange(
        self,
        src: str,
        dst: str,
        address: tuple[str, int],
        frame: bytes,
        timeout_s: float,
    ) -> dict:
        """Ship one frame, block for one reply frame (per-thread socket)."""
        sock = self._client_sock(address, timeout_s)
        try:
            sock.settimeout(max(timeout_s, 0.001))
            sock.sendall(frame)
            decoder = FrameBuffer()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    raise NodeUnreachableError(
                        f"{src} -> {dst}: connection closed mid-request"
                    )
                frames = decoder.feed(chunk)
                if frames:
                    return json.loads(frames[0].decode("utf-8"))
        except NodeUnreachableError:
            self._drop_client_sock(address)
            raise
        except (OSError, ValueError, ValidationError) as exc:
            self._drop_client_sock(address)
            raise NodeUnreachableError(f"{src} -> {dst}: {exc}") from exc

    def _client_sock(
        self, address: tuple[str, int], timeout_s: float
    ) -> socket.socket:
        cache: dict[tuple[str, int], socket.socket] | None = getattr(
            self._tls, "socks", None
        )
        if cache is None:
            cache = {}
            self._tls.socks = cache
        sock = cache.get(address)
        if sock is not None:
            return sock
        try:
            sock = socket.create_connection(
                address, timeout=max(timeout_s, 0.001)
            )
        except OSError as exc:
            raise NodeUnreachableError(
                f"cannot reach transport at {address}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        cache[address] = sock
        with self._client_lock:
            self._client_socks.add(sock)
        return sock

    def _drop_client_sock(self, address: tuple[str, int]) -> None:
        cache = getattr(self._tls, "socks", None)
        if not cache:
            return
        sock = cache.pop(address, None)
        if sock is None:
            return
        with self._client_lock:
            self._client_socks.discard(sock)
        try:
            sock.close()
        except OSError:
            pass

    # -- the serve path (loop + pool side) -------------------------------------

    def _on_accept(self, conn: Connection) -> None:
        decoder = FrameBuffer()

        def on_data(connection: Connection, chunk: bytes) -> None:
            for raw in decoder.feed(chunk):
                pool = self._pool
                if pool is None:
                    connection.close("shutdown")
                    return
                pool.submit(self._serve_frame, connection, raw)

        conn.on_data = on_data

    def _serve_frame(self, conn: Connection, raw: bytes) -> None:
        """Pool thread: decode, dispatch the handler, reply."""
        try:
            request = json.loads(raw.decode("utf-8"))
            src = str(request["src"])
            dst = str(request["dst"])
            kind = str(request["kind"])
            payload = decode_wire_value(request.get("payload", {}))
        except (ValueError, KeyError, TypeError) as exc:
            conn.send(
                length_prefix(
                    json.dumps(
                        {
                            "status": "error",
                            "class": "ValidationError",
                            "message": f"malformed request frame: {exc}",
                        }
                    ).encode("utf-8")
                )
            )
            return
        with self._lock:
            handler = self._handlers.get(dst)
        if handler is None:
            reply: dict = {
                "status": "unreachable",
                "message": f"{src} -> {dst}: no such node",
            }
        else:
            try:
                response = handler(
                    Message(src=src, dst=dst, kind=kind, payload=payload)
                )
                reply = {
                    "status": "ok",
                    "response": encode_wire_value(response or {}),
                }
            except BaseException as exc:  # noqa: BLE001 - crosses the wire
                reply = {
                    "status": "error",
                    "class": type(exc).__name__,
                    "message": str(exc),
                }
        conn.send(length_prefix(json.dumps(reply).encode("utf-8")))

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        return {"address": (self.host, self.port)}

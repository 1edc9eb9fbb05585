"""The cluster message plane: a transport protocol, the local build, and
the one fault surface every build shares.

Every inter-node interaction — client writes, log shipping, heartbeats,
promotion — goes through one narrow request/response surface:

* :class:`Message` — the envelope: source, destination, kind, payload;
* :class:`Transport` — the protocol: ``register`` a handler per node id,
  ``request`` a response from a peer. Handlers are plain callables
  ``Message -> dict``, payloads are JSON-able dicts (replication frames
  ride as ``bytes`` values — a socket implementation length-prefixes or
  base64s them; the in-process build passes them through);
* :class:`LocalTransport` — the in-process delivery: a registry of
  handlers invoked on the caller's thread. Deterministic (no queues or
  scheduling races to win);
* :class:`FaultyTransport` — a wrapper over *any* transport that owns
  the fault surface: per-link :class:`~repro.runtime.FaultPolicy`
  injection (delay / drop) through the existing
  :class:`~repro.runtime.FaultInjector`, explicit symmetric
  **partitions**, and the ``requests`` / ``unreachable`` / ``dropped``
  counters. Faults are decided before the inner transport sees the
  request, so the same schedule means the same outcome over any wire.

Delivery and faults are separate layers, so a new transport only has to
deliver: ``register`` / ``deregister`` / ``registered`` / ``request``. A
request either returns the handler's dict, raises the handler's
exception, or raises :class:`~repro.errors.NodeUnreachableError` when
the destination cannot be reached (dead, unregistered, partitioned, or
an injected drop) — the only failure mode callers are allowed to
distinguish.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import NodeUnreachableError, TransientStoreError
from repro.runtime import Counter, FaultInjector, FaultPolicy

Handler = Callable[["Message"], dict]


@dataclass(frozen=True)
class Message:
    """One request envelope travelling between cluster actors."""

    src: str
    dst: str
    kind: str
    payload: dict = field(default_factory=dict)


class Transport(Protocol):
    """What every cluster transport must provide."""

    def register(self, node_id: str, handler: Handler) -> None: ...

    def deregister(self, node_id: str) -> None: ...

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict | None = None,
        timeout_s: float = 1.0,
    ) -> dict: ...

    def registered(self) -> list[str]: ...


class LocalTransport:
    """In-process transport: direct handler invocation, nothing else.

    ``request`` runs the destination handler synchronously on the
    caller's thread, which keeps multi-node tests deterministic — a
    write is fully replicated when ``put`` returns, with no background
    delivery to await. Handlers must therefore be thread-safe (they are
    called from whichever node/client thread issues the request), which
    the node enforces with its own locks. Wrap it in
    :class:`FaultyTransport` to cut links or inject faults.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._handlers: dict[str, Handler] = {}

    def register(self, node_id: str, handler: Handler) -> None:
        with self._lock:
            self._handlers[node_id] = handler

    def deregister(self, node_id: str) -> None:
        with self._lock:
            self._handlers.pop(node_id, None)

    def registered(self) -> list[str]:
        with self._lock:
            return sorted(self._handlers)

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict | None = None,
        timeout_s: float = 1.0,
    ) -> dict:
        """Deliver one request; return the handler's response dict.

        Raises :class:`~repro.errors.NodeUnreachableError` when the
        destination is unregistered; any exception the handler raises
        propagates to the caller unchanged (the local analogue of an
        error envelope).
        """
        with self._lock:
            handler = self._handlers.get(dst)
        if handler is None:
            raise NodeUnreachableError(f"{src} -> {dst}: no such node")
        return handler(Message(src=src, dst=dst, kind=kind, payload=payload or {}))


class FaultyTransport:
    """Any :class:`Transport` plus partitions, link faults and counters.

    * :meth:`partition` / :meth:`heal` — symmetric link cuts; a
      partitioned ``request`` raises
      :class:`~repro.errors.NodeUnreachableError` without touching the
      inner transport;
    * :meth:`set_fault` — attach a :class:`~repro.runtime.FaultPolicy`
      to a link (or a wildcard: one endpoint, or every link). Injected
      latency delays the call; injected timeouts/errors surface as
      :class:`~repro.errors.NodeUnreachableError` (a drop), counted on
      ``dropped``.

    Every ``NodeUnreachableError`` the inner transport raises counts on
    ``unreachable`` — node handlers catch that error and never raise it,
    so the count is exact. Membership calls pass straight through.
    """

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self._partitions: set[frozenset[str]] = set()
        #: (src|None, dst|None) -> injector; None is a wildcard endpoint
        self._injectors: dict[tuple[str | None, str | None], FaultInjector] = {}
        self.requests = Counter()
        self.unreachable = Counter()
        self.dropped = Counter()

    # -- membership (delegated) ----------------------------------------------

    def register(self, node_id: str, handler: Handler) -> None:
        self.inner.register(node_id, handler)

    def deregister(self, node_id: str) -> None:
        self.inner.deregister(node_id)

    def registered(self) -> list[str]:
        return self.inner.registered()

    # -- fault surface -------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (symmetric)."""
        with self._lock:
            self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        with self._lock:
            self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        with self._lock:
            self._partitions.clear()

    def set_fault(
        self,
        policy: FaultPolicy,
        src: str | None = None,
        dst: str | None = None,
    ) -> FaultInjector:
        """Attach injection to a link; ``None`` endpoints are wildcards."""
        injector = FaultInjector(policy)
        with self._lock:
            self._injectors[(src, dst)] = injector
        return injector

    def clear_faults(self) -> None:
        with self._lock:
            self._injectors.clear()

    def _injector_for(self, src: str, dst: str) -> FaultInjector | None:
        # most-specific match wins: exact link, then dst, src, global
        for key in ((src, dst), (None, dst), (src, None), (None, None)):
            injector = self._injectors.get(key)
            if injector is not None:
                return injector
        return None

    # -- the request path ----------------------------------------------------

    def request(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict | None = None,
        timeout_s: float = 1.0,
    ) -> dict:
        """Apply the link's partition and fault, then delegate."""
        self.requests.inc()
        with self._lock:
            if frozenset((src, dst)) in self._partitions:
                self.unreachable.inc()
                raise NodeUnreachableError(
                    f"{src} -> {dst}: link is partitioned"
                )
            injector = self._injector_for(src, dst)
        if injector is not None:
            try:
                injector.inject()
            except NodeUnreachableError:
                self.dropped.inc()
                raise
            except TransientStoreError as exc:
                self.dropped.inc()
                raise NodeUnreachableError(
                    f"{src} -> {dst}: injected drop ({exc})"
                ) from exc
        try:
            return self.inner.request(src, dst, kind, payload, timeout_s)
        except NodeUnreachableError:
            self.unreachable.inc()
            raise

    def snapshot(self) -> dict[str, object]:
        """Counters and cuts, plus whatever the inner transport reports."""
        with self._lock:
            partitions = sorted(tuple(sorted(p)) for p in self._partitions)
        snap: dict[str, object] = {
            "nodes": self.registered(),
            "requests": self.requests.value,
            "unreachable": self.unreachable.value,
            "dropped": self.dropped.value,
            "partitions": partitions,
        }
        inner_snapshot = getattr(self.inner, "snapshot", None)
        if inner_snapshot is not None:
            snap.update(inner_snapshot())
        return snap

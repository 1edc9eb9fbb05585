"""Spans recorded from outside the program, at seams the benchmark owns.

No module under ``src/`` is edited or patched: the benchmark hands the
program delegating proxies where the program already accepts a collaborator
(the gateway and vector service given to ``FeatureServer``, the
``ClusterClient`` the adapter calls, the ``Transport`` given to ``Cluster``)
and wraps ``log.append`` on node *instances*. With tracing off a proxy costs
one attribute test and one extra call frame.

A span is the tuple ``(name, kind, key, start_ns, end_ns, span_id,
parent_id)``. ``parent_id`` is set when caller and callee share a thread and
is 0 otherwise (the batcher, the I/O loops and the socket hop all change
threads); :mod:`spans` then finds the parent by op key and time containment.
Times are ``time.monotonic_ns``, which on Linux is one clock for every
process, so loadgen and SUT spans are directly comparable.
"""

from __future__ import annotations

import itertools
import threading
from time import monotonic_ns

#: message kinds on the request path; every other kind is control traffic
DATA_KINDS = ("get", "put", "replicate")


class Tracer:
    """An in-memory span and event buffer, written out when a phase ends."""

    def __init__(self) -> None:
        self.enabled = False
        self._spans: list[tuple] = []
        self._events: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, kind: str, key: str, fn, *args, **kwargs):
        """Run ``fn`` and, when tracing is on, record a span around it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent_id = stack[-1] if stack else 0
        stack.append(span_id)
        start = monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = monotonic_ns()
            stack.pop()
            self._spans.append((name, kind, key, start, end, span_id, parent_id))

    def event(self, name: str, where: str, key: int) -> None:
        if self.enabled:
            self._events.append((name, where, key, monotonic_ns()))

    def dump(self) -> tuple[list[tuple], list[tuple]]:
        """Stop tracing and hand over everything recorded since ``enabled``."""
        self.enabled = False
        spans, self._spans = self._spans, []
        events, self._events = self._events, []
        return spans, events


class _Proxy:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def search_key(query) -> str:
    """Searches carry no id; the first component names the query on both sides."""
    return f"search:{float(query[0])!r}"


class TracedGateway(_Proxy):
    """Stands in for the ``ServingGateway`` handed to ``FeatureServer``."""

    def get_features(self, namespace, entity_id, *args, **kwargs):
        return self._tracer.call(
            "gateway", "get", f"get:{entity_id}",
            self._inner.get_features, namespace, entity_id, *args, **kwargs,
        )

    def write_features(self, namespace, entity_id, *args, **kwargs):
        return self._tracer.call(
            "gateway", "put", f"put:{entity_id}",
            self._inner.write_features, namespace, entity_id, *args, **kwargs,
        )

    def search_neighbors(self, name, query, *args, **kwargs):
        return self._tracer.call(
            "gateway", "search", search_key(query),
            self._inner.search_neighbors, name, query, *args, **kwargs,
        )


class TracedVectors(_Proxy):
    """Stands in for the ``VectorService`` attached to the gateway."""

    def search(self, name, query, *args, **kwargs):
        return self._tracer.call(
            "vecserve", "search", search_key(query),
            self._inner.search, name, query, *args, **kwargs,
        )


class TracedClusterClient(_Proxy):
    """Stands in for the ``ClusterClient`` the adapter calls."""

    def get(self, entity_id, *args, **kwargs):
        return self._tracer.call(
            "cluster_client", "get", f"get:{entity_id}",
            self._inner.get, entity_id, *args, **kwargs,
        )

    def put(self, entity_id, *args, **kwargs):
        return self._tracer.call(
            "cluster_client", "put", f"put:{entity_id}",
            self._inner.put, entity_id, *args, **kwargs,
        )


def _message_key(dst: str, kind: str, payload: dict | None) -> str:
    if kind in ("get", "put"):
        return f"{kind}:{(payload or {}).get('entity_id')}"
    if kind == "replicate":
        return f"replicate:{dst}:{payload['partition']}:{payload['base_offset']}"
    return kind


class TracedTransport(_Proxy):
    """Stands in for the ``Transport`` given to ``Cluster``.

    Times ``request()`` from the caller's side and every registered
    handler from the callee's side; the difference is framing, the wire and
    the transport's own loop and pool.
    """

    def request(self, src, dst, kind, payload=None, timeout_s=1.0):
        return self._tracer.call(
            "transport", kind, _message_key(dst, kind, payload),
            self._inner.request, src, dst, kind, payload, timeout_s,
        )

    def register(self, node_id, handler) -> None:
        tracer = self._tracer

        def traced_handler(message):
            return tracer.call(
                "handler", message.kind,
                _message_key(node_id, message.kind, message.payload),
                handler, message,
            )

        self._inner.register(node_id, traced_handler)


def trace_node(node, tracer: Tracer) -> None:
    """Time one node's log appends and note when its store applies a write."""
    log = node.log
    append, append_many = log.append, log.append_many
    node_id = node.config.node_id

    def traced_append(partition, record):
        return tracer.call(
            "log_append", "append", f"put:{record.entity_id}",
            append, partition, record,
        )

    def traced_append_many(partition, records):
        return tracer.call(
            "log_append", "append_many", f"append_many:{node_id}:{partition}",
            append_many, partition, records,
        )

    log.append = traced_append
    log.append_many = traced_append_many
    node.store.add_write_listener(
        lambda namespace, entity_id: tracer.event("store_write", node_id, entity_id)
    )

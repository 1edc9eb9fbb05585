"""Arithmetic on samples and spans: percentiles, blocks, parents, self time.

Pure functions over plain lists, so they can be tested on synthetic spans.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

import numpy as np

from tracing import DATA_KINDS

#: where a span's parent is looked for when the two did not share a thread
PARENT_NAMES = {
    "gateway": ("client",),
    "vecserve": ("gateway",),
    "cluster_client": ("gateway",),
    "transport": ("cluster_client", "handler"),
    "handler": ("transport",),
    "log_append": ("handler",),
}
#: the layer each span's self time is charged to
LAYER_OF = {
    "client": "net",
    "gateway": "serving",
    "vecserve": "vecserve",
    "cluster_client": "cluster.client",
    "transport": "cluster.transport",
    "handler": "cluster.handle",
    "log_append": "bus",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]; 0.0 for no samples."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def tail_quantile(n_samples: int) -> float:
    """The highest quantile, at most 0.99, with ten samples beyond it."""
    if n_samples < 20:
        return 0.5
    return min(0.99, 1.0 - 10.0 / n_samples)


def block_summary(per_block: list[float]) -> dict[str, float]:
    """A timing metric is the median of its per-block values."""
    median = statistics.median(per_block)
    spread = (max(per_block) - min(per_block)) / median if median else 0.0
    return {"value": median, "spread": spread, "blocks": len(per_block)}


class Span:
    __slots__ = ("name", "kind", "key", "start", "end", "id", "parent",
                 "children", "matched")

    def __init__(self, name, kind, key, start, end, span_id=0, parent=None):
        self.name, self.kind, self.key = name, kind, key
        self.start, self.end = start, end
        self.id = span_id
        self.parent: Span | None = parent
        self.children: list[Span] = []
        self.matched = parent is not None

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def is_data(self) -> bool:
        if self.name in ("transport", "handler"):
            return self.kind in DATA_KINDS
        return True

    def self_time(self) -> int:
        """Duration minus the part of it the children cover (their union)."""
        covered, reach = 0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, self.end)
            if end > start:
                covered += end - start
                reach = end
        return self.duration - covered


def link_spans(client_spans: list[tuple], sut_spans: list[tuple]) -> list[Span]:
    """Build the span forest; returns every span with parent/children set.

    A recorded same-thread parent id is used as is. Otherwise the parent is
    the span of an allowed parent name with the same op key whose interval
    contains this one, the latest-starting (tightest) if several do.
    """
    spans: list[Span] = []
    by_id: dict[int, Span] = {}
    for name, kind, key, start, end, *_ in client_spans:
        spans.append(Span(name, kind, key, start, end))
    raw_parent: dict[int, int] = {}
    for name, kind, key, start, end, span_id, parent_id in sut_spans:
        span = Span(name, kind, key, start, end, span_id)
        by_id[span_id] = span
        raw_parent[span_id] = parent_id
        spans.append(span)
    index: dict[tuple[str, str], list[Span]] = defaultdict(list)
    for span in spans:
        index[(span.name, span.key)].append(span)
    starts = {}
    for slot, candidates in index.items():
        candidates.sort(key=lambda s: s.start)
        starts[slot] = [s.start for s in candidates]
    for span in spans:
        if span.name == "client":
            continue
        parent = by_id.get(raw_parent.get(span.id, 0))
        if parent is None:
            for parent_name in PARENT_NAMES.get(span.name, ()):
                slot = (parent_name, span.key)
                candidates = index.get(slot)
                if not candidates:
                    continue
                at = bisect.bisect_right(starts[slot], span.start)
                for candidate in reversed(candidates[:at]):
                    if candidate.end >= span.end:
                        parent = candidate
                        break
                if parent is not None:
                    break
        if parent is not None:
            span.parent, span.matched = parent, True
            parent.children.append(span)
    return spans


def ledger(spans: list[Span]) -> dict[str, object]:
    """Per-layer self time against total client latency, and what is missing.

    ``residual_share`` is 1 - (sum of every data-path span's self time) /
    (sum of client latency): 0 when the layers add up to what the client
    saw, positive when time is unaccounted, negative when an unmatched or
    concurrent span was charged twice.
    """
    client_ns = sum(s.duration for s in spans if s.name == "client")
    self_ns: dict[str, int] = defaultdict(int)
    self_samples: dict[str, list[int]] = defaultdict(list)
    expected = unmatched = 0
    for span in spans:
        if not span.is_data:
            continue
        own = span.self_time()
        layer = LAYER_OF[span.name]
        self_ns[layer] += own
        self_samples[layer].append(own)
        if span.name != "client":
            expected += 1
            unmatched += not span.matched
    accounted = sum(self_ns.values())
    return {
        "client_ns": client_ns,
        "self_ns": dict(self_ns),
        "self_samples": dict(self_samples),
        "share": {
            layer: (ns / client_ns if client_ns else 0.0)
            for layer, ns in self_ns.items()
        },
        "unmatched_share": unmatched / expected if expected else 0.0,
        "residual_share": 1.0 - accounted / client_ns if client_ns else 0.0,
    }


def apply_lags_ms(spans: list[Span], events: list[tuple]) -> list[float]:
    """Store apply time minus ack time, per acknowledged PUT on a leader.

    The ack is the end of the leader's ``put`` handler span; the apply is
    the first ``store_write`` of that entity on a leader store at or after
    the handler started. Negative when the apply pump beat the follower ack.
    """
    applied: dict[int, list[int]] = defaultdict(list)
    for name, where, entity_id, at in events:
        if name == "store_write" and where.endswith("/n0"):
            applied[entity_id].append(at)
    for times in applied.values():
        times.sort()
    lags = []
    for span in spans:
        if span.name == "handler" and span.kind == "put":
            times = applied.get(int(span.key.split(":")[1]), [])
            at = bisect.bisect_left(times, span.start)
            if at < len(times):
                lags.append((times[at] - span.end) / 1e6)
    return lags

"""Incremental per-entity stream aggregators.

Each aggregator consumes events one at a time (event-time ordered per
entity) and can report the current aggregate for any entity. They are the
streaming counterparts of the batch :class:`repro.compiler.WindowAggregate`,
and apply its exact aggregation functions (:func:`repro.compiler.aggregate_fn`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

import numpy as np

from repro.compiler import aggregate_fn
from repro.datagen.streams import StreamEvent
from repro.errors import ValidationError


class StreamAggregator(ABC):
    """Consumes events and exposes a per-entity aggregate value."""

    @abstractmethod
    def update(self, event: StreamEvent) -> None:
        """Fold one event into the aggregate state."""

    @abstractmethod
    def value(self, entity_id: int, now: float) -> float | None:
        """Current aggregate for an entity as of ``now`` (None = no data)."""


class _WindowAggregator(StreamAggregator):
    """A named aggregation (any of :func:`repro.compiler.available_aggregations`)
    over a window of ``width`` seconds."""

    def __init__(self, agg: str, width: float) -> None:
        self._fn = aggregate_fn(agg)  # ValidationError for an unknown name
        if width <= 0:
            raise ValidationError(f"width must be positive ({width=})")
        self.agg = agg
        self.width = width

    def _aggregate(self, values: list[float]) -> float | None:
        """The batch rule: an empty window is 0.0 for ``count``, else None."""
        if not values:
            return 0.0 if self.agg == "count" else None
        return self._fn(np.asarray(values, dtype=float))


class TumblingWindowAggregator(_WindowAggregator):
    """Fixed, non-overlapping windows of ``width`` seconds.

    ``value`` reports the aggregate of the most recent *closed* window at or
    before ``now`` — the standard semantics for materialized tumbling
    aggregates (the open window is still accumulating).
    """

    def __init__(self, agg: str, width: float) -> None:
        super().__init__(agg, width)
        self._windows: dict[int, dict[int, list[float]]] = {}

    def _window_index(self, timestamp: float) -> int:
        return int(timestamp // self.width)

    def update(self, event: StreamEvent) -> None:
        windows = self._windows.setdefault(event.entity_id, {})
        windows.setdefault(self._window_index(event.timestamp), []).append(event.value)

    def value(self, entity_id: int, now: float) -> float | None:
        windows = self._windows.get(entity_id)
        if not windows:
            return None
        open_index = self._window_index(now)
        closed = [i for i in windows if i < open_index]
        if not closed:
            return None
        return self._aggregate(windows[max(closed)])

    def open_window_value(self, entity_id: int, now: float) -> float | None:
        """Aggregate of the still-open window (for eager serving)."""
        windows = self._windows.get(entity_id)
        if not windows:
            return None
        values = windows.get(self._window_index(now))
        if values is None:
            return None
        return self._aggregate(values)


class SlidingWindowAggregator(_WindowAggregator):
    """Trailing window of ``width`` seconds ending at query time.

    Events older than ``now - width`` are evicted lazily at query/update
    time; memory per entity is bounded by the event rate times the width.
    """

    def __init__(self, agg: str, width: float) -> None:
        super().__init__(agg, width)
        self._events: dict[int, deque[tuple[float, float]]] = {}

    def update(self, event: StreamEvent) -> None:
        queue = self._events.setdefault(event.entity_id, deque())
        queue.append((event.timestamp, event.value))
        self._evict(queue, event.timestamp)

    def _evict(self, queue: deque[tuple[float, float]], now: float) -> None:
        lo = now - self.width
        while queue and queue[0][0] <= lo:
            queue.popleft()

    def value(self, entity_id: int, now: float) -> float | None:
        queue = self._events.get(entity_id)
        if queue is None:
            return None
        self._evict(queue, now)
        return self._aggregate([v for ts, v in queue if ts <= now])


class EwmaAggregator(StreamAggregator):
    """Exponentially weighted moving average with time-based decay.

    The weight of past state decays as ``exp(-dt / half_life * ln 2)``, so a
    value observed one half-life ago contributes half as much as a current
    one. This is the constant-memory aggregate industrial stores favour for
    high-rate streams.
    """

    def __init__(self, half_life: float) -> None:
        if half_life <= 0:
            raise ValidationError(f"half_life must be positive ({half_life=})")
        self.half_life = half_life
        self._state: dict[int, tuple[float, float]] = {}  # entity -> (ts, ewma)

    def update(self, event: StreamEvent) -> None:
        previous = self._state.get(event.entity_id)
        if previous is None:
            self._state[event.entity_id] = (event.timestamp, event.value)
            return
        last_ts, last_value = previous
        dt = max(0.0, event.timestamp - last_ts)
        decay = float(np.exp(-dt / self.half_life * np.log(2.0)))
        blended = decay * last_value + (1.0 - decay) * event.value
        self._state[event.entity_id] = (event.timestamp, blended)

    def value(self, entity_id: int, now: float) -> float | None:
        state = self._state.get(entity_id)
        return None if state is None else state[1]

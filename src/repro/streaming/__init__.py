"""Streaming feature ingestion.

Paper section 2.2.1: "For streaming features, users provide aggregation
functions that are applied on the raw streaming features. The aggregated
features are persisted to the online store and logged to the offline store."

* :mod:`repro.streaming.windows` — incremental per-entity aggregators
  (tumbling windows, sliding windows, exponentially weighted averages).
* :mod:`repro.streaming.processor` — the ingestion loop that applies the
  aggregators to an event stream and fans results out to both stores.
"""

from repro.streaming.processor import (
    ProcessorStats,
    StreamFeature,
    StreamProcessor,
)
from repro.streaming.windows import (
    EwmaAggregator,
    SlidingWindowAggregator,
    StreamAggregator,
    TumblingWindowAggregator,
)

__all__ = [
    "EwmaAggregator",
    "ProcessorStats",
    "SlidingWindowAggregator",
    "StreamAggregator",
    "StreamFeature",
    "StreamProcessor",
    "TumblingWindowAggregator",
]

"""Property tests: streaming aggregators agree with the batch window.

The same feature definition materialized by the batch path and computed
incrementally by the streaming path must produce the same value — otherwise
training (batch) and serving (stream) silently skew, which is exactly the
class of bug the paper's monitoring section is about. The batch side is
checked twice: the row reference (``WindowAggregate.evaluate``) and the
compiled plan the feature store materializes with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    WindowAggregate,
    available_aggregations,
    compile_plan,
    scan,
)
from repro.datagen.streams import StreamEvent
from repro.storage.offline import OfflineStore, TableSchema
from repro.streaming.windows import (
    SlidingWindowAggregator,
    TumblingWindowAggregator,
)

def compiled_window(rows, agg, window, as_of):
    """The window as the feature store materializes it: a compiled plan."""
    table = OfflineStore().create_table("events", TableSchema({"v": "float"}))
    table.append(rows)
    plan = scan("events").window("v", agg, window, as_="x")
    [row] = compile_plan(plan, table).evaluate(as_of)
    return row["x"]


event_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    events=event_lists,
    window=st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
    agg=st.sampled_from(available_aggregations()),
)
def test_sliding_stream_matches_batch_window(events, window, agg):
    events = sorted(events)
    as_of = events[-1][0]  # query exactly at the last event time

    # Batch path: WindowAggregate over row dicts.
    rows = [
        {"entity_id": 1, "timestamp": ts, "v": value} for ts, value in events
    ]
    batch = WindowAggregate(column="v", agg=agg, window=window).evaluate(
        rows, as_of
    )
    assert compiled_window(rows, agg, window, as_of) == batch

    # Streaming path: incremental sliding window.
    aggregator = SlidingWindowAggregator(agg, width=window)
    for ts, value in events:
        aggregator.update(StreamEvent(timestamp=ts, entity_id=1, value=value))
    streamed = aggregator.value(1, now=as_of)

    if batch is None:
        assert streamed is None
    else:
        assert streamed == pytest.approx(batch, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    ),
    width=st.integers(min_value=1, max_value=200),
    agg=st.sampled_from(available_aggregations()),
)
def test_tumbling_stream_matches_batch_window(events, width, agg):
    """The last closed tumbling window ``[j*w, (j+1)*w)`` holds the same
    events as the batch window ``((j+1)*w - 0.5 - w, (j+1)*w - 0.5]`` on
    integer timestamps, so both must report the same aggregate."""
    events = sorted(events)
    last_window = events[-1][0] // width
    rows = [
        {"entity_id": 1, "timestamp": float(ts), "v": value}
        for ts, value in events
    ]
    as_of = (last_window + 1) * width - 0.5
    batch = WindowAggregate(column="v", agg=agg, window=width).evaluate(
        rows, as_of
    )
    assert compiled_window(rows, agg, width, as_of) == batch

    aggregator = TumblingWindowAggregator(agg, width=width)
    for ts, value in events:
        aggregator.update(
            StreamEvent(timestamp=float(ts), entity_id=1, value=value)
        )
    # querying at the start of the next window closes the last one
    streamed = aggregator.value(1, now=float((last_window + 1) * width))

    assert batch is not None
    assert streamed == pytest.approx(batch, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(events=event_lists, window=st.floats(min_value=0.5, max_value=500.0))
def test_stream_count_never_exceeds_total_events(events, window):
    aggregator = SlidingWindowAggregator("count", width=window)
    for ts, value in sorted(events):
        aggregator.update(StreamEvent(timestamp=ts, entity_id=1, value=value))
    count = aggregator.value(1, now=sorted(events)[-1][0])
    assert count is not None
    assert 0 <= count <= len(events)


@settings(max_examples=40, deadline=None)
@given(events=event_lists)
def test_stream_min_le_mean_le_max(events):
    window = 1e6  # everything in range
    aggregators = {
        agg: SlidingWindowAggregator(agg, width=window)
        for agg in ("min", "mean", "max")
    }
    for ts, value in sorted(events):
        for aggregator in aggregators.values():
            aggregator.update(StreamEvent(timestamp=ts, entity_id=1, value=value))
    now = sorted(events)[-1][0]
    low = aggregators["min"].value(1, now)
    mid = aggregators["mean"].value(1, now)
    high = aggregators["max"].value(1, now)
    assert low <= mid + 1e-9
    assert mid <= high + 1e-9

"""Tests for the feature operators (ColumnRef, RowTransform, WindowAggregate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    ColumnRef,
    RowTransform,
    WindowAggregate,
    available_aggregations,
)
from repro.errors import ValidationError


def events(*pairs):
    """Build time-sorted events from (ts, value) pairs."""
    return [
        {"entity_id": 1, "timestamp": ts, "v": value, "w": None if value is None else value * 2}
        for ts, value in pairs
    ]


class TestColumnRef:
    def test_returns_latest_value(self):
        assert ColumnRef("v").evaluate(events((1.0, 10.0), (2.0, 20.0)), 5.0) == 20.0

    def test_empty_events_none(self):
        assert ColumnRef("v").evaluate([], 5.0) is None

    def test_missing_column_none(self):
        assert ColumnRef("nope").evaluate(events((1.0, 1.0)), 5.0) is None

    def test_input_columns(self):
        assert ColumnRef("v").input_columns == ("v",)


class TestRowTransform:
    def test_applies_function_to_latest(self):
        t = RowTransform(fn=lambda v, w: v + w, inputs=("v", "w"))
        assert t.evaluate(events((1.0, 10.0)), 5.0) == 30.0

    def test_none_input_short_circuits(self):
        t = RowTransform(fn=lambda v, w: v / w, inputs=("v", "w"))
        assert t.evaluate(events((1.0, None)), 5.0) is None

    def test_empty_events_none(self):
        t = RowTransform(fn=lambda v: v, inputs=("v",))
        assert t.evaluate([], 5.0) is None

    def test_input_columns(self):
        t = RowTransform(fn=lambda v, w: 0, inputs=("v", "w"))
        assert t.input_columns == ("v", "w")


class TestWindowAggregate:
    def test_mean_over_window(self):
        t = WindowAggregate(column="v", agg="mean", window=10.0)
        assert t.evaluate(events((1.0, 10.0), (5.0, 20.0)), 5.0) == 15.0

    def test_window_excludes_old_events(self):
        t = WindowAggregate(column="v", agg="sum", window=2.0)
        # as_of 5.0, window (3.0, 5.0]: only the ts=4 event counts.
        got = t.evaluate(events((1.0, 100.0), (4.0, 7.0)), 5.0)
        assert got == 7.0

    def test_window_boundary_open_start_closed_end(self):
        t = WindowAggregate(column="v", agg="count", window=2.0)
        # window is (3.0, 5.0]: ts=3.0 excluded, ts=5.0 included.
        got = t.evaluate(events((3.0, 1.0), (5.0, 1.0)), 5.0)
        assert got == 1.0

    def test_future_events_never_counted(self):
        t = WindowAggregate(column="v", agg="count", window=100.0)
        assert t.evaluate(events((1.0, 1.0), (50.0, 1.0)), 10.0) == 1.0

    def test_nulls_skipped(self):
        t = WindowAggregate(column="v", agg="mean", window=10.0)
        assert t.evaluate(events((1.0, None), (2.0, 4.0)), 5.0) == 4.0

    def test_empty_window_none_except_count(self):
        t_mean = WindowAggregate(column="v", agg="mean", window=1.0)
        t_count = WindowAggregate(column="v", agg="count", window=1.0)
        old = events((1.0, 5.0))
        assert t_mean.evaluate(old, 100.0) is None
        assert t_count.evaluate(old, 100.0) == 0.0

    @pytest.mark.parametrize(
        "agg,expected",
        [
            ("mean", 2.0),
            ("sum", 6.0),
            ("min", 1.0),
            ("max", 3.0),
            ("count", 3.0),
            ("last", 3.0),
        ],
    )
    def test_each_aggregation(self, agg, expected):
        t = WindowAggregate(column="v", agg=agg, window=10.0)
        got = t.evaluate(events((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)), 5.0)
        assert got == expected

    def test_std(self):
        t = WindowAggregate(column="v", agg="std", window=10.0)
        got = t.evaluate(events((1.0, 1.0), (2.0, 3.0)), 5.0)
        assert got == pytest.approx(1.0)

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValidationError):
            WindowAggregate(column="v", agg="median", window=1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValidationError):
            WindowAggregate(column="v", agg="mean", window=0.0)

    def test_available_aggregations(self):
        assert "mean" in available_aggregations()
        assert available_aggregations() == sorted(available_aggregations())

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0.1, max_value=50, allow_nan=False),
    )
    def test_property_sum_matches_manual(self, pairs, as_of, window):
        pairs = sorted(pairs)
        evts = events(*pairs)
        t = WindowAggregate(column="v", agg="sum", window=window)
        got = t.evaluate(evts, as_of)
        manual = [v for ts, v in pairs if as_of - window < ts <= as_of]
        if not manual:
            assert got is None
        else:
            assert got == pytest.approx(np.sum(manual))

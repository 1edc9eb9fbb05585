"""Tests for repro.datagen.tabular."""

import numpy as np
import pytest

from repro.datagen.tabular import (
    RideEventConfig,
    TabularDataset,
    generate_ride_events,
)
from repro.errors import ValidationError


class TestRideEvents:
    def test_row_count_matches_config(self):
        data = generate_ride_events(RideEventConfig(n_events=500), seed=1)
        assert len(data) == 500

    def test_deterministic_for_same_seed(self):
        a = generate_ride_events(RideEventConfig(n_events=200), seed=7)
        b = generate_ride_events(RideEventConfig(n_events=200), seed=7)
        np.testing.assert_array_equal(a.entity_ids, b.entity_ids)
        np.testing.assert_array_equal(a.numeric["fare"], b.numeric["fare"])

    def test_different_seeds_differ(self):
        a = generate_ride_events(RideEventConfig(n_events=200), seed=1)
        b = generate_ride_events(RideEventConfig(n_events=200), seed=2)
        assert not np.array_equal(a.numeric["fare"], b.numeric["fare"])

    def test_timestamps_sorted_and_in_horizon(self):
        cfg = RideEventConfig(n_events=300, n_days=2, start_time=100.0)
        data = generate_ride_events(cfg, seed=0)
        assert np.all(np.diff(data.timestamps) >= 0)
        assert data.timestamps.min() >= 100.0
        assert data.timestamps.max() < 100.0 + 2 * 86400.0

    def test_entity_ids_in_range(self):
        cfg = RideEventConfig(n_events=300, n_entities=10)
        data = generate_ride_events(cfg, seed=0)
        assert data.entity_ids.min() >= 0
        assert data.entity_ids.max() < 10

    def test_entity_activity_is_skewed(self):
        cfg = RideEventConfig(n_events=5000, n_entities=50, entity_skew=1.5)
        data = generate_ride_events(cfg, seed=0)
        counts = np.bincount(data.entity_ids, minlength=50)
        # Busiest entity should see far more events than the median entity.
        assert counts.max() > 5 * np.median(counts)

    def test_null_rate_roughly_respected(self):
        cfg = RideEventConfig(n_events=20_000, null_rate=0.1)
        data = generate_ride_events(cfg, seed=0)
        observed = np.isnan(data.numeric["fare"]).mean()
        assert 0.07 < observed < 0.13

    def test_zero_null_rate_gives_no_nulls(self):
        cfg = RideEventConfig(n_events=1000, null_rate=0.0)
        data = generate_ride_events(cfg, seed=0)
        for col in data.numeric.values():
            assert not np.isnan(col).any()
        assert (data.categorical["city"] >= 0).all()

    def test_fare_correlates_with_distance(self):
        cfg = RideEventConfig(n_events=5000, null_rate=0.0)
        data = generate_ride_events(cfg, seed=0)
        corr = np.corrcoef(data.numeric["trip_km"], data.numeric["fare"])[0, 1]
        assert corr > 0.5

    def test_rating_bounds(self):
        data = generate_ride_events(RideEventConfig(n_events=2000, null_rate=0.0), seed=0)
        rating = data.numeric["rating"]
        assert rating.min() >= 1.0
        assert rating.max() <= 5.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            generate_ride_events(RideEventConfig(n_events=0))
        with pytest.raises(ValidationError):
            generate_ride_events(RideEventConfig(null_rate=1.5))

    def test_rows_materialization_encodes_nulls_as_none(self):
        cfg = RideEventConfig(n_events=500, null_rate=0.3)
        data = generate_ride_events(cfg, seed=3)
        rows = data.rows()
        assert len(rows) == 500
        n_null = sum(1 for r in rows if r["fare"] is None)
        assert n_null == int(np.isnan(data.numeric["fare"]).sum())
        assert all(isinstance(r["timestamp"], float) for r in rows[:10])

    def test_slice_filters_rows(self):
        data = generate_ride_events(RideEventConfig(n_events=100), seed=0)
        mask = data.entity_ids % 2 == 0
        subset = data.slice(mask)
        assert len(subset) == int(mask.sum())
        assert (subset.entity_ids % 2 == 0).all()


class TestTabularDataset:
    def test_column_accessor(self):
        data = TabularDataset(
            entity_ids=np.arange(3),
            timestamps=np.arange(3, dtype=float),
            numeric={"x": np.array([0.5, np.nan, 1.5])},
            categorical={"c": np.array([0, 1, -1])},
        )
        assert data.column("x") is data.numeric["x"]
        assert data.column("c") is data.categorical["c"]
        with pytest.raises(KeyError):
            data.column("missing")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TabularDataset(
                entity_ids=np.arange(3),
                timestamps=np.arange(2, dtype=float),
                numeric={},
                categorical={},
            )
        with pytest.raises(ValidationError):
            TabularDataset(
                entity_ids=np.arange(3),
                timestamps=np.arange(3, dtype=float),
                numeric={"x": np.zeros(2)},
                categorical={},
            )

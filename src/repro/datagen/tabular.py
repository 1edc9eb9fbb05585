"""Tabular event generators (the feature store's raw training data).

Generates ride-hailing-style event tables: per-event numeric and categorical
columns with event timestamps, controllable null rates and distribution
parameters. These stand in for the production tables an industrial feature
store (paper section 2.2.1) ingests for feature curation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clock import SECONDS_PER_DAY
from repro.datagen.workloads import zipf_probabilities
from repro.errors import ValidationError


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed or an existing Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class TabularDataset:
    """A columnar dataset: parallel numpy arrays keyed by column name.

    ``timestamps`` holds per-row event times; ``entity_ids`` holds the join
    key (e.g. driver id). Numeric columns are float arrays where ``nan``
    encodes SQL NULL; categorical columns are integer-coded arrays where
    ``-1`` encodes NULL.
    """

    entity_ids: np.ndarray
    timestamps: np.ndarray
    numeric: dict[str, np.ndarray]
    categorical: dict[str, np.ndarray]
    categorical_cardinality: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.entity_ids)
        if len(self.timestamps) != n:
            raise ValidationError(
                f"timestamps length {len(self.timestamps)} != entity_ids length {n}"
            )
        for name, col in {**self.numeric, **self.categorical}.items():
            if len(col) != n:
                raise ValidationError(f"column {name!r} length {len(col)} != {n}")

    def __len__(self) -> int:
        return len(self.entity_ids)

    @property
    def column_names(self) -> list[str]:
        return list(self.numeric) + list(self.categorical)

    def column(self, name: str) -> np.ndarray:
        """Return a column by name, numeric or categorical."""
        if name in self.numeric:
            return self.numeric[name]
        if name in self.categorical:
            return self.categorical[name]
        raise KeyError(f"no column named {name!r}")

    def rows(self) -> list[dict[str, object]]:
        """Materialize the dataset as a list of row dicts (for store APIs)."""
        out: list[dict[str, object]] = []
        for i in range(len(self)):
            row: dict[str, object] = {
                "entity_id": int(self.entity_ids[i]),
                "timestamp": float(self.timestamps[i]),
            }
            for name, col in self.numeric.items():
                value = float(col[i])
                row[name] = None if np.isnan(value) else value
            for name, col in self.categorical.items():
                value = int(col[i])
                row[name] = None if value < 0 else value
            out.append(row)
        return out

    def slice(self, mask: np.ndarray) -> "TabularDataset":
        """Return the subset of rows where ``mask`` is true."""
        return TabularDataset(
            entity_ids=self.entity_ids[mask],
            timestamps=self.timestamps[mask],
            numeric={k: v[mask] for k, v in self.numeric.items()},
            categorical={k: v[mask] for k, v in self.categorical.items()},
            categorical_cardinality=dict(self.categorical_cardinality),
        )


@dataclass(frozen=True)
class RideEventConfig:
    """Parameters for :func:`generate_ride_events`.

    The defaults give a small but realistic workload: 7 days of events,
    Zipf-ish entity activity (some drivers far busier than others), diurnal
    trip-distance structure and a few percent of missing values.
    """

    n_events: int = 10_000
    n_entities: int = 200
    n_days: int = 7
    start_time: float = 0.0
    null_rate: float = 0.02
    entity_skew: float = 1.2
    fare_per_km: float = 1.8
    fare_noise: float = 2.0
    n_cities: int = 8
    n_vehicle_types: int = 4

    def validate(self) -> None:
        if self.n_events <= 0:
            raise ValidationError(f"n_events must be positive ({self.n_events=})")
        if self.n_entities <= 0:
            raise ValidationError(f"n_entities must be positive ({self.n_entities=})")
        if not 0.0 <= self.null_rate < 1.0:
            raise ValidationError(f"null_rate must be in [0, 1) ({self.null_rate=})")
        if self.n_days <= 0:
            raise ValidationError(f"n_days must be positive ({self.n_days=})")


def _zipf_probabilities(n: int, skew: float) -> np.ndarray:
    """Zipfian probability vector (shared with :mod:`repro.datagen.workloads`)."""
    return zipf_probabilities(n, skew)


def generate_ride_events(
    config: RideEventConfig = RideEventConfig(), seed: int | np.random.Generator = 0
) -> TabularDataset:
    """Generate a ride-hailing event table.

    Columns:

    * ``trip_km`` (numeric) — log-normal trip distance.
    * ``fare`` (numeric) — linear in distance plus noise, so ``fare`` and
      ``trip_km`` carry high mutual information (used by quality metrics).
    * ``rating`` (numeric) — rider rating in [1, 5], left-skewed.
    * ``wait_minutes`` (numeric) — exponential pickup wait.
    * ``city`` (categorical) — Zipf-distributed city id.
    * ``vehicle_type`` (categorical) — near-uniform vehicle class.
    """
    config.validate()
    rng = _rng(seed)
    n = config.n_events

    entity_probs = _zipf_probabilities(config.n_entities, config.entity_skew)
    entity_ids = rng.choice(config.n_entities, size=n, p=entity_probs)

    horizon = config.n_days * SECONDS_PER_DAY
    timestamps = np.sort(config.start_time + rng.uniform(0.0, horizon, size=n))

    trip_km = rng.lognormal(mean=1.2, sigma=0.6, size=n)
    fare = config.fare_per_km * trip_km + rng.normal(2.5, config.fare_noise, size=n)
    fare = np.maximum(fare, 1.0)
    rating = np.clip(5.0 - rng.exponential(0.5, size=n), 1.0, 5.0)
    wait_minutes = rng.exponential(4.0, size=n)

    city_probs = _zipf_probabilities(config.n_cities, 1.0)
    city = rng.choice(config.n_cities, size=n, p=city_probs).astype(np.int64)
    vehicle_type = rng.integers(0, config.n_vehicle_types, size=n)

    numeric = {
        "trip_km": trip_km,
        "fare": fare,
        "rating": rating,
        "wait_minutes": wait_minutes,
    }
    if config.null_rate > 0:
        for col in numeric.values():
            col[rng.random(n) < config.null_rate] = np.nan
        city[rng.random(n) < config.null_rate] = -1

    return TabularDataset(
        entity_ids=entity_ids.astype(np.int64),
        timestamps=timestamps,
        numeric=numeric,
        categorical={"city": city, "vehicle_type": vehicle_type.astype(np.int64)},
        categorical_cardinality={
            "city": config.n_cities,
            "vehicle_type": config.n_vehicle_types,
        },
    )

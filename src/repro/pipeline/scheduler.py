"""The cadence loop.

Paper section 2.2.1: "When the underlying data changes, the FS orchestrates
the updates to the features based on the user-defined cadence." The
scheduler advances a simulated clock in fixed ticks; on every tick it

1. re-materializes every feature view whose cadence is due,
2. checks per-view freshness against a staleness budget, and
3. runs any registered per-column drift monitors over the window of raw
   values that arrived since the last tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.embedding_store import EmbeddingStore
from repro.core.feature_store import FeatureStore
from repro.errors import ValidationError
from repro.monitoring import (
    AlertLog,
    EmbeddingDriftMonitor,
    FeatureMonitor,
    FreshnessMonitor,
    MonitorConfig,
)


@dataclass(frozen=True)
class TickReport:
    """What happened during one scheduler tick.

    ``fused_groups`` / ``scans_saved`` report what the pipeline compiler's
    shared-scan fusion saved while materializing this tick's due views
    (0 when no two due views share a source table).
    """

    tick: int
    now: float
    materialized_views: tuple[str, ...]
    alerts_fired: int
    fused_groups: int = 0
    scans_saved: int = 0


@dataclass
class _ColumnWatch:
    table: str
    column: str
    monitor: FeatureMonitor
    last_checked: float


@dataclass
class _EmbeddingWatch:
    store: EmbeddingStore
    name: str
    last_seen_version: int


class CadenceScheduler:
    """Drives a :class:`FeatureStore`'s cadences over simulated time."""

    def __init__(
        self,
        store: FeatureStore,
        tick_seconds: float = 600.0,
        staleness_factor: float = 3.0,
    ) -> None:
        if tick_seconds <= 0:
            raise ValidationError(f"tick_seconds must be positive ({tick_seconds=})")
        if staleness_factor <= 1.0:
            raise ValidationError(
                f"staleness_factor must exceed 1 ({staleness_factor=})"
            )
        self.store = store
        self.tick_seconds = tick_seconds
        self.staleness_factor = staleness_factor
        self.alert_log = AlertLog()
        self._column_watches: list[_ColumnWatch] = []
        self._embedding_watches: list[_EmbeddingWatch] = []
        self._freshness_monitors: dict[str, FreshnessMonitor] = {}
        self._tick_count = 0

    def watch_column(
        self,
        table: str,
        column: str,
        reference: np.ndarray,
        config: MonitorConfig | None = None,
    ) -> None:
        """Register near-real-time drift monitoring for a raw column.

        Pass a :class:`MonitorConfig` to calibrate thresholds per feature —
        heavy-tailed columns need looser outlier-rate thresholds than the
        Gaussian-ish defaults.
        """
        monitor = FeatureMonitor(
            column=f"{table}.{column}",
            reference=reference,
            log=self.alert_log,
            config=config or MonitorConfig(),
        )
        self._column_watches.append(
            _ColumnWatch(
                table=table,
                column=column,
                monitor=monitor,
                last_checked=self.store.clock.now(),
            )
        )

    def watch_embedding(self, embedding_store: EmbeddingStore, name: str) -> None:
        """Monitor an embedding name for drifting new versions.

        On every tick, if a version was registered since the last check,
        it is compared against its predecessor with the embedding drift
        monitor (section 3.1's embedding-native metrics); a drifted update
        fires an ``embedding`` alert with the version transition in the
        message.
        """
        self._embedding_watches.append(
            _EmbeddingWatch(
                store=embedding_store,
                name=name,
                last_seen_version=embedding_store.latest_version(name),
            )
        )

    def _check_embedding_watches(self, now: float) -> None:
        for watch in self._embedding_watches:
            latest = watch.store.latest_version(watch.name)
            while watch.last_seen_version < latest:
                previous_version = watch.last_seen_version
                next_version = previous_version + 1
                previous = watch.store.get(watch.name, previous_version)
                candidate = watch.store.get(watch.name, next_version)
                if (
                    previous.embedding.dim == candidate.embedding.dim
                    and previous.embedding.n > 10
                ):
                    monitor = EmbeddingDriftMonitor(
                        previous.embedding,
                        log=self.alert_log,
                        name=f"{watch.name}:v{previous_version}->v{next_version}",
                    )
                    monitor.check(candidate.embedding, timestamp=now)
                watch.last_seen_version = next_version

    def _freshness_monitor(self, view_name: str, cadence: float) -> FreshnessMonitor:
        if view_name not in self._freshness_monitors:
            self._freshness_monitors[view_name] = FreshnessMonitor(
                view_name=view_name,
                max_staleness=cadence * self.staleness_factor,
                log=self.alert_log,
            )
        return self._freshness_monitors[view_name]

    def tick(self) -> TickReport:
        """Advance the clock one tick and run all due work."""
        clock = self.store.clock
        if not hasattr(clock, "advance"):
            raise ValidationError("scheduler requires a SimClock-like clock")
        now = clock.advance(self.tick_seconds)  # type: ignore[attr-defined]
        alerts_before = len(self.alert_log)

        # Materialize every due view in one call: views over the same
        # source table fuse into one shared scan.
        stats_before = self.store.compiler_stats
        due = self.store.views_due(now=now)
        self.store.materialize_many([view.name for view in due], as_of=now)
        materialized = [view.name for view in due]
        stats_after = self.store.compiler_stats
        fused_groups = stats_after.get("fusion_groups", 0) - stats_before.get(
            "fusion_groups", 0
        )
        scans_saved = stats_after.get("scans_saved", 0) - stats_before.get(
            "scans_saved", 0
        )

        # Freshness: compare each latest view's newest materialized row to now.
        for name in self.store.registry.view_names():
            view = self.store.registry.view(name)
            table = self.store.offline.table(view.materialized_table)
            monitor = self._freshness_monitor(view.name, view.cadence)
            monitor.observe(table.last_event_time(), now)

        # Near-real-time column drift over the window since the last check.
        for watch in self._column_watches:
            table = self.store.offline.table(watch.table)
            window = table.column_array(
                watch.column, start=watch.last_checked, end=now
            )
            if len(window) >= 20:
                watch.monitor.observe(window, timestamp=now)
                watch.last_checked = now

        self._check_embedding_watches(now)

        self._tick_count += 1
        return TickReport(
            tick=self._tick_count,
            now=now,
            materialized_views=tuple(materialized),
            alerts_fired=len(self.alert_log) - alerts_before,
            fused_groups=fused_groups,
            scans_saved=scans_saved,
        )

    def run(self, n_ticks: int) -> list[TickReport]:
        """Run several ticks; returns one report per tick."""
        if n_ticks <= 0:
            raise ValidationError(f"n_ticks must be positive ({n_ticks=})")
        return [self.tick() for __ in range(n_ticks)]

"""Checkpointed consumer groups: at-least-once delivery, exactly-once effects.

The read edge of the ingestion bus. A :class:`Consumer` belongs to a
*group* and owns one cursor per partition. ``poll`` advances the in-memory
cursor; ``commit`` persists it — so the delivery contract is
**at-least-once**: a crash between processing and commit replays the
uncommitted suffix on restart.

Checkpoints are one tiny JSON file per ``(group, partition)`` written via
the atomic-rename idiom (write tmp, fsync, ``os.replace``) — a checkpoint
is either the old offset or the new one, never a torn intermediate.
``Consumer.commit`` rewrites only the checkpoints whose cursor moved, so
a settle after one record costs one file write, not one per partition.

:class:`DedupeWindow` turns at-least-once delivery into effectively-once
*application*: sinks consult it keyed on ``(partition, offset)`` before
applying a record, so the replayed suffix after a crash is recognized and
skipped instead of double-written into the online store.

:class:`ConsumerWorker` is the background materializer: a
:class:`repro.runtime.Service` owning one thread that drives the
poll → apply-to-sinks → flush → commit cycle continuously, so the write
path runs *concurrently* with serving instead of being hand-cranked by
the caller. ``stop()`` drains the backlog, flushes every sink and commits
before the thread exits — shutdown never strands acknowledged records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bus.log import BusRecord, SegmentLog
from repro.errors import ValidationError
from repro.runtime import Counter, Service, await_condition

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.bus.metrics import BusMetrics

_CHECKPOINT_DIRNAME = "checkpoints"


@dataclass(frozen=True)
class ConsumedRecord:
    """A record plus its coordinates — the dedupe/checkpoint identity."""

    partition: int
    offset: int
    record: BusRecord


class CheckpointStore:
    """Per-``(group, partition)`` committed offsets, atomically persisted.

    The stored value is the *next offset to read* (i.e. one past the last
    processed record), matching the usual consumer-group convention.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._group_dirs: set[str] = set()  # groups whose directory exists

    def _path(self, group: str, partition: int) -> Path:
        return self.directory / group / f"partition-{partition:04d}.json"

    def load(self, group: str, partition: int) -> int:
        """Committed next-offset, or 0 if this group never committed."""
        path = self._path(group, partition)
        try:
            return int(json.loads(path.read_text())["next_offset"])
        except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError):
            return 0

    def commit(self, group: str, partition: int, next_offset: int) -> None:
        """Atomically persist ``next_offset`` (tmp + fsync + rename)."""
        if next_offset < 0:
            raise ValidationError(f"next_offset must be >= 0 ({next_offset=})")
        path = self._path(group, partition)
        if group not in self._group_dirs:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._group_dirs.add(group)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump({"next_offset": next_offset}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def groups(self) -> list[str]:
        return sorted(p.name for p in self.directory.iterdir() if p.is_dir())


class Consumer:
    """One member of a consumer group reading every partition of a log.

    (Laptop-scale simplification: there is no broker-side partition
    assignment — a group is one consumer owning all partitions. The
    checkpoint format is per-partition, so a sharded assignment layer
    could be added without migrating state.)
    """

    def __init__(
        self,
        log: SegmentLog,
        group: str = "default",
        checkpoints: CheckpointStore | None = None,
        metrics: "BusMetrics | None" = None,
    ) -> None:
        if not group:
            raise ValidationError("consumer group name cannot be empty")
        self.log = log
        self.group = group
        self.checkpoints = checkpoints or CheckpointStore(
            log.directory / _CHECKPOINT_DIRNAME
        )
        self.metrics = metrics
        # Resume from the last commit; clamp to the durable end so a
        # checkpoint that outlived torn (never-acknowledged) records cannot
        # strand the cursor past the recovered log.
        self._committed = [
            self.checkpoints.load(group, p) for p in range(log.n_partitions)
        ]
        self._positions = [
            min(offset, log.end_offset(p))
            for p, offset in enumerate(self._committed)
        ]
        self._round_robin = 0

    # -- cursors -------------------------------------------------------------

    def position(self, partition: int) -> int:
        return self._positions[partition]

    def committed(self, partition: int) -> int:
        return self.checkpoints.load(self.group, partition)

    def seek(self, partition: int, offset: int) -> None:
        if offset < 0:
            raise ValidationError(f"offset must be >= 0 ({offset=})")
        self._positions[partition] = offset

    def seek_to_beginning(self) -> None:
        """Rewind every partition to offset 0 (the replay/backfill entry)."""
        self._positions = [0] * self.log.n_partitions

    def lag(self) -> dict[int, int]:
        """Per-partition records between the cursor and the log end."""
        lags = {
            p: self.log.end_offset(p) - self._positions[p]
            for p in range(self.log.n_partitions)
        }
        if self.metrics is not None:
            for partition, value in lags.items():
                self.metrics.set_lag(partition, value)
        return lags

    def total_lag(self) -> int:
        return sum(self.lag().values())

    # -- delivery ------------------------------------------------------------

    def poll(self, max_records: int = 512) -> list[ConsumedRecord]:
        """Up to ``max_records`` records across partitions, cursor-ordered.

        Partitions are visited round-robin starting at a rotating index so
        a hot partition cannot starve the others. Within a partition,
        records arrive in offset order — the per-entity ordering guarantee.
        """
        if max_records <= 0:
            return []
        out: list[ConsumedRecord] = []
        n = self.log.n_partitions
        start = self._round_robin
        self._round_robin = (self._round_robin + 1) % n
        for step in range(n):
            if len(out) >= max_records:
                break
            partition = (start + step) % n
            batch = self.log.read(
                partition, self._positions[partition], max_records - len(out)
            )
            if not batch:
                continue
            for offset, record in batch:
                out.append(ConsumedRecord(partition, offset, record))
            self._positions[partition] = batch[-1][0] + 1
        if self.metrics is not None and out:
            self.metrics.consumed.inc(len(out))
        return out

    def commit(self) -> dict[int, int]:
        """Persist the partition cursors; return every committed offset.

        Only a cursor that moved since this consumer last loaded or wrote
        its checkpoint is rewritten; an unmoved one is already on disk.
        The contract stays at-least-once: what is returned is durable.
        """
        for partition, position in enumerate(self._positions):
            if position != self._committed[partition]:
                self.checkpoints.commit(self.group, partition, position)
                self._committed[partition] = position
        committed = dict(enumerate(self._positions))
        if self.metrics is not None:
            self.metrics.commits.inc()
        return committed


class ConsumerWorker(Service):
    """Background poll → apply → flush → commit pump over one consumer.

    Owns the consumer exclusively once started (``Consumer`` is not
    thread-safe; do not poll it from outside while the worker runs).
    Sinks are anything exposing ``apply_batch(batch)`` and ``flush()``
    (duck-typed to avoid importing :mod:`repro.bus.sinks` downward).

    The cycle: ``poll(max_records)``; a non-empty batch is applied to
    every sink in order; on the transition to idle (an empty poll after
    applied work) the worker *settles* — flushes every sink, commits the
    cursor, publishes consumer lag — then naps ``poll_interval_s``.
    ``stop()`` performs one final drain + settle so every record in the
    log at stop time is applied and committed before the thread exits.
    """

    def __init__(
        self,
        consumer: Consumer,
        sinks: object,
        poll_interval_s: float = 0.005,
        max_records: int = 512,
        name: str | None = None,
    ) -> None:
        if poll_interval_s <= 0:
            raise ValidationError(
                f"poll_interval_s must be positive ({poll_interval_s=})"
            )
        if max_records <= 0:
            raise ValidationError(f"max_records must be positive ({max_records=})")
        super().__init__(name=name or f"consumer-worker:{consumer.group}")
        self.consumer = consumer
        self.sinks = (
            [sinks] if hasattr(sinks, "apply_batch") else list(sinks)  # type: ignore[arg-type]
        )
        self.poll_interval_s = poll_interval_s
        self.max_records = max_records
        self.records_pumped = Counter()
        self.settles = Counter()
        self._dirty = False

    def _on_start(self) -> None:
        self._spawn(self._loop, name=f"{self.name}-loop")

    def _on_stop(self) -> None:
        self._stop_event.set()
        self._join_workers()
        # The loop's own final drain handles the normal path; if the
        # thread died abnormally, settle here so commit state is sane.
        if self._dirty:
            self._settle()

    # -- pump ----------------------------------------------------------------

    def _drain_once(self) -> int:
        batch = self.consumer.poll(self.max_records)
        if not batch:
            return 0
        for sink in self.sinks:
            sink.apply_batch(batch)
        self.records_pumped.inc(len(batch))
        self._dirty = True
        return len(batch)

    def _settle(self) -> None:
        """Flush buffered sink work, persist cursors, publish lag."""
        for sink in self.sinks:
            sink.flush()
        self.consumer.commit()
        self.consumer.lag()  # publishes per-partition lag gauges
        self.settles.inc()
        self._dirty = False

    def _loop(self) -> None:
        while not self._stop_event.is_set():
            if self._drain_once() == 0:
                if self._dirty:
                    self._settle()
                self._stop_event.wait(self.poll_interval_s)
        # Orderly shutdown: drain whatever is already in the log, then
        # flush + commit so acknowledged records are never stranded.
        while self._drain_once():
            pass
        if self._dirty:
            self._settle()

    # -- introspection --------------------------------------------------------

    @property
    def caught_up(self) -> bool:
        """True when the log is fully applied, flushed and committed."""
        return not self._dirty and self.consumer.total_lag() == 0

    def wait_until_caught_up(self, timeout_s: float = 5.0) -> bool:
        """Block until :attr:`caught_up` (or the timeout elapses)."""
        return await_condition(lambda: self.caught_up, timeout_s=timeout_s)

    def health(self) -> dict[str, object]:
        record = super().health()
        record["records_pumped"] = self.records_pumped.value
        record["settles"] = self.settles.value
        record["caught_up"] = self.caught_up
        return record


class DedupeWindow:
    """Tracks applied ``(partition, offset)`` pairs to suppress redelivery.

    Per-partition delivery is in offset order, so the common case is a
    watermark: everything at or below ``applied[p]`` has been applied. A
    bounded out-of-order set absorbs gaps (e.g. a sink that applies
    filtered subsets); when the set outgrows ``window`` the oldest entries
    are folded into the watermark — the window is the redelivery horizon.
    """

    def __init__(self, window: int = 8192) -> None:
        if window <= 0:
            raise ValidationError(f"window must be positive ({window=})")
        self.window = window
        self._watermarks: dict[int, int] = {}
        self._ahead: dict[int, set[int]] = {}
        self.duplicates_seen = 0

    def seen(self, partition: int, offset: int) -> bool:
        """True if this record was already applied (a duplicate delivery)."""
        duplicate = offset <= self._watermarks.get(partition, -1) or offset in self._ahead.get(
            partition, ()
        )
        if duplicate:
            self.duplicates_seen += 1
        return duplicate

    def mark(self, partition: int, offset: int) -> None:
        """Record that ``(partition, offset)`` has been applied."""
        watermark = self._watermarks.get(partition, -1)
        if offset <= watermark:
            return
        ahead = self._ahead.setdefault(partition, set())
        ahead.add(offset)
        # Advance the watermark over any now-contiguous prefix.
        while watermark + 1 in ahead:
            watermark += 1
            ahead.discard(watermark)
        self._watermarks[partition] = watermark
        # Bound memory: fold the oldest out-of-order entries into the
        # watermark once the set exceeds the window.
        while len(ahead) > self.window:
            smallest = min(ahead)
            ahead.discard(smallest)
            self._watermarks[partition] = max(self._watermarks[partition], smallest)

    def filter_new(self, batch: list[ConsumedRecord]) -> list[ConsumedRecord]:
        """The sub-batch not yet applied (does *not* mark them)."""
        return [c for c in batch if not self.seen(c.partition, c.offset)]

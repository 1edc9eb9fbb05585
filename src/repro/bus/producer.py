"""Batching producer with entity-hash routing and bounded backpressure.

The write edge of the ingestion bus. A producer buffers records per
partition (the partition is a stable hash of ``entity_id``, so one
entity's events always land on one partition in production order) and
flushes a partition's buffer as one ``append_many`` batch — the log-level
analogue of the serving gateway's micro-batching. :meth:`Producer.send`
encodes each record once; buffers hold those frames verbatim.

Backpressure is a *byte* bound, not a record bound: ``max_inflight_bytes``
caps encoded-but-unflushed bytes across all partition buffers. On
overflow, policy ``BLOCK`` drains the buffers inline (the caller pays the
flush latency — the classic producer stall), policy ``RAISE`` raises
:class:`~repro.errors.Backpressure` so an upstream queue can shed load.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.bus.log import BusRecord, SegmentLog, encode_record
from repro.datagen.streams import StreamEvent
from repro.errors import Backpressure, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.bus.metrics import BusMetrics


class OverflowPolicy(enum.Enum):
    """What :meth:`Producer.send` does when the in-flight bound is hit."""

    BLOCK = "block"  # drain buffers inline, then accept the record
    RAISE = "raise"  # raise Backpressure; caller decides


@dataclass(frozen=True)
class ProducerStats:
    """Counters accumulated over a producer's lifetime."""

    records_sent: int
    batches_flushed: int
    bytes_sent: int
    backpressure_hits: int


class Producer:
    """Routes, batches and appends records to a :class:`SegmentLog`.

    ``send`` accepts either a :class:`BusRecord` or a
    :class:`~repro.datagen.streams.StreamEvent`; every accepted record is
    stamped with a producer-monotonic ``sequence`` so downstream merges can
    reconstruct production order across partitions.
    """

    def __init__(
        self,
        log: SegmentLog,
        batch_records: int = 256,
        max_inflight_bytes: int = 1 << 20,
        overflow: OverflowPolicy = OverflowPolicy.BLOCK,
        metrics: "BusMetrics | None" = None,
    ) -> None:
        if batch_records <= 0:
            raise ValidationError(f"batch_records must be positive ({batch_records=})")
        if max_inflight_bytes <= 0:
            raise ValidationError(
                f"max_inflight_bytes must be positive ({max_inflight_bytes=})"
            )
        self.log = log
        self.batch_records = batch_records
        self.max_inflight_bytes = max_inflight_bytes
        self.overflow = overflow
        self.metrics = metrics
        self._buffers: list[list[bytes]] = [[] for _ in range(log.n_partitions)]
        self._buffered_bytes = 0
        self._sequence = 0
        self._records_sent = 0
        self._batches_flushed = 0
        self._bytes_sent = 0
        self._backpressure_hits = 0

    # -- send path -----------------------------------------------------------

    def _coerce(self, event: BusRecord | StreamEvent) -> BusRecord:
        if isinstance(event, StreamEvent):
            record = BusRecord(
                entity_id=event.entity_id,
                timestamp=event.timestamp,
                value=event.value,
                attributes=dict(event.attributes),
                sequence=self._sequence,
            )
        elif isinstance(event, BusRecord):
            record = replace(event, sequence=self._sequence)
        else:
            raise ValidationError(
                f"send() takes BusRecord or StreamEvent, got {type(event).__name__}"
            )
        self._sequence += 1
        return record

    def send(self, event: BusRecord | StreamEvent) -> int:
        """Buffer one record; return the partition it was routed to.

        May flush (policy ``BLOCK``) or raise
        :class:`~repro.errors.Backpressure` (policy ``RAISE``) when the
        byte bound would be exceeded.
        """
        record = self._coerce(event)
        frame = encode_record(record)
        size = len(frame)
        if self._buffered_bytes + size > self.max_inflight_bytes:
            self._backpressure_hits += 1
            if self.metrics is not None:
                self.metrics.backpressure_events.inc()
            if self.overflow is OverflowPolicy.RAISE:
                self._sequence -= 1  # the record was not accepted
                raise Backpressure(
                    f"in-flight bytes {self._buffered_bytes} + {size} would exceed "
                    f"max_inflight_bytes={self.max_inflight_bytes}"
                )
            self.flush()
        partition = self.log.partition_for(record.entity_id)
        self._buffers[partition].append(frame)
        self._buffered_bytes += size
        self._records_sent += 1
        if len(self._buffers[partition]) >= self.batch_records:
            self._flush_partition(partition)
        return partition

    def send_many(self, events) -> int:
        """``send`` each event; return the number accepted."""
        count = 0
        for event in events:
            self.send(event)
            count += 1
        return count

    # -- flush path ----------------------------------------------------------

    def _flush_partition(self, partition: int) -> None:
        buffer = self._buffers[partition]
        if not buffer:
            return
        batch_bytes = sum(map(len, buffer))
        self.log.append_many(partition, buffer)
        self._buffers[partition] = []
        self._buffered_bytes -= batch_bytes
        self._batches_flushed += 1
        self._bytes_sent += batch_bytes
        if self.metrics is not None:
            self.metrics.produced.inc(len(buffer))
            self.metrics.produced_bytes.inc(batch_bytes)
            self.metrics.produce_batches.inc()

    def flush(self, sync: bool = False) -> None:
        """Drain every partition buffer into the log.

        ``sync=True`` additionally forces an fsync barrier (regardless of
        the log's fsync policy) — the producer's explicit "ack" point: a
        record is *acknowledged* once a ``flush(sync=True)`` covering it
        returns.
        """
        for partition in range(self.log.n_partitions):
            self._flush_partition(partition)
        if sync:
            self.log.sync()

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    @property
    def stats(self) -> ProducerStats:
        return ProducerStats(
            records_sent=self._records_sent,
            batches_flushed=self._batches_flushed,
            bytes_sent=self._bytes_sent,
            backpressure_hits=self._backpressure_hits,
        )

    def __enter__(self) -> "Producer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush(sync=True)

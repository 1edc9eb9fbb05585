"""The durable core of the ingestion bus: a partitioned segment log.

Production feature platforms put a replayable log (Kafka, Kinesis, event
hubs) between event producers and the dual store — the paper's streaming
path (§2.2.1) assumes exactly this substrate when it says the FS
"orchestrates the updates to the features based on the user-defined
cadence". This module is that substrate at laptop scale:

* **Partitions** — ``n_partitions`` independent append-only logs; a stable
  hash of ``entity_id`` picks the partition, so *per-entity* order is
  total even though partitions are independent.
* **Segments** — each partition is a directory of fixed-prefix files named
  by their base offset (``00000000000000000000.seg``); the active tail
  segment rotates once it exceeds ``segment_bytes``, which bounds both
  recovery-scan time and the unit of retention.
* **Framing** — every record is ``[u32 length][u32 crc32][payload]``
  (little-endian); the CRC covers the payload, so a torn write is
  detectable at the exact record boundary. A record is encoded once;
  appends, reads and replication then move those bytes unchanged, and
  one walker (:func:`_frame_ends`) decides what a valid frame is.
* **Fsync policy** — durability is a knob, as in every real log:
  ``PER_RECORD`` fsyncs on each append, ``GROUP`` commits every N records
  or T seconds (whichever first), ``NONE`` leaves flushing to the OS.
  The E17 bench (``bench_e17_ingestion_bus.py``) measures the cost curve.
* **Crash recovery** — :class:`SegmentLog` opens by scanning the *tail*
  segment of each partition, keeping the longest prefix of CRC-valid
  frames and truncating whatever a crash tore mid-write. Interior
  segments were sealed by rotation and are never re-scanned for
  recovery.
* **Sparse index** — each segment keeps the byte position of every
  64th frame. The tail's index grows on append and is rebuilt from the
  recovery scan; a sealed segment present at open is indexed by one
  walk on its first read. A read seeks to the nearest indexed frame at
  or below its start offset, so a tail read walks at most 63 frames
  plus the ones it returns, however far into the segment it starts;
  every returned frame still passes :func:`_frame_ends`.

Offsets are per-partition, dense, and 0-based: the pair
``(partition, offset)`` names a record for consumers, checkpoints and the
dedupe window.
"""

from __future__ import annotations

import enum
import json
import os
import struct
import threading
import time
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from repro.errors import BusError, CorruptRecordError, ValidationError

_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_FIXED = struct.Struct("<qqdd")  # sequence, entity_id, timestamp, value
_MAX_PAYLOAD = 1 << 26  # 64 MiB: anything larger is framing corruption

_INDEX_STRIDE = 64  # frames between two indexed byte positions

_SEGMENT_SUFFIX = ".seg"
_META_FILE = "meta.json"


class FsyncPolicy(enum.Enum):
    """When appended records become durable."""

    NONE = "none"  # OS page cache decides; fastest, weakest
    GROUP = "group"  # group commit: every N records or T seconds
    PER_RECORD = "per_record"  # fsync each append; strongest, slowest


@dataclass(frozen=True)
class FsyncConfig:
    """Durability knobs for a :class:`SegmentLog`.

    ``group_records`` / ``group_interval_s`` only matter under
    ``FsyncPolicy.GROUP``: a commit happens when either bound is hit.
    """

    policy: FsyncPolicy = FsyncPolicy.GROUP
    group_records: int = 256
    group_interval_s: float = 0.05

    def validate(self) -> None:
        if self.group_records <= 0:
            raise ValidationError(
                f"group_records must be positive ({self.group_records=})"
            )
        if self.group_interval_s <= 0:
            raise ValidationError(
                f"group_interval_s must be positive ({self.group_interval_s=})"
            )


@dataclass(frozen=True)
class BusRecord:
    """One event on the bus.

    ``sequence`` is a producer-assigned monotonic stamp used to make
    cross-partition merges deterministic (equal-timestamp events replay in
    production order); it is carried on the wire but has no meaning to the
    log itself.
    """

    entity_id: int
    timestamp: float  # event time, seconds
    value: float
    attributes: dict[str, float] = field(default_factory=dict)
    sequence: int = 0


def encode_record(record: BusRecord) -> bytes:
    """Serialize ``record`` to one framed ``[len][crc][payload]`` blob."""
    attrs = (
        json.dumps(record.attributes, sort_keys=True, separators=(",", ":")).encode()
        if record.attributes
        else b""
    )
    payload = (
        _FIXED.pack(
            record.sequence, record.entity_id, record.timestamp, record.value
        )
        + attrs
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> BusRecord:
    """Inverse of :func:`encode_record`'s payload half."""
    sequence, entity_id, timestamp, value = _FIXED.unpack_from(payload)
    tail = payload[_FIXED.size :]
    attributes = json.loads(tail) if tail else {}
    return BusRecord(
        entity_id=entity_id,
        timestamp=timestamp,
        value=value,
        attributes=attributes,
        sequence=sequence,
    )


def decode_frame(frame: bytes) -> BusRecord:
    """Full inverse of :func:`encode_record`: verify framing, then decode.

    The cluster plane's log shipping moves whole frames between nodes;
    the follower calls this before appending, so a frame damaged in
    flight is rejected *before* it can enter the replica log. Raises
    :class:`~repro.errors.CorruptRecordError` unless ``frame`` is exactly
    one valid frame (short, oversized, trailing garbage, bad CRC all fail).
    """
    if _frame_ends(frame, 1) != [len(frame)]:
        raise CorruptRecordError(
            f"not one valid [len][crc][payload] frame ({len(frame)} bytes)"
        )
    return decode_payload(frame[_FRAME.size :])


def _frame_ends(data: bytes, max_frames: int | None = None) -> list[int]:
    """End position of each frame in the longest valid prefix of ``data``.

    The one definition of a valid frame (recovery, reads, appends and
    :func:`decode_frame` all walk here): a payload length in
    ``(0, _MAX_PAYLOAD]`` that fits in ``data`` and a matching CRC. Stops
    at the first torn/corrupt frame or after ``max_frames`` frames.
    """
    ends: list[int] = []
    size = len(data)
    limit = size if max_frames is None else max_frames
    pos = 0
    while len(ends) < limit and pos + _FRAME.size <= size:
        length, crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if not 0 < length <= _MAX_PAYLOAD or end > size:
            break
        if zlib.crc32(data[pos + _FRAME.size : end]) != crc:
            break
        ends.append(end)
        pos = end
    return ends


class _PartitionLog:
    """One partition: a directory of segments plus the open tail."""

    def __init__(self, directory: Path, segment_bytes: int, fsync: FsyncConfig) -> None:
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self._lock = threading.Lock()
        self._bases: list[int] = []  # sorted segment base offsets
        # base -> byte position of frames 0, stride, 2*stride, ... in the
        # segment; sealed segments present at open join on first read.
        self._marks: dict[int, list[int]] = {}
        self._tail: object | None = None  # open file object (append mode)
        self._tail_base = 0
        self._tail_records = 0
        self._tail_bytes = 0
        self._unsynced = 0
        self._last_sync = time.monotonic()
        self.truncated_bytes = 0  # torn bytes discarded at recovery
        self.directory.mkdir(parents=True, exist_ok=True)
        self._recover()

    # -- lifecycle -----------------------------------------------------------

    def _segment_path(self, base: int) -> Path:
        return self.directory / f"{base:020d}{_SEGMENT_SUFFIX}"

    def _recover(self) -> None:
        bases = sorted(
            int(p.stem) for p in self.directory.glob(f"*{_SEGMENT_SUFFIX}")
        )
        if not bases:
            self._bases = [0]
            self._tail_base = 0
            self._tail_records = 0
            self._tail_bytes = 0
            self._marks = {0: []}
            self._tail = open(self._segment_path(0), "ab")
            return
        self._bases = bases
        tail_base = bases[-1]
        path = self._segment_path(tail_base)
        data = path.read_bytes()
        ends = _frame_ends(data)
        count, valid = len(ends), (ends[-1] if ends else 0)
        if valid < len(data):
            # A crash tore the final write(s): truncate to the last frame
            # whose CRC survives. Nothing past `valid` was ever durable.
            self.truncated_bytes = len(data) - valid
            with open(path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())
        self._tail_base = tail_base
        self._tail_records = count
        self._tail_bytes = valid
        self._marks = {tail_base: [0, *ends][:count:_INDEX_STRIDE]}
        self._tail = open(path, "ab")

    def close(self) -> None:
        with self._lock:
            if self._tail is not None:
                self._tail.flush()
                self._tail.close()
                self._tail = None

    # -- append path ---------------------------------------------------------

    @property
    def end_offset(self) -> int:
        """The offset the *next* appended record will receive."""
        with self._lock:
            return self._tail_base + self._tail_records

    def append_many(self, frames: list[bytes]) -> list[int]:
        """Append encoded frames verbatim, in order; return their offsets.

        The batch is all-or-nothing: unless every element is exactly one
        frame that passes :func:`_frame_ends`, nothing is written and
        :class:`~repro.errors.CorruptRecordError` is raised.
        """
        if not frames:
            return []
        if _frame_ends(b"".join(frames)) != list(accumulate(map(len, frames))):
            raise CorruptRecordError(
                f"append to {self.directory} rejected: a frame in the batch "
                "fails its length/CRC check"
            )
        offsets: list[int] = []
        with self._lock:
            if self._tail is None:
                raise BusError(f"partition log {self.directory} is closed")
            per_record = self.fsync.policy is FsyncPolicy.PER_RECORD
            marks = self._marks[self._tail_base]
            for frame in frames:
                if (
                    self._tail_bytes
                    and self._tail_bytes + len(frame) > self.segment_bytes
                ):
                    self._rotate_locked()
                    marks = self._marks[self._tail_base]
                if self._tail_records % _INDEX_STRIDE == 0:
                    marks.append(self._tail_bytes)
                self._tail.write(frame)
                self._tail_bytes += len(frame)
                offsets.append(self._tail_base + self._tail_records)
                self._tail_records += 1
                self._unsynced += 1
                if per_record:
                    self._sync_locked()
            # Flush on every append batch so concurrent readers (and the
            # recovery scan) always see complete frames; fsync stays policy-
            # gated — flushing is ~2us, fsync is the expensive barrier.
            self._tail.flush()
            if self.fsync.policy is FsyncPolicy.GROUP and (
                self._unsynced >= self.fsync.group_records
                or time.monotonic() - self._last_sync >= self.fsync.group_interval_s
            ):
                self._sync_locked()
        return offsets

    def _rotate_locked(self) -> None:
        # Seal the old tail durably: rotation is the promise that interior
        # segments never need a recovery scan.
        self._tail.flush()
        os.fsync(self._tail.fileno())
        self._tail.close()
        new_base = self._tail_base + self._tail_records
        self._bases.append(new_base)
        self._marks[new_base] = []
        self._tail_base = new_base
        self._tail_records = 0
        self._tail_bytes = 0
        self._unsynced = 0
        self._last_sync = time.monotonic()
        self._tail = open(self._segment_path(new_base), "ab")

    def _sync_locked(self) -> None:
        self._tail.flush()
        os.fsync(self._tail.fileno())
        self._unsynced = 0
        self._last_sync = time.monotonic()

    def flush(self, sync: bool = False) -> None:
        with self._lock:
            if self._tail is None:
                return
            self._tail.flush()
            if sync:
                self._sync_locked()

    # -- read path -----------------------------------------------------------

    def read_frames(
        self, start_offset: int, max_records: int
    ) -> list[tuple[int, bytes]]:
        """Frames ``[start_offset, ...)``, at most ``max_records`` of them.

        Returns ``(offset, frame)`` pairs in offset order, each frame the
        exact bytes on disk. Reading past the end returns an empty list
        (the consumer's "caught up" signal). Each segment is read from its
        nearest indexed frame at or below the wanted offset, so the bytes
        read and frames walked are bounded by the stride plus the records
        returned, not by how far into the segment the read starts.
        """
        if start_offset < 0:
            raise ValidationError(f"offset must be >= 0 ({start_offset=})")
        if max_records <= 0:
            return []
        with self._lock:
            if self._tail is not None:
                self._tail.flush()
            bases = list(self._bases)
            end = self._tail_base + self._tail_records
        if start_offset >= end:
            return []
        out: list[tuple[int, bytes]] = []
        index = max(0, bisect_right(bases, start_offset) - 1)
        for base in bases[index:]:
            want = max_records - len(out)
            if want <= 0:
                break
            skip = max(start_offset - base, 0)
            marks = self._segment_marks(base)
            block = skip // _INDEX_STRIDE
            if block >= len(marks):
                continue  # the segment holds no valid frame at `skip`
            first = block * _INDEX_STRIDE
            # Read up to the mark past the last wanted frame, or to the end
            # of the segment when there is none; the walk stops at `end`.
            stop_block = -(-(skip + want) // _INDEX_STRIDE)
            with open(self._segment_path(base), "rb") as handle:
                handle.seek(marks[block])
                data = handle.read(
                    marks[stop_block] - marks[block]
                    if stop_block < len(marks)
                    else -1
                )
            ends = _frame_ends(data, min(skip + want, end - base) - first)
            bounds = [0, *ends]
            out.extend(
                (first + i + base, data[bounds[i] : bounds[i + 1]])
                for i in range(skip - first, len(ends))
            )
        return out

    def _segment_marks(self, base: int) -> list[int]:
        """The segment's index; a sealed segment is walked once to build it."""
        marks = self._marks.get(base)
        if marks is None:
            ends = _frame_ends(self._segment_path(base).read_bytes())
            built = [0, *ends][: len(ends) : _INDEX_STRIDE]
            with self._lock:
                marks = self._marks.setdefault(base, built)
        return marks


class SegmentLog:
    """The partitioned, durable event log behind the ingestion bus.

    Layout under ``directory``::

        meta.json                       n_partitions (guards reopen)
        partition-0000/<base>.seg       segments, named by base offset
        partition-0001/...
        checkpoints/<group>/...         consumer checkpoints (see consumer.py)

    Opening an existing directory *is* crash recovery: each partition's tail
    segment is scanned and torn suffixes are truncated. Reopening with a
    different ``n_partitions`` raises (the entity→partition hash would no
    longer route to history).
    """

    def __init__(
        self,
        directory: str | Path,
        n_partitions: int = 4,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: FsyncConfig | None = None,
    ) -> None:
        if n_partitions <= 0:
            raise ValidationError(f"n_partitions must be positive ({n_partitions=})")
        if segment_bytes <= 0:
            raise ValidationError(f"segment_bytes must be positive ({segment_bytes=})")
        self.fsync = fsync or FsyncConfig()
        self.fsync.validate()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta_path = self.directory / _META_FILE
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            stored = int(meta["n_partitions"])
            if stored != n_partitions:
                raise BusError(
                    f"log at {self.directory} has {stored} partitions; "
                    f"cannot reopen with n_partitions={n_partitions} "
                    "(entity routing would change)"
                )
        else:
            meta_path.write_text(json.dumps({"n_partitions": n_partitions}))
        self.n_partitions = n_partitions
        self._partitions = [
            _PartitionLog(
                self.directory / f"partition-{p:04d}", segment_bytes, self.fsync
            )
            for p in range(n_partitions)
        ]

    @classmethod
    def open(cls, directory: str | Path, **kwargs) -> "SegmentLog":
        """Reopen an existing log, reading ``n_partitions`` from its meta."""
        meta_path = Path(directory) / _META_FILE
        if not meta_path.exists():
            raise BusError(f"no ingestion log at {directory} (missing {_META_FILE})")
        meta = json.loads(meta_path.read_text())
        return cls(directory, n_partitions=int(meta["n_partitions"]), **kwargs)

    # -- routing -------------------------------------------------------------

    def partition_for(self, entity_id: int) -> int:
        """Stable entity→partition hash (preserves per-entity order)."""
        key = int(entity_id).to_bytes(8, "little", signed=True)
        return zlib.crc32(key) % self.n_partitions

    def _partition(self, partition: int) -> _PartitionLog:
        if not 0 <= partition < self.n_partitions:
            raise ValidationError(
                f"partition {partition} out of range [0, {self.n_partitions})"
            )
        return self._partitions[partition]

    # -- append / read -------------------------------------------------------

    def append(self, partition: int, record: BusRecord) -> int:
        """Encode and append one record; return its offset."""
        return self._partition(partition).append_many([encode_record(record)])[0]

    def append_many(self, partition: int, frames: list[bytes]) -> list[int]:
        """Append encoded frames verbatim (all-or-nothing); return offsets."""
        return self._partition(partition).append_many(frames)

    def read_frames(
        self, partition: int, start_offset: int, max_records: int = 512
    ) -> list[tuple[int, bytes]]:
        """``(offset, frame)`` pairs from ``start_offset``, bytes as on disk."""
        return self._partition(partition).read_frames(start_offset, max_records)

    def read(
        self, partition: int, start_offset: int, max_records: int = 512
    ) -> list[tuple[int, BusRecord]]:
        """``(offset, record)`` pairs: :meth:`read_frames`, decoded."""
        frames = self.read_frames(partition, start_offset, max_records)
        return [
            (offset, decode_payload(frame[_FRAME.size :])) for offset, frame in frames
        ]

    def end_offset(self, partition: int) -> int:
        return self._partition(partition).end_offset

    def end_offsets(self) -> list[int]:
        return [p.end_offset for p in self._partitions]

    def total_records(self) -> int:
        return sum(self.end_offsets())

    def truncated_bytes(self) -> int:
        """Torn bytes discarded by crash recovery at open (all partitions)."""
        return sum(p.truncated_bytes for p in self._partitions)

    # -- durability ----------------------------------------------------------

    def flush(self, sync: bool = False) -> None:
        """Flush all partitions; ``sync=True`` forces fsync regardless of policy."""
        for p in self._partitions:
            p.flush(sync=sync)

    def sync(self) -> None:
        """Explicit durability barrier: records appended so far survive a crash."""
        self.flush(sync=True)

    def close(self) -> None:
        for p in self._partitions:
            p.close()

    def __enter__(self) -> "SegmentLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

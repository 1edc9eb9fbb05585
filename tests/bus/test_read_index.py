"""Indexed reads return exactly what a whole-segment walk returns.

``read_frames`` seeks to a sparse per-segment index instead of walking
each segment from byte 0. These tests keep the whole-segment walk as a
reference and compare every start offset and several batch sizes around
the index stride, on logs that rotate several times: freshly written,
reopened (the tail index is rebuilt by recovery, sealed segments are
indexed on first read), and reopened after a torn tail was truncated and
appended to. A last test races readers against a writer.
"""

import random
import struct
import sys
import threading
import zlib

from repro.bus.log import BusRecord, SegmentLog, encode_record

SEGMENT_BYTES = 6000  # ~100 frames per segment: several strides, several segments
SIZES = (1, 63, 64, 65, 512)
_HEADER = struct.Struct("<II")


def _records(rng: random.Random, n: int, start: int = 0) -> list[bytes]:
    return [
        encode_record(
            BusRecord(
                entity_id=rng.randrange(1000),
                timestamp=float(i),
                value=rng.uniform(-1.0, 1.0),
                attributes={f"a{k}": rng.random() for k in range(rng.randrange(3))},
                sequence=i,
            )
        )
        for i in range(start, start + n)
    ]


def _append(log: SegmentLog, frames: list[bytes], rng: random.Random) -> None:
    """Append in batches of random size, so batches straddle rotations."""
    i = 0
    while i < len(frames):
        size = rng.randrange(1, 40)
        log.append_many(0, frames[i : i + size])
        i += size


def _reference(directory) -> list[tuple[int, bytes]]:
    """Every frame of partition 0, each segment walked from byte 0."""
    out: list[tuple[int, bytes]] = []
    for path in sorted((directory / "partition-0000").glob("*.seg")):
        offset, data, pos = int(path.stem), path.read_bytes(), 0
        while pos + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, pos)
            end = pos + _HEADER.size + length
            if length == 0 or end > len(data):
                break
            if zlib.crc32(data[pos + _HEADER.size : end]) != crc:
                break
            out.append((offset, data[pos:end]))
            offset, pos = offset + 1, end
    return out


def _assert_reads_match(log: SegmentLog, directory) -> None:
    frames = _reference(directory)
    n = log.end_offset(0)
    assert [offset for offset, __ in frames] == list(range(n))
    for start in range(n + 2):
        for size in SIZES:
            assert log.read_frames(0, start, size) == frames[start : start + size], (
                start,
                size,
            )


def test_reads_match_whole_segment_walk(tmp_path):
    rng = random.Random(3)
    directory = tmp_path / "log"
    frames = _records(rng, 400)
    with SegmentLog(directory, n_partitions=1, segment_bytes=SEGMENT_BYTES) as log:
        _append(log, frames, rng)
        assert len(list((directory / "partition-0000").glob("*.seg"))) >= 4
        _assert_reads_match(log, directory)

    # Reopened: recovery rebuilds the tail's index; the sealed segments
    # are indexed on their first read.
    with SegmentLog(directory, n_partitions=1, segment_bytes=SEGMENT_BYTES) as log:
        _assert_reads_match(log, directory)
        _append(log, _records(rng, 100, start=400), rng)
        _assert_reads_match(log, directory)

    # A torn tail: recovery truncates it, and appends resume from there.
    tail = sorted((directory / "partition-0000").glob("*.seg"))[-1]
    with open(tail, "r+b") as handle:
        handle.truncate(tail.stat().st_size - 5)
    with SegmentLog(directory, n_partitions=1, segment_bytes=SEGMENT_BYTES) as log:
        assert log.truncated_bytes() > 0
        assert log.end_offset(0) == 499
        _assert_reads_match(log, directory)
        _append(log, _records(rng, 150, start=499), rng)
        _assert_reads_match(log, directory)


def test_reads_racing_appends_see_only_whole_frames(tmp_path):
    """Readers racing a writer across rotations get the appended bytes."""
    rng = random.Random(5)
    frames = _records(rng, 3000)
    failures: list[str] = []
    done = threading.Event()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SegmentLog(
            tmp_path / "log", n_partitions=1, segment_bytes=SEGMENT_BYTES
        ) as log:

            def write() -> None:
                try:
                    _append(log, frames, random.Random(6))
                finally:
                    done.set()

            def read(seed: int) -> None:
                reader = random.Random(seed)
                while not done.is_set():
                    end = log.end_offset(0)
                    start, size = reader.randrange(end + 1), reader.choice(SIZES)
                    got = log.read_frames(0, start, size)
                    # Records appended after `end` was taken may come too.
                    stop = start + len(got)
                    if stop < min(start + size, end) or got != [
                        (offset, frames[offset]) for offset in range(start, stop)
                    ]:
                        failures.append(f"read {size} at {start} (end {end})")
                        return

            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read, args=(seed,)) for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert log.end_offset(0) == len(frames)
    finally:
        sys.setswitchinterval(previous)
    assert failures == []

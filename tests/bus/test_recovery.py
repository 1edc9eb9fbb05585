"""Crash-recovery properties of the segment log + checkpointed consumers.

The acceptance bar for the ingestion bus: after any crash —

* a torn final record (partial write at the tail),
* a corrupted byte anywhere in the tail segment,
* a process death between sink writes and the offset commit —

the log recovers every CRC-valid prefix record, consumers resume from
their checkpoint with **no gaps and no duplicates**, and nothing that was
acknowledged (fsync'd) is lost.
"""

import random

import pytest

from repro.bus.consumer import Consumer, DedupeWindow
from repro.bus.log import BusRecord, FsyncConfig, FsyncPolicy, SegmentLog, encode_record


def rec(i, entity=1):
    return BusRecord(entity_id=entity, timestamp=float(i), value=float(i), sequence=i)


def tail_segment(path, partition=0):
    return sorted((path / f"partition-{partition:04d}").glob("*.seg"))[-1]


def surviving_values(path, n_partitions=1):
    log = SegmentLog(path, n_partitions=n_partitions)
    try:
        out = [r.value for __, r in log.read(0, 0, 10**9)]
    finally:
        log.close()
    return out


class TestTornTail:
    def test_truncation_keeps_crc_valid_prefix(self, tmp_path):
        path = tmp_path / "log"
        with SegmentLog(path, n_partitions=1) as log:
            log.append_many(0, [encode_record(rec(i)) for i in range(50)])
        seg = tail_segment(path)
        size = seg.stat().st_size
        frame = len(encode_record(rec(0)))
        # Tear the last record in half.
        with open(seg, "r+b") as handle:
            handle.truncate(size - frame // 2)
        log = SegmentLog(path, n_partitions=1)
        assert log.truncated_bytes() > 0
        assert log.end_offset(0) == 49
        assert [r.value for __, r in log.read(0, 0, 100)] == [float(i) for i in range(49)]
        # The log keeps working: new appends take the freed offset.
        assert log.append(0, rec(99)) == 49
        log.close()

    def test_corrupt_byte_mid_tail_truncates_from_there(self, tmp_path):
        path = tmp_path / "log"
        with SegmentLog(path, n_partitions=1) as log:
            log.append_many(0, [encode_record(rec(i)) for i in range(20)])
        seg = tail_segment(path)
        frame = len(encode_record(rec(0)))
        # Flip a payload byte inside record 10: CRC fails there, records
        # 0..9 survive, 10..19 are discarded (never acknowledged as clean).
        data = bytearray(seg.read_bytes())
        data[10 * frame + 12] ^= 0xFF
        seg.write_bytes(bytes(data))
        log = SegmentLog(path, n_partitions=1)
        assert log.end_offset(0) == 10
        assert [r.value for __, r in log.read(0, 0, 100)] == [float(i) for i in range(10)]
        log.close()

    def test_acknowledged_records_survive_torn_suffix(self, tmp_path):
        """fsync'd (acknowledged) records are never among the torn ones."""
        path = tmp_path / "log"
        log = SegmentLog(
            path, n_partitions=1, fsync=FsyncConfig(policy=FsyncPolicy.NONE)
        )
        log.append_many(0, [encode_record(rec(i)) for i in range(30)])
        log.sync()  # explicit ack barrier: 30 records durable
        log.append_many(0, [encode_record(rec(i)) for i in range(30, 40)])  # unacknowledged
        log.close()
        # Crash tears the unacknowledged suffix.
        seg = tail_segment(path)
        frame = len(encode_record(rec(0)))
        with open(seg, "r+b") as handle:
            handle.truncate(35 * frame + 3)
        survivors = surviving_values(path)
        assert survivors[:30] == [float(i) for i in range(30)]  # zero acked loss
        assert len(survivors) == 35  # clean unacked prefix also survives

    @pytest.mark.parametrize("seed", range(8))
    def test_random_truncation_property(self, tmp_path, seed):
        self._random_truncation_case(tmp_path, seed, n_records=60)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(25))
    def test_random_truncation_property_large(self, tmp_path, seed):
        self._random_truncation_case(tmp_path, seed, n_records=5000)

    @staticmethod
    def _random_truncation_case(tmp_path, seed, n_records):
        """Truncate the tail at a uniformly random byte; the longest prefix
        of complete frames must survive, bit-exact, and nothing else."""
        rng = random.Random(seed)
        path = tmp_path / f"log-{seed}"
        with SegmentLog(path, n_partitions=1) as log:
            records = [
                rec(i) if rng.random() < 0.5 else BusRecord(
                    entity_id=i % 7,
                    timestamp=float(i),
                    value=rng.uniform(-10, 10),
                    attributes={"k": rng.uniform(0, 1)},
                    sequence=i,
                )
                for i in range(n_records)
            ]
            log.append_many(0, [encode_record(r) for r in records])
        seg = tail_segment(path)
        data = seg.read_bytes()
        cut = rng.randrange(0, len(data) + 1)
        with open(seg, "r+b") as handle:
            handle.truncate(cut)
        # Expected survivors: frames wholly inside [0, cut). Frames are
        # variable-length (attributes), so walk the original segment image
        # frame by frame; records in this segment start at partition index
        # `base` (the segment's filename).
        base = int(seg.stem)
        expected = []
        index = base
        pos = 0
        while pos < len(data):
            frame_len = 8 + int.from_bytes(data[pos : pos + 4], "little")
            if pos + frame_len <= cut:
                expected.append(records[index].value)
                index += 1
                pos += frame_len
            else:
                break
        log = SegmentLog(path, n_partitions=1)
        try:
            got = [r.value for __, r in log.read(base, base, 10**9)]
            assert got == expected
            assert log.end_offset(0) == base + len(expected)
        finally:
            log.close()


class TestConsumerRecovery:
    def test_resume_from_checkpoint_no_gaps_no_duplicates(self, tmp_path):
        path = tmp_path / "log"
        with SegmentLog(path, n_partitions=3, segment_bytes=512) as log:
            for i in range(200):
                log.append(i % 3, rec(i, entity=i))
            log.sync()

            seen: list[tuple[int, int]] = []
            consumer = Consumer(log, group="g1")
            for __ in range(3):
                batch = consumer.poll(40)
                seen.extend((c.partition, c.offset) for c in batch)
                consumer.commit()
            # "Crash": drop the consumer object; a new member of the same
            # group resumes exactly where the last commit left off.
            consumer = Consumer(log, group="g1")
            while True:
                batch = consumer.poll(64)
                if not batch:
                    break
                seen.extend((c.partition, c.offset) for c in batch)
                consumer.commit()

        expected = set()
        for partition in range(3):
            count = 200 // 3 + (1 if partition < 200 % 3 else 0)
            expected |= {(partition, o) for o in range(count)}
        assert len(seen) == len(set(seen)) == 200  # no duplicates
        assert set(seen) == expected  # no gaps

    def test_uncommitted_records_are_redelivered(self, tmp_path):
        path = tmp_path / "log"
        with SegmentLog(path, n_partitions=1) as log:
            log.append_many(0, [encode_record(rec(i)) for i in range(10)])
            consumer = Consumer(log, group="g")
            first = consumer.poll(4)
            consumer.commit()
            second = consumer.poll(4)  # processed but NOT committed
            assert [c.offset for c in second] == [4, 5, 6, 7]
            # Crash before commit: redelivery of exactly the uncommitted ones.
            reborn = Consumer(log, group="g")
            redelivered = reborn.poll(100)
            assert [c.offset for c in redelivered] == [4, 5, 6, 7, 8, 9]
            assert [c.offset for c in first] == [0, 1, 2, 3]

    def test_checkpoint_beyond_truncated_log_is_clamped(self, tmp_path):
        path = tmp_path / "log"
        with SegmentLog(path, n_partitions=1) as log:
            log.append_many(0, [encode_record(rec(i)) for i in range(20)])
            consumer = Consumer(log, group="g")
            consumer.poll(100)
            consumer.commit()  # committed next-offset = 20
        # Crash tears the last 5 (they were never acknowledged).
        seg = tail_segment(path)
        frame = len(encode_record(rec(0)))
        with open(seg, "r+b") as handle:
            handle.truncate(15 * frame)
        with SegmentLog(path, n_partitions=1) as log:
            assert log.end_offset(0) == 15
            consumer = Consumer(log, group="g")
            assert consumer.position(0) == 15  # clamped, not stranded at 20
            log.append(0, rec(100))
            assert [c.offset for c in consumer.poll(10)] == [15]

    def test_dedupe_window_suppresses_redelivery(self):
        window = DedupeWindow()
        assert not window.seen(0, 0)
        window.mark(0, 0)
        window.mark(0, 1)
        assert window.seen(0, 0)
        assert window.seen(0, 1)
        assert not window.seen(0, 2)
        assert not window.seen(1, 0)  # partitions independent
        assert window.duplicates_seen == 2

    def test_dedupe_window_out_of_order_marks(self):
        window = DedupeWindow(window=4)
        window.mark(0, 5)
        assert window.seen(0, 5)
        assert not window.seen(0, 3)
        window.mark(0, 0)
        window.mark(0, 1)
        assert window.seen(0, 1)
        # Watermark advances over the contiguous prefix as gaps fill.
        for offset in (2, 3, 4):
            window.mark(0, offset)
        assert all(window.seen(0, o) for o in range(6))

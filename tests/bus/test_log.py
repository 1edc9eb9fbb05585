"""Tests for repro.bus.log: framing, partitions, segments, fsync policies."""

import pytest

from repro.bus.log import (
    BusRecord,
    FsyncConfig,
    FsyncPolicy,
    SegmentLog,
    decode_payload,
    encode_record,
)
from repro.errors import BusError, CorruptRecordError, ValidationError


def rec(entity=1, ts=1.0, value=2.0, attrs=None, seq=0):
    return BusRecord(
        entity_id=entity,
        timestamp=ts,
        value=value,
        attributes=attrs or {},
        sequence=seq,
    )


class TestFraming:
    def test_roundtrip(self):
        record = rec(entity=-7, ts=123.5, value=-0.25, attrs={"a": 1.5}, seq=42)
        frame = encode_record(record)
        assert decode_payload(frame[8:]) == record

    def test_roundtrip_no_attributes(self):
        record = rec()
        assert decode_payload(encode_record(record)[8:]) == record


class TestSegmentLog:
    def test_append_read_roundtrip(self, tmp_path):
        with SegmentLog(tmp_path / "log", n_partitions=2) as log:
            offsets = [log.append(0, rec(value=float(i))) for i in range(10)]
            assert offsets == list(range(10))
            got = log.read(0, 0, 100)
            assert [o for o, _ in got] == offsets
            assert [r.value for _, r in got] == [float(i) for i in range(10)]

    def test_partitions_are_independent(self, tmp_path):
        with SegmentLog(tmp_path / "log", n_partitions=3) as log:
            log.append(0, rec(value=1.0))
            log.append(1, rec(value=2.0))
            log.append(1, rec(value=3.0))
            assert log.end_offsets() == [1, 2, 0]
            assert log.read(2, 0) == []
            assert [r.value for _, r in log.read(1, 0)] == [2.0, 3.0]

    def test_read_from_middle_and_past_end(self, tmp_path):
        with SegmentLog(tmp_path / "log", n_partitions=1) as log:
            log.append_many(0, [encode_record(rec(value=float(i))) for i in range(20)])
            got = log.read(0, 15, 100)
            assert [o for o, _ in got] == list(range(15, 20))
            assert log.read(0, 20) == []
            assert log.read(0, 999) == []

    def test_max_records_respected(self, tmp_path):
        with SegmentLog(tmp_path / "log", n_partitions=1) as log:
            log.append_many(0, [encode_record(rec(value=float(i))) for i in range(50)])
            assert len(log.read(0, 0, 7)) == 7

    def test_segment_rotation_and_cross_segment_read(self, tmp_path):
        # Tiny segments force many rotations; reads must stitch them back.
        with SegmentLog(tmp_path / "log", n_partitions=1, segment_bytes=128) as log:
            n = 100
            log.append_many(0, [encode_record(rec(value=float(i))) for i in range(n)])
            segments = list((tmp_path / "log" / "partition-0000").glob("*.seg"))
            assert len(segments) > 1
            got = log.read(0, 0, n)
            assert [r.value for _, r in got] == [float(i) for i in range(n)]
            # Read starting inside a later segment.
            assert [r.value for _, r in log.read(0, 42, 5)] == [
                42.0, 43.0, 44.0, 45.0,
                46.0,
            ]

    def test_reopen_preserves_offsets(self, tmp_path):
        path = tmp_path / "log"
        with SegmentLog(path, n_partitions=2, segment_bytes=256) as log:
            log.append_many(0, [encode_record(rec(value=float(i))) for i in range(30)])
        with SegmentLog.open(path) as log:
            assert log.n_partitions == 2
            assert log.end_offset(0) == 30
            next_offset = log.append(0, rec(value=99.0))
            assert next_offset == 30
            assert log.read(0, 29, 5)[-1][1].value == 99.0

    def test_reopen_with_different_partition_count_raises(self, tmp_path):
        path = tmp_path / "log"
        SegmentLog(path, n_partitions=4).close()
        with pytest.raises(BusError):
            SegmentLog(path, n_partitions=8)

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(BusError):
            SegmentLog.open(tmp_path / "nothing-here")

    def test_partition_for_is_stable_and_spreads(self, tmp_path):
        with SegmentLog(tmp_path / "log", n_partitions=8) as log:
            routed = {e: log.partition_for(e) for e in range(1000)}
            # Stability: same entity, same partition.
            assert all(log.partition_for(e) == p for e, p in routed.items())
            counts = [0] * 8
            for p in routed.values():
                counts[p] += 1
            # Rough balance: every partition gets something substantial.
            assert min(counts) > 1000 / 8 / 3

    @pytest.mark.parametrize(
        "policy", [FsyncPolicy.NONE, FsyncPolicy.GROUP, FsyncPolicy.PER_RECORD]
    )
    def test_fsync_policies_accept_appends(self, tmp_path, policy):
        config = FsyncConfig(policy=policy, group_records=4, group_interval_s=0.01)
        with SegmentLog(tmp_path / "log", n_partitions=1, fsync=config) as log:
            log.append_many(0, [encode_record(rec(value=float(i))) for i in range(10)])
            log.sync()
            assert log.end_offset(0) == 10

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            SegmentLog(tmp_path / "a", n_partitions=0)
        with pytest.raises(ValidationError):
            SegmentLog(tmp_path / "b", segment_bytes=0)
        with pytest.raises(ValidationError):
            FsyncConfig(group_records=0).validate()
        with SegmentLog(tmp_path / "c", n_partitions=1) as log:
            with pytest.raises(ValidationError):
                log.append(5, rec())
            with pytest.raises(ValidationError):
                log.read(0, -1)

    def test_total_records_and_truncated_bytes_clean(self, tmp_path):
        with SegmentLog(tmp_path / "log", n_partitions=2) as log:
            log.append_many(0, [encode_record(rec())] * 3)
            log.append_many(1, [encode_record(rec())] * 4)
            assert log.total_records() == 7
            assert log.truncated_bytes() == 0


class TestFramePath:
    def test_read_frames_returns_the_appended_bytes(self, tmp_path):
        frames = [encode_record(rec(value=float(i), attrs={"a": i})) for i in range(12)]
        with SegmentLog(tmp_path / "log", n_partitions=1, segment_bytes=256) as log:
            assert log.append_many(0, frames) == list(range(12))
            assert log.read_frames(0, 0, 100) == list(enumerate(frames))
            assert log.read_frames(0, 7, 3) == [(i, frames[i]) for i in (7, 8, 9)]
            assert log.read_frames(0, 12) == []

    @pytest.mark.parametrize(
        "damage",
        [
            lambda f: f[:-1] + bytes([f[-1] ^ 0xFF]),  # payload bit flip
            lambda f: f[:-3],  # short frame
            lambda f: f + b"\x00",  # trailing garbage
            lambda f: b"",  # empty element
        ],
        ids=["flipped", "short", "trailing", "empty"],
    )
    def test_append_many_rejects_a_damaged_batch_whole(self, tmp_path, damage):
        good = encode_record(rec(value=1.0))
        with SegmentLog(tmp_path / "log", n_partitions=1) as log:
            log.append(0, rec(value=0.0))
            with pytest.raises(CorruptRecordError):
                log.append_many(0, [good, damage(good), good])
            assert log.end_offset(0) == 1
            assert [r.value for __, r in log.read(0, 0)] == [0.0]

    def test_append_many_rejects_misaligned_elements(self, tmp_path):
        """Two valid frames split across list elements at the wrong byte
        still form a valid image; each element must be one frame."""
        image = encode_record(rec(value=1.0)) + encode_record(rec(value=2.0))
        with SegmentLog(tmp_path / "log", n_partitions=1) as log:
            with pytest.raises(CorruptRecordError):
                log.append_many(0, [image[:10], image[10:]])
            assert log.end_offset(0) == 0

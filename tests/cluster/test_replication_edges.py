"""Follower catch-up edge cases: torn tails, rotation boundaries, dupes.

These are the crash shapes that corrupt replicas in real systems:

* a follower dies mid-ship with a half-written frame at its tail — the
  restart must truncate the torn bytes and resume shipping from the
  durable prefix;
* a follower stops with its log ending exactly on a segment-rotation
  boundary — the "off by one segment" trap for offset bookkeeping;
* the network delivers the same frames twice (leader retry after a lost
  ack) — the log-level skip plus the sink's DedupeWindow must keep the
  store effectively-once;
* a shipped frame is damaged in flight — the follower must refuse the
  whole batch before its log sees a byte.
"""

import struct
import zlib
from pathlib import Path

import pytest

from repro.bus import BusRecord, ConsumedRecord, DedupeWindow, encode_record
from repro.bus.sinks import OnlineStoreSink
from repro.cluster import ClusterNode, NodeConfig, NodeRole
from repro.errors import CorruptRecordError
from repro.runtime import await_condition
from repro.storage.online import OnlineStore

from tests.cluster.conftest import assert_logs_identical, make_pair, segment_files


def _put(transport, entity_id, value, **extra):
    return transport.request(
        "test", "L", "put", {"entity_id": entity_id, "value": value, **extra}
    )


def _restart_follower(old: ClusterNode, transport) -> ClusterNode:
    """A fresh node over the same data_dir — the crash/restart path."""
    node = ClusterNode(
        old.config, transport, role=NodeRole.FOLLOWER
    )
    node.start()
    return node


class TestTornTail:
    def test_torn_tail_on_follower_truncates_and_reships(self, tmp_path):
        """Kill a follower with garbage half-frame bytes at its tail:
        reopen truncates them, reconcile re-ships, parity returns."""
        transport, leader, follower = make_pair(tmp_path, min_replica_acks=0)
        try:
            for eid in range(60):
                _put(transport, eid, float(eid))
            assert follower.log.end_offsets() == leader.log.end_offsets()
            # crash the follower...
            transport.deregister("F")
            follower.stop()
            # ...with a torn half-frame at the tail of partition 0
            partition_dir = (
                Path(follower.config.data_dir) / "log" / "partition-0000"
            )
            tail = sorted(partition_dir.glob("*.seg"))[-1]
            with tail.open("ab") as f:
                f.write(b"\x2a\x00\x00\x00\x99")  # length says 42, 1 byte
            # leader keeps writing while the follower is down
            for eid in range(60, 100):
                _put(transport, eid, float(eid))

            follower = _restart_follower(follower, transport)
            assert follower.log.truncated_bytes() == 5
            assert await_condition(
                lambda: follower.log.end_offsets()
                == leader.log.end_offsets(),
                timeout_s=5.0,
            )
            assert_logs_identical(leader, follower)
            assert follower.wait_applied()
            assert follower.store.read("features", 80)["value"] == 80.0
        finally:
            leader.stop()
            follower.stop()

    def test_torn_whole_frames_at_tail_are_reshipped(self, tmp_path):
        """Truncating *complete* records off the follower's tail (disk
        rollback, lost fsync) lowers its end offset; the gap protocol
        backs the leader up to the follower's real position."""
        transport, leader, follower = make_pair(tmp_path, min_replica_acks=0)
        try:
            for eid in range(40):
                _put(transport, eid, 1.0)
            transport.deregister("F")
            follower.stop()
            partition_dir = (
                Path(follower.config.data_dir) / "log" / "partition-0000"
            )
            tail = sorted(partition_dir.glob("*.seg"))[-1]
            record = BusRecord(entity_id=0, timestamp=1.0, value=1.0)
            frame_len = len(encode_record(record))
            tail.write_bytes(tail.read_bytes()[: -2 * frame_len])

            follower = _restart_follower(follower, transport)
            assert sum(follower.log.end_offsets()) == 38
            assert await_condition(
                lambda: follower.log.end_offsets()
                == leader.log.end_offsets(),
                timeout_s=5.0,
            )
            assert_logs_identical(leader, follower)
        finally:
            leader.stop()
            follower.stop()


class TestRotationBoundary:
    def test_restart_at_exact_segment_rotation_boundary(self, tmp_path):
        """Stop a follower with its log ending exactly where a segment
        rotates; catch-up must create the next segment at the same base
        offset the leader chose — byte-identical files, same names."""
        record = BusRecord(entity_id=0, timestamp=1.0, value=1.0)
        frame_len = len(encode_record(record))
        # exactly 4 records per segment, single partition for control
        transport, leader, follower = make_pair(
            tmp_path,
            n_partitions=1,
            min_replica_acks=0,
            segment_bytes=4 * frame_len,
        )
        try:
            for eid in range(8):  # two exactly-full segments
                _put(transport, eid, 1.0, timestamp=1.0)
            assert follower.log.end_offsets() == [8]
            assert follower.wait_applied()  # checkpoint commits at 8
            transport.deregister("F")
            follower.stop()
            follower_segments = sorted(
                (Path(follower.config.data_dir) / "log" / "partition-0000")
                .glob("*.seg")
            )
            assert len(follower_segments) == 2  # boundary: no tail started

            for eid in range(8, 14):
                _put(transport, eid, 2.0, timestamp=2.0)

            follower = _restart_follower(follower, transport)
            # the consumer-group checkpoint held: resume from 8, not 0
            assert follower.consumer.committed(0) == 8
            assert await_condition(
                lambda: follower.log.end_offsets() == [14], timeout_s=5.0
            )
            assert_logs_identical(leader, follower)
            assert follower.wait_applied()
            # only the post-boundary records were pumped after restart
            assert follower.worker.records_pumped.value == 6
            assert follower.store.read("features", 13)["value"] == 2.0
        finally:
            leader.stop()
            follower.stop()


class TestDuplicateDelivery:
    def test_duplicate_replicate_requests_apply_once(self, pair):
        """The same frames delivered twice (leader retry after lost ack)
        append nothing the second time."""
        transport, leader, follower = pair
        records = [
            BusRecord(entity_id=2 * i, timestamp=1.0, value=float(i))
            for i in range(6)
        ]
        partition = leader.log.partition_for(0)
        frames = [encode_record(r) for r in records]
        payload = {"partition": partition, "base_offset": 0, "frames": frames}
        first = transport.request("test", "F", "replicate", payload)
        assert first == {"status": "ok", "end_offset": 6, "applied": 6}
        second = transport.request("test", "F", "replicate", payload)
        assert second == {"status": "ok", "end_offset": 6, "applied": 0}
        assert follower.duplicate_frames.value == 6
        assert follower.log.end_offset(partition) == 6

    def test_overlapping_delivery_applies_only_the_fresh_suffix(self, pair):
        transport, __, follower = pair
        records = [
            BusRecord(entity_id=2 * i, timestamp=1.0, value=float(i))
            for i in range(8)
        ]
        frames = [encode_record(r) for r in records]
        partition = 0
        transport.request(
            "test",
            "F",
            "replicate",
            {"partition": partition, "base_offset": 0, "frames": frames[:5]},
        )
        # overlap [3, 8): 2 duplicates skipped, 3 fresh applied
        response = transport.request(
            "test",
            "F",
            "replicate",
            {"partition": partition, "base_offset": 3, "frames": frames[3:]},
        )
        assert response == {"status": "ok", "end_offset": 8, "applied": 3}
        assert follower.duplicate_frames.value == 2

    def test_future_frames_report_gap(self, pair):
        transport, __, follower = pair
        record = BusRecord(entity_id=0, timestamp=1.0, value=1.0)
        response = transport.request(
            "test",
            "F",
            "replicate",
            {
                "partition": 0,
                "base_offset": 10,
                "frames": [encode_record(record)],
            },
        )
        assert response["status"] == "gap"
        assert response["end_offset"] == 0
        assert follower.log.end_offset(0) == 0

    def test_dedupe_window_keeps_store_effectively_once(self):
        """The sink-level guard: replaying the same (partition, offset)
        batch into the store sink applies nothing the second time even
        when the payload would change the value."""
        store = OnlineStore()
        store.create_namespace("features")
        sink = OnlineStoreSink(store, "features", dedupe=DedupeWindow())
        batch = [
            ConsumedRecord(
                partition=0,
                offset=i,
                record=BusRecord(entity_id=i, timestamp=2.0, value=1.0),
            )
            for i in range(5)
        ]
        sink.apply_batch(batch)
        replay = [
            ConsumedRecord(
                partition=0,
                offset=c.offset,
                record=BusRecord(
                    entity_id=c.record.entity_id,
                    timestamp=3.0,  # would win last-event-time otherwise
                    value=999.0,
                ),
            )
            for c in batch
        ]
        sink.apply_batch(replay)
        for eid in range(5):
            assert store.read("features", eid)["value"] == 1.0


def _flip_payload_byte(frame: bytes) -> bytes:
    return frame[:-1] + bytes([frame[-1] ^ 0x01])


def _zero_length(frame: bytes) -> bytes:
    # a well-formed header for an empty payload, CRC included
    return struct.pack("<II", 0, zlib.crc32(b""))


class TestDamagedFrame:
    @pytest.mark.parametrize(
        "damage",
        [
            _flip_payload_byte,
            lambda frame: frame[:-4],
            lambda frame: frame + b"\x00garbage",
            _zero_length,
        ],
        ids=["flipped-payload-byte", "short", "trailing-garbage", "zero-length"],
    )
    def test_damaged_frame_is_refused_and_writes_nothing(self, pair, damage):
        """Fail closed: a replicate batch carrying one damaged frame
        raises, and the follower's log keeps its end offset and bytes."""
        transport, __, follower = pair
        frames = [
            encode_record(BusRecord(entity_id=i, timestamp=1.0, value=float(i)))
            for i in range(4)
        ]
        transport.request(
            "test", "F", "replicate",
            {"partition": 0, "base_offset": 0, "frames": frames[:2]},
        )
        log_dir = Path(follower.config.data_dir) / "log"
        follower.log.flush()
        before = segment_files(log_dir)
        with pytest.raises(CorruptRecordError):
            transport.request(
                "test", "F", "replicate",
                {
                    "partition": 0,
                    "base_offset": 2,
                    "frames": [frames[2], damage(frames[3])],
                },
            )
        assert follower.log.end_offset(0) == 2
        follower.log.flush()
        assert segment_files(log_dir) == before

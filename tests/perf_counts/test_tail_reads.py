"""Counted witnesses: frames walked per tail read, checkpoints per commit.

The apply pump polls the tail of each partition and commits after every
settle. Both costs are counted here, with no timing: a tail read walks a
bounded number of frames however deep into its segment it starts, and a
commit writes only the checkpoints whose cursor moved.
"""

import pytest

import repro.bus.log
from repro.bus import BusRecord, CheckpointStore, Consumer, SegmentLog
from repro.bus.log import _INDEX_STRIDE, encode_record


def _frames(n: int) -> list[bytes]:
    return [
        encode_record(
            BusRecord(entity_id=i, timestamp=float(i), value=float(i), sequence=i)
        )
        for i in range(n)
    ]


@pytest.fixture
def walked(monkeypatch) -> list[int]:
    """Frames accepted by the frame walker, one entry per call."""
    counts: list[int] = []
    real = repro.bus.log._frame_ends

    def counted(*args, **kwargs):
        ends = real(*args, **kwargs)
        counts.append(len(ends))
        return ends

    monkeypatch.setattr(repro.bus.log, "_frame_ends", counted)
    return counts


@pytest.mark.parametrize("segment_bytes", [4 << 20, 4096], ids=["one", "rotated"])
@pytest.mark.parametrize("n", [10, 1_000, 10_000])
def test_tail_read_walks_at_most_one_stride(tmp_path, walked, n, segment_bytes):
    with SegmentLog(tmp_path / "log", n_partitions=1, segment_bytes=segment_bytes) as log:
        log.append_many(0, _frames(n))
        walked.clear()
        got = log.read_frames(0, n - 1, 512)
    assert [offset for offset, __ in got] == [n - 1]
    assert sum(walked) <= _INDEX_STRIDE + 1


@pytest.fixture
def checkpoint_writes(monkeypatch) -> list[tuple[str, int, int]]:
    writes: list[tuple[str, int, int]] = []
    real = CheckpointStore.commit

    def counted(self, group, partition, next_offset):
        writes.append((group, partition, next_offset))
        return real(self, group, partition, next_offset)

    monkeypatch.setattr(CheckpointStore, "commit", counted)
    return writes


def test_commit_writes_only_moved_checkpoints(tmp_path, checkpoint_writes):
    with SegmentLog(tmp_path / "log", n_partitions=2) as log:
        log.append_many(0, _frames(2))
        log.append_many(1, _frames(2))
        consumer = Consumer(log, group="g")
        assert [(c.partition, c.offset) for c in consumer.poll(1)] == [(0, 0)]
        assert consumer.commit() == {0: 1, 1: 0}
        assert checkpoint_writes == [("g", 0, 1)]

        checkpoint_writes.clear()
        assert consumer.commit() == {0: 1, 1: 0}
        assert checkpoint_writes == []

"""Tests for repro.bus.consumer: polling, commits, lag, checkpoints."""

import json

import pytest

from repro.bus.consumer import CheckpointStore, Consumer
from repro.bus.log import BusRecord, SegmentLog, encode_record
from repro.bus.metrics import BusMetrics
from repro.errors import ValidationError


def rec(i):
    return BusRecord(entity_id=i, timestamp=float(i), value=float(i), sequence=i)


@pytest.fixture
def log(tmp_path):
    with SegmentLog(tmp_path / "log", n_partitions=2) as segment_log:
        segment_log.append_many(0, [encode_record(rec(i)) for i in range(10)])
        segment_log.append_many(1, [encode_record(rec(i)) for i in range(5)])
        yield segment_log


class TestConsumer:
    def test_poll_returns_offset_ordered_per_partition(self, log):
        consumer = Consumer(log, group="g")
        batch = consumer.poll(100)
        per_partition = {0: [], 1: []}
        for consumed in batch:
            per_partition[consumed.partition].append(consumed.offset)
        assert per_partition[0] == list(range(10))
        assert per_partition[1] == list(range(5))

    def test_poll_respects_max_records(self, log):
        consumer = Consumer(log, group="g")
        assert len(consumer.poll(4)) == 4
        assert len(consumer.poll(100)) == 11  # the rest

    def test_round_robin_rotates_partitions(self, log):
        consumer = Consumer(log, group="g")
        first = consumer.poll(3)
        second = consumer.poll(3)
        # Different polls start at different partitions, so both partitions
        # appear early rather than partition 0 monopolizing every batch.
        assert {c.partition for c in first + second} == {0, 1}

    def test_commit_and_resume(self, log):
        consumer = Consumer(log, group="g")
        consumer.poll(6)
        committed = consumer.commit()
        assert sum(committed.values()) == 6
        fresh = Consumer(log, group="g")
        remaining = fresh.poll(100)
        assert len(remaining) == 15 - 6

    def test_groups_are_independent(self, log):
        a = Consumer(log, group="a")
        a.poll(100)
        a.commit()
        b = Consumer(log, group="b")
        assert len(b.poll(100)) == 15

    def test_lag_and_metrics(self, log):
        metrics = BusMetrics()
        consumer = Consumer(log, group="g", metrics=metrics)
        assert consumer.total_lag() == 15
        consumer.poll(9)
        lags = consumer.lag()
        assert sum(lags.values()) == 6
        assert metrics.lags() == {p: lag for p, lag in lags.items()}
        assert metrics.consumed.value == 9
        log.append(0, rec(99))
        assert consumer.total_lag() == 7

    def test_seek(self, log):
        consumer = Consumer(log, group="g")
        consumer.poll(100)
        consumer.seek(0, 8)
        assert [c.offset for c in consumer.poll(100) if c.partition == 0] == [8, 9]
        consumer.seek_to_beginning()
        assert len(consumer.poll(100)) == 15
        with pytest.raises(ValidationError):
            consumer.seek(0, -1)

    def test_empty_group_name_rejected(self, log):
        with pytest.raises(ValidationError):
            Consumer(log, group="")


class TestCheckpointStore:
    def test_load_defaults_to_zero(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.load("g", 0) == 0

    def test_commit_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.commit("g", 3, 42)
        assert store.load("g", 3) == 42
        store.commit("g", 3, 43)
        assert store.load("g", 3) == 43

    def test_commit_is_atomic_rename(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.commit("g", 0, 7)
        path = tmp_path / "g" / "partition-0000.json"
        assert json.loads(path.read_text()) == {"next_offset": 7}
        assert not path.with_suffix(".json.tmp").exists()  # no tmp droppings

    def test_corrupt_checkpoint_treated_as_zero(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.commit("g", 0, 7)
        (tmp_path / "g" / "partition-0000.json").write_text("{not json")
        assert store.load("g", 0) == 0

    def test_groups_listing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.commit("beta", 0, 1)
        store.commit("alpha", 0, 1)
        assert store.groups() == ["alpha", "beta"]

    def test_negative_offset_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            CheckpointStore(tmp_path).commit("g", 0, -1)

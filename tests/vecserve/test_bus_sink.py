"""Tests for repro.vecserve.bus_sink — embedding upserts over the bus."""

import numpy as np
import pytest

from repro.bus.consumer import ConsumedRecord, Consumer
from repro.bus.log import SegmentLog
from repro.bus.producer import Producer
from repro.errors import ValidationError
from repro.vecserve import (
    VectorService,
    VectorUpsertSink,
    decode_record,
    tombstone_record,
    upsert_record,
)


def _consumed(offset, record, partition=0):
    return ConsumedRecord(partition=partition, offset=offset, record=record)


class TestEncoding:
    def test_upsert_roundtrip(self):
        vector = np.asarray([0.5, -1.5, 2.0])
        record = upsert_record(42, vector, timestamp=10.0)
        entity, decoded = decode_record(record)
        assert entity == 42
        np.testing.assert_allclose(decoded, vector)
        assert record.entity_id == 42  # partitions by entity: order survives

    def test_tombstone_roundtrip(self):
        entity, decoded = decode_record(tombstone_record(7, timestamp=1.0))
        assert entity == 7
        assert decoded is None

    def test_empty_vector_rejected(self):
        with pytest.raises(ValidationError):
            upsert_record(1, np.empty(0), timestamp=0.0)

    def test_malformed_record_rejected(self):
        record = upsert_record(1, np.asarray([1.0, 2.0]), timestamp=0.0)
        broken = type(record)(
            entity_id=record.entity_id,
            timestamp=record.timestamp,
            value=5.0,  # claims dim 5, carries 2
            attributes=record.attributes,
        )
        with pytest.raises(ValidationError):
            decode_record(broken)


class TestSinkSemantics:
    @pytest.fixture()
    def served(self):
        rng = np.random.default_rng(0)
        service = VectorService(n_workers=2)
        service.serve_matrix(
            "emb", 1,
            np.arange(50, dtype=np.int64), rng.normal(size=(50, 4)),
            n_shards=2, sample_rate=0.0,
        )
        yield service
        service.close()

    def test_applies_upserts_and_tombstones(self, served):
        sink = VectorUpsertSink(served, "emb")
        fresh = np.asarray([1.0, 0.0, 0.0, 0.0])
        applied = sink.apply_batch(
            [
                _consumed(0, upsert_record(900, fresh, 1.0)),
                _consumed(1, tombstone_record(3, 2.0)),
            ]
        )
        assert applied == 2
        assert sink.applied_upserts == 1
        assert sink.applied_tombstones == 1
        result = served.search("emb", fresh, k=1)
        assert result.ids[0] == 900
        assert 3 not in served.search("emb", fresh, k=50).ids.tolist()

    def test_redelivery_is_effectively_once(self, served):
        sink = VectorUpsertSink(served, "emb")
        batch = [
            _consumed(0, upsert_record(901, np.ones(4), 1.0)),
        ]
        assert sink.apply_batch(batch) == 1
        assert sink.apply_batch(batch) == 0  # crash-redelivery recognized
        assert sink.applied_upserts == 1
        assert served.table("emb").metrics.upserts.value == 1

    def test_tombstone_is_an_ordering_barrier(self, served):
        """upsert(9) → remove(9) → upsert(9) within one batch must land in
        arrival order: the entity finishes alive with the *last* vector."""
        sink = VectorUpsertSink(served, "emb")
        first = np.asarray([1.0, 0.0, 0.0, 0.0])
        last = np.asarray([0.0, 1.0, 0.0, 0.0])
        sink.apply_batch(
            [
                _consumed(0, upsert_record(909, first, 1.0)),
                _consumed(1, tombstone_record(909, 2.0)),
                _consumed(2, upsert_record(909, last, 3.0)),
            ]
        )
        result = served.search("emb", last, k=1)
        assert result.ids[0] == 909
        assert result.scores[0] == pytest.approx(1.0)

    def test_remove_then_nothing_stays_dead(self, served):
        sink = VectorUpsertSink(served, "emb")
        probe = served.search("emb", np.ones(4), k=50)
        victim = int(probe.ids[0])
        sink.apply_batch([_consumed(0, tombstone_record(victim, 1.0))])
        assert victim not in served.search("emb", np.ones(4), k=50).ids.tolist()


class TestEndToEndThroughLog:
    def test_produce_consume_apply(self, tmp_path):
        """Vectors ride the durable log: produce → consume → sink, then a
        crash-replay from the same offsets is deduplicated, not
        double-applied."""
        rng = np.random.default_rng(1)
        log = SegmentLog(tmp_path / "wal", n_partitions=2)
        try:
            producer = Producer(log)
            fresh = {1000 + i: rng.normal(size=4) for i in range(6)}
            for entity, vector in fresh.items():
                producer.send(upsert_record(entity, vector, float(entity)))
            producer.send(tombstone_record(1000, 99.0))
            producer.flush()

            service = VectorService(n_workers=2)
            try:
                service.serve_matrix(
                    "emb", 1,
                    np.arange(10, dtype=np.int64), rng.normal(size=(10, 4)),
                    n_shards=2, sample_rate=0.0,
                )
                sink = VectorUpsertSink(service, "emb")
                consumer = Consumer(log, group="vec")
                applied = 0
                while True:
                    batch = consumer.poll(512)
                    if not batch:
                        break
                    applied += sink.apply_batch(batch)
                assert applied == 7
                for entity, vector in fresh.items():
                    top = service.search("emb", vector, k=1)
                    if entity == 1000:
                        assert top.ids[0] != 1000
                    else:
                        assert top.ids[0] == entity
                # crash-and-replay: an uncommitted consumer re-reads the
                # log from scratch; the sink's dedupe window suppresses it
                replay = Consumer(log, group="vec-reborn")
                redelivered = 0
                while True:
                    batch = replay.poll(512)
                    if not batch:
                        break
                    redelivered += sink.apply_batch(batch)
                assert redelivered == 0
                assert sink.applied_upserts == 6
            finally:
                service.close()
        finally:
            log.close()

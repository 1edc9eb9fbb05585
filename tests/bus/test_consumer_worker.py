"""Tests for repro.bus.consumer.ConsumerWorker: the background pump.

Contracts: records appended to the log are applied + flushed + committed
without hand-cranking poll(), stop() performs a final drain so nothing in
the log at stop time is stranded, double-close is a no-op, and lag
gauges publish through the bus metrics.
"""

from __future__ import annotations

import pytest

from repro.bus import (
    BusMetrics,
    BusRecord,
    Consumer,
    ConsumerWorker,
    OnlineStoreSink,
    SegmentLog,
    encode_record,
)
from repro.clock import SimClock
from repro.errors import ValidationError
from repro.runtime import ServiceState
from repro.storage.online import OnlineStore


def rec(i, entity=None):
    return BusRecord(
        entity_id=entity if entity is not None else i,
        timestamp=float(i),
        value=float(i) * 2.0,
        sequence=i,
    )


@pytest.fixture
def log(tmp_path):
    with SegmentLog(tmp_path / "log", n_partitions=2) as segment_log:
        yield segment_log


@pytest.fixture
def online():
    return OnlineStore(clock=SimClock())


def make_worker(log, online, metrics=None, **kwargs):
    metrics = metrics or BusMetrics()
    consumer = Consumer(log, group="workers", metrics=metrics)
    sink = OnlineStoreSink(online, namespace="bus_fx", metrics=metrics)
    return ConsumerWorker(consumer, sink, **kwargs), metrics


class TestConsumerWorkerLifecycle:
    def test_validates_config(self, log, online):
        with pytest.raises(ValidationError, match="poll_interval_s"):
            make_worker(log, online, poll_interval_s=0.0)
        with pytest.raises(ValidationError, match="max_records"):
            make_worker(log, online, max_records=0)

    def test_double_close_is_idempotent(self, log, online):
        worker, __ = make_worker(log, online)
        worker.start()
        worker.stop()
        worker.stop()
        worker.close()
        assert worker.state is ServiceState.STOPPED

    def test_named_after_group(self, log, online):
        worker, __ = make_worker(log, online)
        assert worker.name == "consumer-worker:workers"


class TestConsumerWorkerPump:
    def test_applies_records_appended_while_running(self, log, online):
        worker, __ = make_worker(log, online)
        worker.start()
        log.append_many(0, [encode_record(rec(i)) for i in range(6)])
        log.append_many(1, [encode_record(rec(i + 100)) for i in range(4)])
        assert worker.wait_until_caught_up(timeout_s=5.0)
        worker.stop()
        assert worker.records_pumped.value == 10
        assert online.read("bus_fx", 3) is not None
        assert online.read("bus_fx", 103) is not None

    def test_stop_drains_the_log_tail(self, log, online):
        """Records in the log at stop() time are applied and committed."""
        worker, __ = make_worker(log, online, poll_interval_s=0.5)
        worker.start()
        # Append and stop immediately — the nap window would miss these
        # without the final drain in _on_stop.
        log.append_many(0, [encode_record(rec(i)) for i in range(8)])
        worker.stop()
        assert worker.records_pumped.value == 8
        assert worker.consumer.total_lag() == 0
        assert worker.caught_up

    def test_commit_survives_worker_restart(self, log, online):
        """A new worker on the same group resumes past committed records."""
        metrics = BusMetrics()
        worker, __ = make_worker(log, online, metrics=metrics)
        worker.start()
        log.append_many(0, [encode_record(rec(i)) for i in range(5)])
        assert worker.wait_until_caught_up()
        worker.stop()

        fresh_online = OnlineStore(clock=SimClock())
        successor, __ = make_worker(log, fresh_online, metrics=metrics)
        successor.start()
        log.append_many(0, [encode_record(rec(i + 50)) for i in range(3)])
        assert successor.wait_until_caught_up()
        successor.stop()
        # Only the new records were re-applied; no duplicate deliveries.
        assert successor.records_pumped.value == 3
        assert fresh_online.read("bus_fx", 0) is None  # old record not replayed
        assert fresh_online.read("bus_fx", 50) is not None

    def test_settle_publishes_lag_gauges(self, log, online):
        worker, metrics = make_worker(log, online)
        worker.start()
        log.append_many(0, [encode_record(rec(i)) for i in range(4)])
        assert worker.wait_until_caught_up()
        worker.stop()
        assert worker.settles.value >= 1
        assert metrics.lags() == {0: 0, 1: 0}

    def test_health_record(self, log, online):
        worker, __ = make_worker(log, online)
        worker.start()
        log.append_many(1, [encode_record(rec(i)) for i in range(3)])
        assert worker.wait_until_caught_up()
        record = worker.health()
        assert record["healthy"] is True
        assert record["records_pumped"] == 3
        assert record["caught_up"] is True
        worker.stop()

    def test_multiple_sinks_applied_in_order(self, log, online):
        class Journal:
            def __init__(self, name, journal):
                self.name = name
                self.journal = journal

            def apply_batch(self, batch):
                self.journal.append((self.name, len(batch)))
                return len(batch)

            def flush(self):
                self.journal.append((self.name, "flush"))

        journal: list[tuple] = []
        consumer = Consumer(log, group="g2")
        worker = ConsumerWorker(
            consumer, [Journal("a", journal), Journal("b", journal)]
        )
        worker.start()
        log.append_many(0, [encode_record(rec(i)) for i in range(2)])
        assert worker.wait_until_caught_up()
        worker.stop()
        applies = [e for e in journal if e[1] != "flush"]
        # a sees each batch before b does
        assert applies[0][0] == "a"
        assert applies[1][0] == "b"
        assert ("a", "flush") in journal and ("b", "flush") in journal

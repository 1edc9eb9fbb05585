"""Counted witnesses: codec passes per record on the write and replication paths.

Work counts are deterministic where timings are not, so these assert
exact numbers. Each module's ``encode_record`` / ``decode_frame`` binding
is wrapped with a counter, and a fixed seeded op sequence is driven
through the bus producer and through a leader/follower pair on the
in-process transport. The contract counted here: a record is encoded
once, where it enters the system, and every later hop moves those bytes;
the follower's CRC gate is the only decode on the replication path.
"""

import random
import threading
from collections import Counter

import pytest

import repro.bus.log
import repro.bus.producer
import repro.cluster.node
from repro.bus import BusRecord, Producer, SegmentLog
from repro.runtime import await_condition

from tests.cluster.conftest import make_pair

K = 40  # PUTs / producer sends
M = 25  # records written while the follower is partitioned away
SEED = 7

_CODEC_FUNCTIONS = ("encode_record", "decode_frame")
_MODULES = (repro.bus.log, repro.bus.producer, repro.cluster.node)


@pytest.fixture
def passes(monkeypatch) -> Counter:
    """Calls per codec function, summed over every module that binds it."""
    counts: Counter = Counter()
    lock = threading.Lock()
    for module in _MODULES:
        for name in _CODEC_FUNCTIONS:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=name):
                with lock:
                    counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    return counts


def _puts(rng: random.Random, n: int) -> list[dict]:
    return [
        {
            "entity_id": rng.randrange(1000),
            "value": rng.uniform(-1.0, 1.0),
            "timestamp": 1.0 + i,
            "attributes": {"w": rng.random()},
        }
        for i in range(n)
    ]


def test_replicated_puts_and_catch_up(tmp_path, passes):
    rng = random.Random(SEED)
    transport, leader, follower = make_pair(tmp_path, min_replica_acks=0)
    try:
        for payload in _puts(rng, K):
            assert transport.request("test", "L", "put", payload)["acks"] == 1
        assert passes == {"encode_record": K, "decode_frame": K}

        transport.partition("L", "F")
        for payload in _puts(rng, M):
            assert transport.request("test", "L", "put", payload)["acks"] == 0
        assert passes["encode_record"] == K + M
        passes.clear()

        transport.heal("L", "F")
        assert await_condition(
            lambda: follower.log.end_offsets() == leader.log.end_offsets(),
            timeout_s=5.0,
        )
        assert sum(follower.log.end_offsets()) == K + M
        assert passes == {"decode_frame": M}
    finally:
        leader.stop()
        follower.stop()


def test_producer_encodes_each_record_once(tmp_path, passes):
    rng = random.Random(SEED)
    with SegmentLog(tmp_path / "log", n_partitions=4) as log:
        producer = Producer(log, batch_records=8)
        for i in range(K):
            producer.send(
                BusRecord(entity_id=rng.randrange(1000), timestamp=float(i),
                          value=rng.random())
            )
        producer.flush()
        assert log.total_records() == K
    assert passes == {"encode_record": K}

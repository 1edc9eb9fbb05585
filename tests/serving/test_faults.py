"""Tests for repro.serving.faults (the fault-injecting store wrapper)."""

import time

import pytest

from repro.clock import SimClock
from repro.errors import TransientStoreError, ValidationError
from repro.runtime import FaultPolicy
from repro.serving.faults import FaultInjectingOnlineStore
from repro.storage.online import OnlineStore


@pytest.fixture
def store():
    online = OnlineStore(clock=SimClock(0.0))
    online.create_namespace("ns")
    for i in range(50):
        online.write("ns", i, {"v": float(i)}, event_time=0.0)
    return online


def test_no_faults_is_transparent(store):
    faulty = FaultInjectingOnlineStore(store, FaultPolicy())
    assert faulty.read("ns", 3) == {"v": 3.0}
    assert faulty.read_many("ns", [1, 2]) == [{"v": 1.0}, {"v": 2.0}]
    assert faulty.calls.value == 2


def test_delegates_non_read_methods(store):
    faulty = FaultInjectingOnlineStore(store, FaultPolicy())
    faulty.write("ns", 99, {"v": 99.0}, event_time=1.0)  # delegated
    assert store.read("ns", 99) == {"v": 99.0}
    assert faulty.namespaces() == ["ns"]
    assert faulty.wrapped is store


def test_timeout_rate_is_exercised_deterministically(store):
    faulty = FaultInjectingOnlineStore(
        store, FaultPolicy(timeout_rate=0.3, seed=42)
    )
    outcomes = []
    for i in range(200):
        try:
            faulty.read("ns", i % 50)
            outcomes.append("ok")
        except TransientStoreError:
            outcomes.append("timeout")
    injected = outcomes.count("timeout")
    assert injected == faulty.injected_timeouts.value
    assert 30 <= injected <= 90  # ~0.3 of 200, generous bounds

    # Same seed => identical fault sequence.
    replay = FaultInjectingOnlineStore(store, FaultPolicy(timeout_rate=0.3, seed=42))
    replay_outcomes = []
    for i in range(200):
        try:
            replay.read("ns", i % 50)
            replay_outcomes.append("ok")
        except TransientStoreError:
            replay_outcomes.append("timeout")
    assert replay_outcomes == outcomes


def test_error_rate_counted_separately(store):
    faulty = FaultInjectingOnlineStore(
        store, FaultPolicy(timeout_rate=0.2, error_rate=0.2, seed=7)
    )
    failures = 0
    for i in range(100):
        try:
            faulty.read_many("ns", [i % 50])
        except TransientStoreError:
            failures += 1
    assert failures == (
        faulty.injected_timeouts.value + faulty.injected_errors.value
    )
    assert faulty.injected_errors.value > 0
    assert faulty.injected_timeouts.value > 0


def test_base_latency_is_paid_per_call_not_per_key(store):
    faulty = FaultInjectingOnlineStore(
        store, FaultPolicy(base_latency_s=0.01, per_key_latency_s=0.0)
    )
    start = time.perf_counter()
    faulty.read_many("ns", list(range(50)))
    batched = time.perf_counter() - start
    assert 0.01 <= batched < 0.1  # one hop for 50 keys


def test_policy_validation():
    with pytest.raises(ValidationError):
        FaultPolicy(timeout_rate=1.5).validate()
    with pytest.raises(ValidationError):
        FaultPolicy(base_latency_s=-1.0).validate()
    with pytest.raises(ValidationError):
        FaultInjectingOnlineStore(OnlineStore(), FaultPolicy(error_rate=-0.1))

"""Tests for repro.runtime.batching (grouped micro-batch coalescing)."""

import sys
import threading

import pytest

from repro.errors import TransientStoreError, ValidationError
from repro.runtime import Batcher, LifecycleError

VALUES = {
    "ns": {i: {"v": float(i)} for i in range(100)},
    "other": {1: {"w": 1.0}},
}


class RecordingBackend:
    """A keyed lookup backend that records every group call it serves."""

    def __init__(self, values=VALUES):
        self.values = values
        self.calls = []
        self._lock = threading.Lock()

    def run_group(self, group, items):
        with self._lock:
            self.calls.append((group, list(items)))
        return [self.values[group].get(item) for item in items]

    @property
    def batch_sizes(self):
        return [len(items) for __, items in self.calls]


class BlockingBackend(RecordingBackend):
    """Holds every call until ``release`` is set; ``entered`` marks a call."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def run_group(self, group, items):
        self.entered.set()
        self.release.wait(timeout=5.0)
        return super().run_group(group, items)


def make_batcher(run_group, **kwargs):
    return Batcher(run_group, name="test-batcher", **kwargs)


def test_single_submit_resolves():
    batcher = make_batcher(RecordingBackend().run_group, max_wait_s=0.0)
    try:
        assert batcher.submit("ns", 7).result(timeout=2.0) == {"v": 7.0}
    finally:
        batcher.stop()


def test_missing_key_resolves_to_none():
    batcher = make_batcher(RecordingBackend().run_group, max_wait_s=0.0)
    try:
        assert batcher.submit("ns", 999).result(timeout=2.0) is None
    finally:
        batcher.stop()


def test_concurrent_callers_are_coalesced():
    backend = RecordingBackend()
    # One slow worker + a generous window forces coalescing.
    batcher = make_batcher(
        backend.run_group, max_batch_size=64, max_wait_s=0.05, n_workers=1
    )
    results = {}
    errors = []

    def caller(i):
        try:
            results[i] = batcher.submit("ns", i).result(timeout=5.0)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        batcher.stop()

    assert not errors
    assert results == {i: {"v": float(i)} for i in range(32)}
    # 32 concurrent requests must NOT have issued 32 backend calls.
    assert len(backend.calls) < 32
    assert max(backend.batch_sizes) > 1
    assert batcher.mean_batch_size() > 1.0
    assert batcher.batched_requests.value == 32


def test_groups_by_group_key():
    backend = RecordingBackend()
    batcher = make_batcher(backend.run_group, max_wait_s=0.05, n_workers=1)
    try:
        futures = [
            batcher.submit("ns", 1),
            batcher.submit("other", 1),
            batcher.submit("ns", 2),
        ]
        values = [f.result(timeout=5.0) for f in futures]
    finally:
        batcher.stop()
    assert values == [{"v": 1.0}, {"w": 1.0}, {"v": 2.0}]
    # One call per group, items in arrival order.
    assert sorted(backend.calls) == [("ns", [1, 2]), ("other", [1])]


def test_group_exception_propagates_to_every_caller():
    def run_group(group, items):
        if group == "bad":
            raise TransientStoreError("boom")
        return [item * 10 for item in items]

    batcher = make_batcher(run_group, max_wait_s=0.01, n_workers=1)
    try:
        bad = [batcher.submit("bad", i) for i in range(4)]
        good = batcher.submit("good", 1)
        for future in bad:
            with pytest.raises(TransientStoreError):
                future.result(timeout=5.0)
        # The failing group does not take its co-batched neighbours down.
        assert good.result(timeout=5.0) == 10
    finally:
        batcher.stop()


def test_stop_rejects_new_work():
    batcher = make_batcher(RecordingBackend().run_group)
    batcher.stop()
    with pytest.raises(LifecycleError, match="cannot submit work"):
        batcher.submit("ns", 1)
    batcher.stop()  # idempotent


def test_stop_drains_queued_work():
    backend = BlockingBackend()
    batcher = make_batcher(
        backend.run_group, max_batch_size=1, max_wait_s=0.0, n_workers=1
    )
    first = batcher.submit("ns", 1)  # occupies the only worker
    assert backend.entered.wait(timeout=5.0)
    backlog = [batcher.submit("ns", i) for i in range(2, 6)]
    stopper = threading.Thread(target=batcher.stop)
    stopper.start()
    backend.release.set()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive()
    assert first.result(timeout=0) == {"v": 1.0}
    assert [f.result(timeout=0) for f in backlog] == [
        {"v": float(i)} for i in range(2, 6)
    ]


def test_respects_max_batch_size():
    backend = RecordingBackend()
    batcher = make_batcher(
        backend.run_group, max_batch_size=4, max_wait_s=0.05, n_workers=1
    )
    try:
        futures = [batcher.submit("ns", i) for i in range(16)]
        for future in futures:
            future.result(timeout=5.0)
    finally:
        batcher.stop()
    assert max(backend.batch_sizes) <= 4


def test_queue_depth_reports_backlog():
    backend = BlockingBackend()
    batcher = make_batcher(
        backend.run_group, max_batch_size=1, max_wait_s=0.0, n_workers=1
    )
    try:
        first = batcher.submit("ns", 1)  # occupies the only worker
        assert backend.entered.wait(timeout=5.0)
        backlog = [batcher.submit("ns", i) for i in range(2, 6)]
        assert batcher.queue_depth() == 4
        health = batcher.health()
        assert health["name"] == "test-batcher"
        assert health["queue_depth"] == 4
        assert health["batches"] == 1
        backend.release.set()
        assert first.result(timeout=5.0) == {"v": 1.0}
        for future in backlog:
            future.result(timeout=5.0)
    finally:
        backend.release.set()
        batcher.stop()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_batch_size": 0}, "max_batch_size must be >= 1"),
        ({"max_wait_s": -0.1}, "max_wait_s must be >= 0"),
        ({"n_workers": 0}, "n_workers must be >= 1"),
    ],
)
def test_rejects_bad_configuration(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        make_batcher(RecordingBackend().run_group, **kwargs)


class TestCancellation:
    """A caller that times out cancels its future; the worker must cope."""

    def test_item_cancelled_while_queued_never_reaches_run_group(self):
        backend = BlockingBackend()
        batcher = make_batcher(
            backend.run_group, max_batch_size=1, max_wait_s=0.0, n_workers=1
        )
        try:
            first = batcher.submit("ns", 1)  # occupies the only worker
            assert backend.entered.wait(timeout=5.0)
            cancelled = batcher.submit("ns", 2)
            assert cancelled.cancel()
            last = batcher.submit("ns", 3)
            backend.release.set()
            assert first.result(timeout=5.0) == {"v": 1.0}
            assert last.result(timeout=5.0) == {"v": 3.0}
        finally:
            backend.release.set()
            batcher.stop()
        assert backend.calls == [("ns", [1]), ("ns", [3])]
        assert batcher.batched_requests.value == 2

    def test_cancel_of_in_flight_item_fails_and_item_resolves(self):
        backend = BlockingBackend()
        batcher = make_batcher(backend.run_group, max_wait_s=0.0, n_workers=1)
        try:
            in_flight = batcher.submit("ns", 1)
            assert backend.entered.wait(timeout=5.0)
            assert not in_flight.cancel()
            backend.release.set()
            assert in_flight.result(timeout=5.0) == {"v": 1.0}
            # The worker survived and keeps serving.
            assert batcher.submit("ns", 2).result(timeout=5.0) == {"v": 2.0}
        finally:
            backend.release.set()
            batcher.stop()

    def test_cancel_churn_leaves_no_future_pending(self):
        # Stress: more workers than cores and a short switch interval, so
        # callers' cancel() lands at every point of the workers' cycle. A
        # cancel that races set_result would kill a worker and strand the
        # rest of its group.
        batcher = make_batcher(
            RecordingBackend().run_group, max_batch_size=8, n_workers=4
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = []
            for i in range(2000):
                future = batcher.submit("ns", i % 100)
                if i % 2:
                    future.cancel()
                futures.append(future)
            for i, future in enumerate(futures):
                if not future.cancelled():
                    assert future.result(timeout=5.0) == {"v": float(i % 100)}
            assert all(t.is_alive() for t in batcher._threads)
        finally:
            sys.setswitchinterval(interval)
            batcher.stop()
        assert not any(t.is_alive() for t in batcher._threads)

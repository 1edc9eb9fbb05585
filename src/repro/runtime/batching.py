"""Batching: coalesce concurrent single-item requests into grouped calls.

"Unified Embedding" (PAPERS.md) reports that web-scale serving lives or
dies by batched lookup paths. Many concurrent callers each want one item
— a feature row, a nearest-neighbour query — and issuing one backend
call per item pays the per-call overhead (a lock, a shard fan-out, a
network hop) once *per item*. A :class:`Batcher` puts requests on a
queue; a small pool of workers drains it in batches of up to
``max_batch_size`` (waiting at most ``max_wait_s`` for stragglers),
groups each batch by the caller's group key in arrival order and calls
``run_group(group, items)`` once per group, paying the overhead once
*per batch*.

The serving gateway and the vector service are two configurations of
it: the gateway groups point reads by ``(namespace, policy)`` and runs
one ``read_many`` per group; the vector service groups queries by
``(table, version, k)`` and runs one shard-batched search per group.

Callers block on a :class:`concurrent.futures.Future`, which also gives
them a deadline (``future.result(timeout=...)``) and a ``cancel()`` for
when it passes. A worker marks every future running when it takes the
batch: an item cancelled while still queued is dropped before
``run_group``, and ``cancel()`` on an in-flight item returns ``False``
and the item still resolves.
"""

from __future__ import annotations

import queue
import time
from collections.abc import Callable, Hashable
from concurrent.futures import Future

from repro.errors import ValidationError
from repro.runtime.lifecycle import Service
from repro.runtime.telemetry import Counter

#: ``run_group(group, items)`` returns one result per item, in order
RunGroupFn = Callable[[Hashable, list], list]

_STOP = object()


class Batcher(Service):
    """Queue + bounded worker pool that runs requests one group at a time.

    ``run_group`` raising forwards the exception to every future in that
    group; other groups in the same batch are unaffected. Workers are
    daemon threads owned by the service (constructed == running).
    ``stop()`` drains: the stop sentinel enqueues *behind* queued work,
    and ``submit()`` checks and enqueues under the lifecycle lock, so a
    request is either served before the workers exit or rejected — never
    stranded behind the sentinel with a forever-pending future.
    """

    def __init__(
        self,
        run_group: RunGroupFn,
        name: str,
        max_batch_size: int = 64,
        max_wait_s: float = 0.001,
        n_workers: int = 2,
    ) -> None:
        if max_batch_size < 1:
            raise ValidationError(f"max_batch_size must be >= 1 ({max_batch_size=})")
        if max_wait_s < 0:
            raise ValidationError(f"max_wait_s must be >= 0 ({max_wait_s=})")
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1 ({n_workers=})")
        super().__init__(name=name)
        self._run_group = run_group
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.n_workers = n_workers
        self._queue: queue.Queue = queue.Queue()
        self.batches = Counter()
        self.batched_requests = Counter()
        self.start()

    def _on_start(self) -> None:
        for i in range(self.n_workers):
            self._spawn(self._worker_loop, name=f"{self.name}-{i}")

    def _on_stop(self) -> None:
        self._queue.put(_STOP)
        self._join_workers()

    # -- client side ----------------------------------------------------------

    def submit(self, group: Hashable, item: object) -> Future:
        """Enqueue one item of ``group``; resolve via the returned future."""
        with self._state_lock:
            self._check_running("submit work")
            future: Future = Future()
            self._queue.put((group, item, future))
        return future

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def mean_batch_size(self) -> float:
        batches = self.batches.value
        return self.batched_requests.value / batches if batches else 0.0

    def health(self) -> dict[str, object]:
        record = super().health()
        record["queue_depth"] = self.queue_depth()
        record["batches"] = self.batches.value
        return record

    # -- worker side ----------------------------------------------------------

    def _collect_batch(self, first: tuple) -> list[tuple]:
        batch = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                # Even with no wait budget left, drain anything already
                # queued — coalescing backlog is free.
                request = self._queue.get(
                    block=remaining > 0, timeout=max(remaining, 0) or None
                )
            except queue.Empty:
                break
            if request is _STOP:
                self._queue.put(_STOP)  # let sibling workers see it too
                break
            batch.append(request)
        return batch

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is _STOP:
                self._queue.put(_STOP)
                return
            self._execute(self._collect_batch(request))

    def _execute(self, batch: list[tuple]) -> None:
        groups: dict[Hashable, list[tuple[object, Future]]] = {}
        for group, item, future in batch:
            # Past this call a caller's cancel() is a no-op, so the
            # set_result/set_exception below can never race it.
            if future.set_running_or_notify_cancel():
                groups.setdefault(group, []).append((item, future))
        if not groups:
            return
        self.batches.inc()
        self.batched_requests.inc(sum(len(members) for members in groups.values()))
        for group, members in groups.items():
            try:
                results = self._run_group(group, [item for item, __ in members])
            except BaseException as exc:  # noqa: BLE001 - forwarded to callers
                for __, future in members:
                    future.set_exception(exc)
                continue
            for (__, future), result in zip(members, results):
                future.set_result(result)

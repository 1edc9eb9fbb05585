"""Service lifecycle: one state machine under every plane.

The reproduction grew four planes (serving gateway, ingestion bus,
vector service, streaming) that each reinvented thread ownership,
``stop()``/``close()`` semantics and shutdown ordering — four slightly
different ways to leak a worker thread. This module is the single
substrate they all inherit now:

* :class:`Service` — the lifecycle base: an explicit state machine
  (``NEW → STARTING → RUNNING → STOPPING → STOPPED``, with ``FAILED``
  off ``STARTING``), idempotent and thread-safe :meth:`start` /
  :meth:`stop` / :meth:`close`, owned worker threads
  (:meth:`_spawn` + automatic join on stop), a shared stop event, and a
  :meth:`health` snapshot every service exports for free.
* :class:`PeriodicTask` — a :class:`Service` that runs a callable every
  ``interval_s`` seconds on an owned daemon thread (auto-compaction,
  lag sampling, cache sweeps) with exception containment.
* :class:`ServiceGroup` — a :class:`Service` *of* services: dependencies
  start in registration order and drain in **reverse** on shutdown, so
  a stack wired as ``bus → stores → gateway → vecserve`` tears down
  consumers before the log and front-ends before back-ends. A failure
  mid-start rolls back: later services never start, earlier ones are
  drained.

Objects predating the refactor (anything exposing ``start``/``stop`` or
``close``) participate through a duck-typing adapter, so a
:class:`ServiceGroup` can manage a legacy component unchanged.
"""

from __future__ import annotations

import enum
import threading
import time
from collections.abc import Callable

from repro.errors import ValidationError


class LifecycleError(ValidationError):
    """An illegal service state transition (e.g. restarting a stopped
    service, or submitting work to one that is shut down).

    Subclasses :class:`~repro.errors.ValidationError` so pre-runtime
    callers that caught ``ValidationError`` around ``submit()``-after-
    ``stop()`` keep working unchanged.
    """


class ServiceState(enum.Enum):
    """The lifecycle states every :class:`Service` moves through."""

    NEW = "new"
    STARTING = "starting"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"
    FAILED = "failed"


class Service:
    """Base class: idempotent start/stop/close + owned worker threads.

    Subclasses override :meth:`_on_start` (allocate resources, spawn
    workers via :meth:`_spawn`) and :meth:`_on_stop` (signal + drain; the
    default sets :attr:`_stop_event` and joins every spawned worker).
    Both hooks run at most once, under the lifecycle lock, no matter how
    many threads race ``start()``/``stop()``/``close()`` — double-close
    is a no-op by construction, and a ``stop()`` racing in-flight work
    blocks until the first stopper finishes draining.
    """

    #: join budget per owned worker thread on stop
    join_timeout_s: float = 2.0

    def __init__(self, name: str | None = None) -> None:
        self._name = name or type(self).__name__
        self._state = ServiceState.NEW
        self._state_lock = threading.RLock()
        self._stopped_event = threading.Event()
        self._stop_event = threading.Event()
        self._threads: list[threading.Thread] = []
        self._failure: BaseException | None = None

    # -- introspection --------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def state(self) -> ServiceState:
        with self._state_lock:
            return self._state

    @property
    def running(self) -> bool:
        return self.state is ServiceState.RUNNING

    def health(self) -> dict[str, object]:
        """One JSON-able health record (aggregated by :class:`ServiceGroup`)."""
        state = self.state
        record: dict[str, object] = {
            "name": self._name,
            "state": state.value,
            "healthy": state is ServiceState.RUNNING,
        }
        if self._failure is not None:
            record["failure"] = repr(self._failure)
        alive = [t.name for t in self._threads if t.is_alive()]
        if alive:
            record["threads"] = alive
        return record

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Service":
        """Bring the service up (idempotent while starting/running)."""
        with self._state_lock:
            if self._state in (ServiceState.STARTING, ServiceState.RUNNING):
                return self
            if self._state is not ServiceState.NEW:
                raise LifecycleError(
                    f"{self._name}: cannot start from state "
                    f"{self._state.value!r} (services do not restart)"
                )
            self._state = ServiceState.STARTING
            try:
                self._on_start()
            except BaseException as exc:  # noqa: BLE001 - marks FAILED, re-raised
                self._state = ServiceState.FAILED
                self._failure = exc
                raise
            self._state = ServiceState.RUNNING
        return self

    def stop(self) -> None:
        """Drain and shut down (idempotent, safe from any thread/state).

        A never-started service jumps straight to ``STOPPED`` without
        invoking :meth:`_on_stop`; concurrent stoppers block until the
        first one finishes, so by the time any ``stop()`` call returns
        the service is fully drained.
        """
        with self._state_lock:
            if self._state is ServiceState.STOPPED:
                return
            if self._state is ServiceState.STOPPING:
                # Re-entrant stop (the RLock means only the stopping
                # thread itself can observe this): the outer frame is
                # already draining, nothing to do.
                return
            if self._state is ServiceState.NEW:
                self._state = ServiceState.STOPPED
                self._stopped_event.set()
                return
            self._state = ServiceState.STOPPING
            try:
                self._on_stop()
            finally:
                self._state = ServiceState.STOPPED
                self._stopped_event.set()

    def close(self) -> None:
        """Alias of :meth:`stop` (the pre-runtime planes called it this)."""
        self.stop()

    def __enter__(self) -> "Service":
        if self.state is ServiceState.NEW:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- hooks ----------------------------------------------------------------

    def _on_start(self) -> None:
        """Allocate resources / spawn workers. Runs exactly once."""

    def _on_stop(self) -> None:
        """Signal and drain. Default: set the stop event, join workers."""
        self._stop_event.set()
        self._join_workers()

    # -- worker threads -------------------------------------------------------

    def _spawn(
        self, target: Callable[[], None], name: str | None = None
    ) -> threading.Thread:
        """Start an owned daemon thread (joined automatically on stop)."""
        thread = threading.Thread(
            target=target,
            name=name or f"{self._name}-worker-{len(self._threads)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()
        return thread

    def _join_workers(self, timeout_s: float | None = None) -> None:
        budget = self.join_timeout_s if timeout_s is None else timeout_s
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=budget)

    def _check_running(self, action: str = "submit work") -> None:
        """Guard for request paths: raise unless the service is running."""
        if self.state is not ServiceState.RUNNING:
            raise LifecycleError(
                f"{self._name}: cannot {action}; service is "
                f"{self.state.value}"
            )


class PeriodicTask(Service):
    """Run ``fn()`` every ``interval_s`` seconds until stopped.

    Exceptions are contained: the loop records them (``errors`` /
    ``last_error``) and keeps ticking — a single failed compaction pass
    must not silently kill background maintenance forever.
    """

    def __init__(
        self,
        fn: Callable[[], object],
        interval_s: float,
        name: str | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValidationError(f"interval_s must be positive ({interval_s=})")
        super().__init__(name=name or f"periodic:{getattr(fn, '__name__', 'task')}")
        self._fn = fn
        self.interval_s = interval_s
        self.ticks = 0
        self.errors = 0
        self.last_error: BaseException | None = None

    def _on_start(self) -> None:
        self._spawn(self._loop, name=f"{self.name}-loop")

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self._fn()
            except Exception as exc:  # noqa: BLE001 - contained by design
                self.errors += 1
                self.last_error = exc
            self.ticks += 1

    def health(self) -> dict[str, object]:
        record = super().health()
        record["ticks"] = self.ticks
        record["errors"] = self.errors
        return record


class _ServiceAdapter(Service):
    """Duck-typing shim: manage any start/stop(/close) object as a Service."""

    def __init__(self, wrapped: object, name: str | None = None) -> None:
        super().__init__(name=name or type(wrapped).__name__)
        self.wrapped = wrapped

    def _on_start(self) -> None:
        start = getattr(self.wrapped, "start", None)
        if callable(start):
            start()

    def _on_stop(self) -> None:
        for method_name in ("stop", "close", "shutdown"):
            method = getattr(self.wrapped, method_name, None)
            if callable(method):
                method()
                return


class ServiceGroup(Service):
    """Ordered composite: start dependencies first, drain them last.

    ``add()`` order is dependency order — the log before its consumers,
    stores before the gateway, the gateway before the vector plane.
    :meth:`_on_start` walks forward; on a mid-start failure the services
    already running are drained in reverse and the failure propagates
    (later services are never started). :meth:`_on_stop` walks backward
    unconditionally, collecting per-service failures so one bad actor
    cannot block the rest of the drain.
    """

    def __init__(self, name: str = "stack") -> None:
        super().__init__(name=name)
        self._members: list[Service] = []
        self._started_members: list[Service] = []

    def add(self, service: object, name: str | None = None) -> object:
        """Register the next dependency; returns it for fluent wiring.

        Accepts a :class:`Service` directly, or any object exposing
        ``start()`` and/or ``stop()``/``close()``/``shutdown()`` via the
        adapter. Registration after start is rejected (ordering would be
        meaningless).
        """
        with self._state_lock:
            if self._state is not ServiceState.NEW:
                raise LifecycleError(
                    f"{self.name}: cannot add services after start"
                )
            member = (
                service
                if isinstance(service, Service)
                else _ServiceAdapter(service, name=name)
            )
            self._members.append(member)
        return service

    @property
    def services(self) -> list[Service]:
        return list(self._members)

    def start_order(self) -> list[str]:
        return [member.name for member in self._members]

    def _on_start(self) -> None:
        for member in self._members:
            try:
                member.start()
            except BaseException:  # noqa: BLE001 - rolls back, re-raised
                self._drain(list(self._started_members))
                raise
            self._started_members.append(member)

    def _on_stop(self) -> None:
        self._drain(list(self._started_members))
        self._started_members.clear()

    @staticmethod
    def _drain(started: list[Service]) -> None:
        failures: list[BaseException] = []
        for member in reversed(started):
            try:
                member.stop()
            except BaseException as exc:  # noqa: BLE001 - keep draining
                failures.append(exc)
        if failures:
            raise failures[0]

    def health(self) -> dict[str, object]:
        record = super().health()
        record["services"] = [member.health() for member in self._members]
        record["healthy"] = record["healthy"] and all(
            m.health()["healthy"] for m in self._members
        )
        return record


def await_condition(
    predicate: Callable[[], bool],
    timeout_s: float = 5.0,
    interval_s: float = 0.005,
) -> bool:
    """Poll ``predicate`` until true or the timeout elapses (test helper)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()

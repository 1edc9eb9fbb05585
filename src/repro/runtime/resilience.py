"""Resilience primitives: fault policies, deadlines, retry/backoff.

Every plane rehearses and survives the same failure shapes — network
round-trip latency, transient timeouts, fast-fail blips, exhausted
latency budgets. Before this layer the machinery lived in
``repro.serving.faults`` and was imported *upward* by the vector plane
(a layering violation the import lint now forbids); the duplicated
fault-roll logic lived once in the store wrapper and once in the shard
fan-out. This module is the single home:

* :class:`FaultPolicy` — what to inject and how often (the dataclass the
  fault-injecting store wrapper and the per-shard injector both consume);
* :class:`FaultInjector` — the seeded, thread-safe roll-and-raise engine
  both wrappers now share (latency burn, timeout raise, error raise,
  injection counters);
* :class:`Deadline` — an absolute monotonic budget with ``remaining()``;
* :class:`RetryPolicy` + :func:`retry_call` — bounded retries with
  exponential backoff under a deadline, the gateway's read-path loop as
  a reusable helper.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceededError,
    TransientStoreError,
    ValidationError,
)
from repro.runtime.telemetry import Counter


@dataclass(frozen=True)
class FaultPolicy:
    """What a fault injector injects, and how often."""

    timeout_rate: float = 0.0
    error_rate: float = 0.0
    base_latency_s: float = 0.0
    per_key_latency_s: float = 0.0
    timeout_latency_s: float = 0.0  # time burned before a timeout surfaces
    seed: int | None = None

    def validate(self) -> None:
        for name in ("timeout_rate", "error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1] ({rate=})")
        for name in ("base_latency_s", "per_key_latency_s", "timeout_latency_s"):
            value = getattr(self, name)
            if value < 0:
                raise ValidationError(f"{name} must be >= 0 ({value=})")


class FaultInjector:
    """Seeded, thread-safe execution of a :class:`FaultPolicy`.

    One :meth:`inject` call simulates one backend call: burn the
    simulated round-trip latency, then roll once — a roll below
    ``timeout_rate`` burns ``timeout_latency_s`` and raises, a roll in
    the next ``error_rate`` band fails fast. Both raise
    :class:`~repro.errors.TransientStoreError`, so retry machinery
    engages identically for real and injected faults. Counters record
    what was injected, for test assertions.
    """

    def __init__(self, policy: FaultPolicy) -> None:
        policy.validate()
        self.policy = policy
        self._rng = random.Random(policy.seed)
        self._rng_lock = threading.Lock()
        self.injected_timeouts = Counter()
        self.injected_errors = Counter()
        self.calls = Counter()

    def roll(self) -> float:
        with self._rng_lock:
            return self._rng.random()

    def inject(self, n_keys: int = 1) -> None:
        """Simulate one ``n_keys``-wide backend call (may raise)."""
        self.calls.inc()
        policy = self.policy
        latency = policy.base_latency_s + policy.per_key_latency_s * n_keys
        if latency > 0:
            time.sleep(latency)
        roll = self.roll()
        if roll < policy.timeout_rate:
            self.injected_timeouts.inc()
            if policy.timeout_latency_s > 0:
                time.sleep(policy.timeout_latency_s)
            raise TransientStoreError(
                f"injected timeout (rate={policy.timeout_rate})"
            )
        if roll < policy.timeout_rate + policy.error_rate:
            self.injected_errors.inc()
            raise TransientStoreError(f"injected error (rate={policy.error_rate})")


@dataclass
class Deadline:
    """An absolute latency budget on the ``time.monotonic`` scale."""

    at: float  # absolute monotonic timestamp

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Budget starting now. Non-positive budgets are *already expired*
        (a caller-supplied negative deadline means "fail fast", not a
        configuration error)."""
        return cls(at=time.monotonic() + seconds)

    def remaining(self) -> float:
        return self.at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def sleep(self, seconds: float) -> None:
        """Sleep at most ``seconds``, clamped to the remaining budget."""
        time.sleep(min(seconds, max(self.remaining(), 0.0)))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff."""

    max_retries: int = 2
    backoff_s: float = 0.0005
    multiplier: float = 2.0
    max_backoff_s: float = 0.25
    retry_on: tuple[type[BaseException], ...] = field(
        default=(TransientStoreError,)
    )

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0 ({self.max_retries=})")
        if self.backoff_s < 0:
            raise ValidationError(f"backoff_s must be >= 0 ({self.backoff_s=})")
        if self.multiplier < 1.0:
            raise ValidationError(f"multiplier must be >= 1 ({self.multiplier=})")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based first retry)."""
        return min(
            self.backoff_s * self.multiplier ** max(attempt - 1, 0),
            self.max_backoff_s,
        )


def retry_call(
    fn: Callable[[], object],
    retry: RetryPolicy | None = None,
    deadline: Deadline | None = None,
    on_retry: Callable[[BaseException], None] | None = None,
):
    """Call ``fn`` with bounded retries under an optional deadline.

    Retries only on ``retry.retry_on`` exceptions; any other exception
    propagates immediately. Exhausting the deadline raises
    :class:`~repro.errors.DeadlineExceededError` chaining the last
    failure; exhausting the retry budget re-raises the last failure.
    """
    retry = retry or RetryPolicy()
    retry.validate()
    attempts = 0
    last_error: BaseException | None = None
    while True:
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError(
                f"deadline exhausted after {attempts} attempt(s); "
                f"last error: {last_error!r}"
            ) from last_error
        attempts += 1
        try:
            return fn()
        except retry.retry_on as exc:
            last_error = exc
            if attempts > retry.max_retries:
                raise
            if on_retry is not None:
                on_retry(exc)
            backoff = retry.backoff_for(attempts)
            if deadline is not None:
                deadline.sleep(backoff)
            else:
                time.sleep(backoff)

"""The runtime kernel: lifecycle, telemetry, and resilience for every plane.

This is the bottom operational layer of the reproduction — the paper's
feature-store *stack* (ingestion, storage, serving, embedding/vector
planes, §2–§3) runs in industry on a common control plane that provides
health, metrics and orderly shutdown to every component uniformly. Here
that substrate is:

* :mod:`repro.runtime.lifecycle` — :class:`Service` (idempotent
  start/stop/close state machine, owned worker threads, health),
  :class:`PeriodicTask` (background maintenance loops) and
  :class:`ServiceGroup` (ordered startup, reverse-order drain);
* :mod:`repro.runtime.telemetry` — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`LatencyHistogram` primitives behind one
  :class:`MetricsRegistry` with JSON and Prometheus-text exporters;
* :mod:`repro.runtime.resilience` — :class:`FaultPolicy` +
  :class:`FaultInjector` (seeded fault rehearsal), :class:`Deadline`,
  :class:`RetryPolicy` and :func:`retry_call`;
* :mod:`repro.runtime.batching` — :class:`Batcher`, the one
  queue-and-drain service that coalesces concurrent single-item
  requests into grouped calls (the gateway's feature reads and the
  vector service's queries are two configurations of it).

Layering contract (enforced by ``tools/check_layering.py``): this
package imports nothing above it — only the stdlib, ``repro.errors``
and ``repro.clock``. Every plane imports *down* into it.
"""

from repro.runtime.batching import Batcher
from repro.runtime.lifecycle import (
    LifecycleError,
    PeriodicTask,
    Service,
    ServiceGroup,
    ServiceState,
    await_condition,
)
from repro.runtime.resilience import (
    Deadline,
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
    retry_call,
)
from repro.runtime.telemetry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)

__all__ = [
    "Batcher",
    "Counter",
    "Deadline",
    "FaultInjector",
    "FaultPolicy",
    "Gauge",
    "LatencyHistogram",
    "LifecycleError",
    "MetricsRegistry",
    "PeriodicTask",
    "RetryPolicy",
    "Service",
    "ServiceGroup",
    "ServiceState",
    "await_condition",
    "get_registry",
    "retry_call",
    "set_registry",
]

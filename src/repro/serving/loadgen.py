"""Closed-loop load generation: the one driver every serving bench uses.

A *closed-loop* generator models ``n_clients`` synchronous callers (the
deployed model replicas of paper §2.2.2): each client issues its next
request only after the previous one returns, so offered load adapts to
observed latency exactly the way a fleet of blocking RPC clients does.
Keys are drawn from a Zipfian popularity distribution
(:func:`repro.datagen.workloads.generate_zipfian_keys`) — the skew that
makes the gateway's hot-key cache tier earn its keep.

Each request is one ``call(client, key)``, so the same loop measures a
gateway in process (E16) and a ``FeatureClient`` fleet over HTTP (E21);
outcomes and latencies are reported per class of clients.

Latencies are measured per request with ``time.perf_counter`` and merged
across clients into exact (non-bucketed) percentiles, so benchmark
numbers are independent of the gateway's own histogram resolution.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.datagen.workloads import ZipfianWorkloadConfig, generate_zipfian_keys
from repro.errors import ValidationError

#: the outcome of a request whose ``call`` returned
_OK = "ok"


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one closed-loop run."""

    n_clients: int = 4
    requests_per_client: int = 200
    n_keys: int = 1000
    zipf_skew: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_clients < 1:
            raise ValidationError(f"n_clients must be >= 1 ({self.n_clients=})")
        if self.requests_per_client < 1:
            raise ValidationError(
                f"requests_per_client must be >= 1 ({self.requests_per_client=})"
            )


def _percentile_ms(latencies: np.ndarray, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


@dataclass(frozen=True)
class ClassReport:
    """Outcomes and latencies of the clients sharing one class label."""

    requests: int
    outcomes: dict[str, int]
    p50_ms: float
    p99_ms: float

    @property
    def ok(self) -> int:
        return self.outcomes.get(_OK, 0)

    @property
    def success_rate(self) -> float:
        return self.ok / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class LoadReport:
    """Merged results of a closed-loop run."""

    total_requests: int
    errors: int
    duration_s: float
    qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    by_class: dict[str, ClassReport]

    def row(self, label: str) -> list[object]:
        """A table row for the benchmark report fixture."""
        return [
            label,
            f"{self.qps:,.0f}",
            self.p50_ms,
            self.p99_ms,
            self.errors,
        ]


def run_closed_loop(
    call: Callable[[int, int], object],
    config: LoadConfig,
    classes: Sequence[str] | None = None,
) -> LoadReport:
    """Drive ``call(client, key)`` from ``n_clients`` threads; merge stats.

    ``call`` is typically a bound endpoint, e.g.
    ``lambda client, key: gateway.get_features("ns", key)``, and
    ``classes[i]`` labels client ``i`` in ``LoadReport.by_class`` (one
    class, ``"all"``, when omitted). A raised exception is an outcome,
    not propagated: it counts under its ``code`` attribute (every error
    decoded off the wire has one), else its class name — a load test
    should survive the fault-injection and overload runs it is pointed at.
    """
    config.validate()
    if classes is None:
        classes = ["all"] * config.n_clients
    if len(classes) != config.n_clients:
        raise ValidationError(
            f"classes must label every client ({len(classes)=} != "
            f"{config.n_clients=})"
        )
    per_client_latencies: list[list[float]] = [[] for _ in range(config.n_clients)]
    per_client_outcomes = [Counter() for _ in range(config.n_clients)]
    key_streams = [
        generate_zipfian_keys(
            ZipfianWorkloadConfig(
                n_keys=config.n_keys,
                n_requests=config.requests_per_client,
                skew=config.zipf_skew,
            ),
            seed=config.seed + client,
        )
        for client in range(config.n_clients)
    ]
    barrier = threading.Barrier(config.n_clients + 1)

    def client_loop(client: int) -> None:
        latencies = per_client_latencies[client]
        outcomes = per_client_outcomes[client]
        barrier.wait()
        for key in key_streams[client]:
            start = time.perf_counter()
            try:
                call(client, int(key))
                outcome = _OK
            except Exception as exc:  # noqa: BLE001 - an outcome, see docstring
                code = getattr(exc, "code", None)
                outcome = code if isinstance(code, str) else type(exc).__name__
            latencies.append(time.perf_counter() - start)
            outcomes[outcome] += 1

    threads = [
        threading.Thread(target=client_loop, args=(client,), daemon=True)
        for client in range(config.n_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    by_class: dict[str, ClassReport] = {}
    for label in dict.fromkeys(classes):
        members = [c for c in range(config.n_clients) if classes[c] == label]
        latencies = np.array([t for c in members for t in per_client_latencies[c]])
        outcomes = sum((per_client_outcomes[c] for c in members), Counter())
        by_class[label] = ClassReport(
            int(latencies.size),
            dict(outcomes),
            _percentile_ms(latencies, 50),
            _percentile_ms(latencies, 99),
        )
    merged = np.array([lat for client in per_client_latencies for lat in client])
    total = len(merged)
    return LoadReport(
        total_requests=total,
        errors=total - sum(report.ok for report in by_class.values()),
        duration_s=duration,
        qps=total / duration if duration > 0 else 0.0,
        p50_ms=_percentile_ms(merged, 50),
        p95_ms=_percentile_ms(merged, 95),
        p99_ms=_percentile_ms(merged, 99),
        mean_ms=float(merged.mean()) * 1e3,
        by_class=by_class,
    )

"""E21 — network serving plane under load, overload and drain.

The paper's serving-tier requirements (§2.2.2: "low latency feature
serving", DoorDash's gigascale gateway, §3.2's embedding-server quality
bars) are *network* claims, so this bench measures the whole surface:
JSON encode, TCP, HTTP parse, auth, admission control, gateway dispatch
and the envelope decode on the way back — via :mod:`repro.net`'s
threaded HTTP front end over a real :class:`ServingGateway`.

Three cases:

* ``baseline`` — a comfortably provisioned server vs a Zipfian
  closed-loop fleet, all high priority: end-to-end p50/p99 and a 100%
  success expectation. This is the latency floor the other cases are
  read against.
* ``overload`` — the same store behind a *constrained* admission plane
  (watermark at a fraction of the hard cap, the batch tenant on a token
  bucket), driven at several times the sustainable concurrency by a
  mixed high/best-effort fleet. The watermark sheds best-effort with
  503s, the quota throttles it with 429s, and the high class rides
  through: the acceptance bar is ≥99% high-priority success while the
  best-effort class absorbs a nonzero shed rate.
* ``drain`` — a ``ServiceGroup`` stop issued mid-load. Every admitted
  request must complete (``admitted == completed``, zero dropped
  in-flight) and every handler/worker thread must be gone afterwards.

Results go to ``benchmarks/results/BENCH_network_serving.json`` and the
headline numbers are gated by ``tools/check_trajectory.py``.

Run the pytest bench, or the CLI smoke target::

    PYTHONPATH=src python -m pytest benchmarks/bench_e21_network_serving.py -q
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke --targets net
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

from repro.net import (
    AdmissionConfig,
    ClientConfig,
    FeatureClient,
    FeatureServer,
    QuotaConfig,
    ServerConfig,
)
from repro.runtime import FaultPolicy, RetryPolicy, ServiceGroup, await_condition
from repro.serving import (
    FaultInjectingOnlineStore,
    LoadConfig,
    LoadReport,
    ServingGateway,
    run_closed_loop,
)
from repro.serving.gateway import GatewayConfig
from repro.storage.online import OnlineStore

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_network_serving.json"
)

SCALES = {
    "smoke": dict(
        n_keys=500,
        base_clients=4, base_requests=80,
        over_clients=16, over_requests=50,
        drain_clients=6, drain_requests=400,
    ),
    "default": dict(
        n_keys=2_000,
        base_clients=8, base_requests=150,
        over_clients=24, over_requests=80,
        drain_clients=8, drain_requests=600,
    ),
    "full": dict(
        n_keys=5_000,
        base_clients=8, base_requests=400,
        over_clients=32, over_requests=150,
        drain_clients=12, drain_requests=1_000,
    ),
}

#: per-read backend latency in the overload case — holds admission slots
#: long enough that offered concurrency, not socket overhead, is what
#: the watermark sees
OVERLOAD_BACKEND_LATENCY_S = 0.01
#: sustainable concurrency in the overload case (the watermark); the
#: fleet is sized at several times this
OVERLOAD_WATERMARK = 4
BATCH_TENANT = "batch"
RANKING_TENANT = "ranking"


def _run_fleet(
    port: int,
    n_clients: int,
    requests_per_client: int,
    n_keys: int,
    high_fraction: float,
    deadline_s: float,
    tenant_by_priority: dict[str, str] | None = None,
) -> LoadReport:
    """A closed-loop Zipfian fleet over HTTP, by priority class.

    The first ``high_fraction`` of the clients send ``X-Priority: high``
    (a deployed ranking model), the rest ``best_effort`` (a batch
    backfill), and each class is reported separately: past saturation
    the two populations must experience overload differently. A class
    shares one ``FeatureClient`` (its connections are per thread) whose
    tenant comes from ``tenant_by_priority``. Clients are non-retrying,
    so the *server's* decisions are what is measured: a retry would hide
    a shed and amplify offered load.
    """
    n_high = round(n_clients * high_fraction)
    classes = ["high"] * n_high + ["best_effort"] * (n_clients - n_high)
    tenants = tenant_by_priority or {}
    clients = {
        priority: FeatureClient(
            ClientConfig(
                port=port,
                tenant=tenants.get(priority),
                priority=priority,
                default_deadline_s=deadline_s,
                retry=RetryPolicy(max_retries=0),
            )
        )
        for priority in set(classes)
    }
    try:
        return run_closed_loop(
            lambda c, key: clients[classes[c]].get_features("profile", key),
            LoadConfig(
                n_clients=n_clients,
                requests_per_client=requests_per_client,
                n_keys=n_keys,
            ),
            classes,
        )
    finally:
        for client in clients.values():
            client.close()


def _class_records(report: LoadReport) -> dict[str, dict]:
    """Each class's JSON record. A 429 (``throttled``) is the tenant
    quota's refusal; a 503 (``overloaded`` from the watermark, or
    ``unavailable`` from a draining server) is a shed."""
    return {
        label: {
            "requests": c.requests,
            "success_rate": round(c.success_rate, 4),
            "throttled": c.outcomes.get("throttled", 0),
            "shed": c.outcomes.get("overloaded", 0)
            + c.outcomes.get("unavailable", 0),
            "p50_ms": round(c.p50_ms, 3),
            "p99_ms": round(c.p99_ms, 3),
        }
        for label, c in report.by_class.items()
    }


def _shed_rate(records: dict[str, dict], total_requests: int) -> float:
    """Share of all requests refused with a 429 or a 503."""
    refused = sum(r["throttled"] + r["shed"] for r in records.values())
    return refused / total_requests if total_requests else 0.0


def _populate(n_keys: int) -> OnlineStore:
    store = OnlineStore()
    store.create_namespace("profile")
    now = time.time()
    for eid in range(n_keys):
        store.write(
            "profile",
            eid,
            {"score": eid * 0.5, "clicks": float(eid % 7)},
            event_time=now,
        )
    return store


def run_baseline_case(sizing: dict) -> dict:
    """Latency floor: generous admission, all-high Zipfian fleet."""
    store = _populate(sizing["n_keys"])
    gateway = ServingGateway(store)
    server = FeatureServer(gateway)
    server.start()
    try:
        report = _run_fleet(
            server.port,
            n_clients=sizing["base_clients"],
            requests_per_client=sizing["base_requests"],
            n_keys=sizing["n_keys"],
            high_fraction=1.0,
            deadline_s=1.0,
            tenant_by_priority={"high": RANKING_TENANT},
        )
    finally:
        server.stop()
        gateway.stop()
    records = _class_records(report)
    return {
        "n_clients": sizing["base_clients"],
        "total_requests": report.total_requests,
        "qps": round(report.qps, 1),
        "p50_ms": round(report.p50_ms, 3),
        "p99_ms": round(report.p99_ms, 3),
        "success_rate": records["high"]["success_rate"],
        "shed_rate": round(_shed_rate(records, report.total_requests), 4),
    }


def run_overload_case(sizing: dict) -> dict:
    """Offered concurrency at ~``n_clients / watermark``x the sustainable
    depth: the watermark sheds best-effort (503), the batch tenant's
    token bucket throttles it (429), high priority rides through."""
    store = _populate(sizing["n_keys"])
    slow = FaultInjectingOnlineStore(
        store, FaultPolicy(base_latency_s=OVERLOAD_BACKEND_LATENCY_S)
    )
    # no cache: every read pays the backend latency, so admission sees
    # the true offered concurrency instead of a cache-collapsed trickle
    gateway = ServingGateway(slow, config=GatewayConfig(enable_cache=False))
    n_clients = sizing["over_clients"]
    server = FeatureServer(
        gateway,
        ServerConfig(
            admission=AdmissionConfig(
                # hard cap covers the whole fleet: high priority is never
                # capacity-shed, only the watermark bites (best-effort)
                max_inflight=n_clients + 4,
                shed_watermark=OVERLOAD_WATERMARK,
                tenant_quotas={
                    BATCH_TENANT: QuotaConfig(rate=100.0, burst=8)
                },
            )
        ),
    )
    server.start()
    try:
        report = _run_fleet(
            server.port,
            n_clients=n_clients,
            requests_per_client=sizing["over_requests"],
            n_keys=sizing["n_keys"],
            high_fraction=0.5,
            # generous relative to the latency floor: "high priority
            # succeeds within deadline" must measure admission policy,
            # not single-core scheduler jitter
            deadline_s=2.5,
            tenant_by_priority={
                "high": RANKING_TENANT,
                "best_effort": BATCH_TENANT,
            },
        )
        admission = server.admission.snapshot()
    finally:
        server.stop()
        gateway.stop()
    records = _class_records(report)
    return {
        "n_clients": n_clients,
        "watermark": OVERLOAD_WATERMARK,
        "saturation_x": round(n_clients / OVERLOAD_WATERMARK, 1),
        "total_requests": report.total_requests,
        "qps": round(report.qps, 1),
        "shed_rate": round(_shed_rate(records, report.total_requests), 4),
        "inflight_peak": admission["inflight_peak"],
        "by_priority": records,
    }


def run_drain_case(sizing: dict) -> dict:
    """``ServiceGroup.stop()`` mid-load: zero dropped in-flight
    responses, zero leaked threads."""
    store = _populate(sizing["n_keys"])
    slow = FaultInjectingOnlineStore(store, FaultPolicy(base_latency_s=0.005))
    threads_before = threading.active_count()
    gateway = ServingGateway(slow)
    server = FeatureServer(gateway, ServerConfig(drain_deadline_s=10.0))
    group = ServiceGroup(name="e21-drain")
    group.add(gateway)
    group.add(server)
    group.start()

    loadgen_done = threading.Event()

    def background_load() -> None:
        _run_fleet(
            server.port,
            n_clients=sizing["drain_clients"],
            requests_per_client=sizing["drain_requests"],
            n_keys=sizing["n_keys"],
            high_fraction=0.5,
            deadline_s=1.0,
        )
        loadgen_done.set()

    loader = threading.Thread(target=background_load, daemon=True)
    loader.start()
    # let the fleet establish steady state, then drain mid-flight
    in_load = await_condition(lambda: server.requests.value > 40, 10.0)
    group.stop()
    stopped_cleanly = loadgen_done.wait(timeout=30.0)
    loader.join(timeout=5.0)

    admitted = server.admission.admitted.value
    completed = server.completed.value
    threads_restored = await_condition(
        lambda: threading.active_count() <= threads_before, 10.0
    )
    return {
        "n_clients": sizing["drain_clients"],
        "drained_mid_load": bool(in_load),
        "requests_before_drain": server.requests.value,
        "admitted": admitted,
        "completed": completed,
        "dropped_inflight": admitted - completed,
        "leaked_threads": (
            0
            if threads_restored
            else threading.active_count() - threads_before
        ),
        "loadgen_exited": bool(stopped_cleanly),
    }


def run_suite(scale: str = "default") -> dict:
    sizing = SCALES[scale]
    return {
        "bench": "e21_network_serving",
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "baseline": run_baseline_case(sizing),
        "overload": run_overload_case(sizing),
        "drain": run_drain_case(sizing),
    }


def check_acceptance(results: dict) -> list[str]:
    """Hard bars this bench must clear; empty list means accepted."""
    failures: list[str] = []
    baseline = results["baseline"]
    if baseline["success_rate"] < 0.99:
        failures.append(
            f"baseline success rate {baseline['success_rate']} < 0.99"
        )
    overload = results["overload"]
    high = overload["by_priority"]["high"]
    best_effort = overload["by_priority"]["best_effort"]
    if high["success_rate"] < 0.99:
        failures.append(
            "high priority did not ride through overload: "
            f"success {high['success_rate']} < 0.99"
        )
    if best_effort["shed"] == 0:
        failures.append("overload produced no 503 watermark sheds")
    if best_effort["throttled"] == 0:
        failures.append("overload produced no 429 quota throttles")
    if overload["shed_rate"] <= 0.0:
        failures.append("overall overload shed rate is zero")
    drain = results["drain"]
    if drain["dropped_inflight"] != 0:
        failures.append(
            f"drain dropped {drain['dropped_inflight']} in-flight responses"
        )
    if drain["leaked_threads"] != 0:
        failures.append(f"drain leaked {drain['leaked_threads']} threads")
    if not drain["drained_mid_load"]:
        failures.append("drain case stopped before load was established")
    return failures


def write_json(results: dict, path: pathlib.Path = RESULTS_PATH) -> pathlib.Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


# -- pytest entry point -------------------------------------------------------


def test_e21_network_serving(report):
    scale = "full" if os.environ.get("REPRO_BENCH_FULL") else "default"
    results = run_suite(scale)
    write_json(results)

    baseline = results["baseline"]
    overload = results["overload"]
    drain = results["drain"]
    high = overload["by_priority"]["high"]
    best_effort = overload["by_priority"]["best_effort"]
    report.line("E21: network serving plane — baseline / overload / drain")
    report.line(f"(written to {RESULTS_PATH.relative_to(RESULTS_PATH.parents[2])})")
    report.line(
        f"baseline ({baseline['n_clients']} clients): "
        f"{baseline['qps']} req/s, p50 {baseline['p50_ms']}ms "
        f"p99 {baseline['p99_ms']}ms, "
        f"success {baseline['success_rate']:.2%}"
    )
    report.line(
        f"overload ({overload['n_clients']} clients, "
        f"{overload['saturation_x']}x watermark): "
        f"shed rate {overload['shed_rate']:.1%}, "
        f"inflight peak {overload['inflight_peak']}"
    )
    report.table(
        ["class", "requests", "success", "429s", "503s", "p99 ms"],
        [
            [
                "high",
                high["requests"],
                high["success_rate"],
                high["throttled"],
                high["shed"],
                high["p99_ms"],
            ],
            [
                "best_effort",
                best_effort["requests"],
                best_effort["success_rate"],
                best_effort["throttled"],
                best_effort["shed"],
                best_effort["p99_ms"],
            ],
        ],
    )
    report.line(
        f"drain ({drain['n_clients']} clients): "
        f"{drain['requests_before_drain']} requests in, "
        f"admitted {drain['admitted']} == completed {drain['completed']}, "
        f"dropped {drain['dropped_inflight']}, "
        f"leaked threads {drain['leaked_threads']}"
    )

    failures = check_acceptance(results)
    assert failures == [], failures

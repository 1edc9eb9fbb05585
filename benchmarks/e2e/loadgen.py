"""The load generator: spawns the SUT, drives it over HTTP, checks every reply.

Closed loop, because the callers of a feature store are model servers that
wait for the reply: ``N_CLIENTS`` threads, one keep-alive ``FeatureClient``
connection each, every request ``X-Priority: high`` with a one-second
deadline and no client retries (a refused or failed request must count, not
be hidden). There are never more client threads than cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic_ns

from repro.net import ClientConfig, FeatureClient
from repro.runtime import RetryPolicy

import workloads
from stack import CACHE_TTL_S, DEADLINE_S
from tracing import search_key
from workloads import NAMESPACE, Op

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORK_DIR = HERE / ".work"
#: a store applies an acknowledged write this long after the ack at most;
#: with CACHE_TTL_S it bounds how long a pre-write value may still be served
APPLY_GRACE_S = 0.25


class SutProcess:
    """The SUT child and its control channel; ``setup_s`` is spawn to listening."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.root_dir = WORK_DIR / f"sut-{os.getpid()}-{monotonic_ns()}"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            ready = self.command("setup", root_dir=str(self.root_dir))
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port: int = ready["port"]

    def command(self, cmd: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"SUT exited with code {self.process.wait()} during {cmd!r}"
            )
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(f"SUT refused {cmd!r}: {reply.get('error')}")
        return reply

    def shutdown(self) -> dict:
        """Orderly stop; the reply counts threads and fds the stack leaked."""
        try:
            reply = self.command("shutdown")
            reply["exit_code"] = self.process.wait(timeout=30)
            return reply
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child is gone and its files with it (idempotent)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            pipe.close()
        shutil.rmtree(self.root_dir, ignore_errors=True)

    def __enter__(self) -> "SutProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


@dataclass
class OpRecord:
    kind: str
    start: int  # monotonic ns
    end: int
    verdict: str  # "ok" | "stale" | "wrong" | "failed"
    probe: bool = False

    @property
    def good(self) -> bool:
        return self.verdict in ("ok", "stale")


@dataclass
class PhaseResult:
    per_client: list[list[OpRecord]]
    spans: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    loadgen_cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def records(self) -> list[OpRecord]:
        return [record for client in self.per_client for record in client]


class Loadgen:
    """Runs phases of a workload against one SUT and remembers what it wrote."""

    def __init__(self, port: int, plans: list[workloads.ClientPlan]) -> None:
        self.plans = plans
        self.query_lists = [plan.queries.tolist() for plan in plans]
        self.clients = [
            FeatureClient(
                ClientConfig(
                    port=port, priority="high", default_deadline_s=DEADLINE_S,
                    retry=RetryPolicy(max_retries=0),
                )
            )
            for __ in plans
        ]
        # write bookkeeping; a key has one writer, so no entry is contended
        self.issued: dict[int, int] = {}
        self.acked: dict[int, int] = {}
        self.ack_time: dict[tuple[int, int], float] = {}
        #: (client, query index) -> ids the SUT returned, for recall
        self.search_ids: dict[tuple[int, int], list[int]] = {}

    def close(self) -> None:
        for client in self.clients:
            client.close()

    # -- one operation, checked -------------------------------------------------

    def _get(self, client: FeatureClient, key: int) -> str:
        floor = self.acked.get(key, 0)
        asked_at = time.monotonic()
        features = client.get_features(NAMESPACE, key)
        ceiling = self.issued.get(key, 0)
        if not features or "f1" not in features:
            return "wrong"
        sequence = int(features["f1"])
        if features != workloads.expected_features(key, sequence):
            return "wrong"
        if floor <= sequence <= ceiling:
            return "ok"
        if sequence > ceiling:
            return "wrong"
        # a pre-write value: tolerated only while the cache may still hold it
        superseded_at = min(
            self.ack_time[(key, s)]
            for s in range(sequence + 1, floor + 1)
            if (key, s) in self.ack_time
        )
        fresh_enough = asked_at - superseded_at < CACHE_TTL_S + APPLY_GRACE_S
        return "stale" if fresh_enough else "wrong"

    def _put(self, client: FeatureClient, key: int) -> str:
        sequence = self.issued.get(key, 0) + 1
        self.issued[key] = sequence
        client.write_features(
            NAMESPACE, key, workloads.expected_features(key, sequence),
            event_time=workloads.event_time(sequence),
        )
        self.ack_time[(key, sequence)] = time.monotonic()
        self.acked[key] = sequence
        return "ok"

    def _search(self, index: int, client: FeatureClient, key: int) -> str:
        reply = client.search_vectors(
            workloads.VECTOR_TABLE, self.query_lists[index][key], k=workloads.SEARCH_K
        )
        self.search_ids[(index, key)] = reply["ids"]
        whole = not reply["partial"] and len(reply["ids"]) == workloads.SEARCH_K
        return "ok" if whole else "wrong"

    def _run_client(
        self, index: int, ops: list[Op], gate: threading.Barrier,
        out: list[OpRecord], spans: list[tuple] | None, errors: list[str],
    ) -> None:
        client = self.clients[index]
        gate.wait()
        for op in ops:
            start = monotonic_ns()
            try:
                if op.kind == "get":
                    verdict = self._get(client, op.key)
                elif op.kind == "put":
                    verdict = self._put(client, op.key)
                else:
                    verdict = self._search(index, client, op.key)
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                verdict = "failed"
                if len(errors) < 5:
                    errors.append(f"{op.kind} {op.key}: {exc!r}")
            end = monotonic_ns()
            out.append(OpRecord(op.kind, start, end, verdict, op.probe))
            if spans is not None:
                key = (
                    search_key(self.query_lists[index][op.key])
                    if op.kind == "search"
                    else f"{op.kind}:{op.key}"
                )
                spans.append(("client", op.kind, key, start, end))

    def run_phase(self, which: str, traced: bool = False) -> PhaseResult:
        """Run every client's ``which`` ops (``warmup``/``measured``/``traced``)."""
        result = PhaseResult(per_client=[[] for __ in self.plans])
        gate = threading.Barrier(len(self.plans))
        threads = [
            threading.Thread(
                target=self._run_client,
                args=(
                    index, getattr(plan, which), gate, result.per_client[index],
                    result.spans if traced else None, result.errors,
                ),
                name=f"loadgen-{index}",
            )
            for index, plan in enumerate(self.plans)
        ]
        cpu, wall = time.process_time(), time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.loadgen_cpu_s = time.process_time() - cpu
        result.wall_s = time.perf_counter() - wall
        return result

    # -- after the last ack -------------------------------------------------------

    def read_back(self) -> tuple[int, int, int]:
        """GET every written key; returns (attempted, failed, acked writes lost)."""
        failed = lost = 0
        client = self.clients[0]
        for key in sorted(self.issued):
            try:
                features = client.get_features(NAMESPACE, key)
                sequence = int(features["f1"])
                if features != workloads.expected_features(key, sequence):
                    failed += 1
                elif sequence < self.acked.get(key, 0):
                    lost += 1
                elif sequence > self.issued[key]:
                    failed += 1
            except Exception:  # noqa: BLE001 - any failure is a failed op
                failed += 1
        return len(self.issued), failed, lost

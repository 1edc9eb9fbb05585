"""The system under test, as a child process driven over stdin/stdout.

The parent (``run.py``) sends one JSON object per line and reads one JSON
reply per line: ``setup``, ``trace_on``, ``trace_dump``, ``snapshot``,
``verify_logs``, ``shutdown``. Data-plane traffic never uses this channel;
it goes over real HTTP to the port ``setup`` returns. Closing stdin makes the
child exit, so a dead parent cannot leave it behind.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import stack


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


def _peak_rss_mb() -> float:
    # not ru_maxrss: Linux carries that across exec, so it would start at the
    # size of the load generator that spawned this process
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _log_files(node) -> dict[str, Path]:
    """A node's segment files, by path relative to its log directory."""
    root = Path(node.config.data_dir) / "log"
    return {str(p.relative_to(root)): p for p in sorted(root.glob("partition-*/*.seg"))}


def snapshot(sut: stack.Stack) -> dict:
    """What the program itself reports, read through its public surface."""
    cache = sut.gateway.cache.stats()
    batcher = sut.gateway.batcher
    cluster = sut.cluster.snapshot()
    nodes = sut.cluster.nodes.values()
    for node in nodes:
        node.log.flush()  # file sizes then count every appended byte
    tables = sut.vectors.snapshot()["tables"].values()
    io = {
        name: sum(entry["value"] for entry in entries)
        for name, entries in sut.cluster_registry.snapshot().items()
        if name.startswith("io_")
    }
    return {
        "cpu_s": time.process_time(),
        "peak_rss_mb": _peak_rss_mb(),
        "cache": {
            "hits": cache.hits, "misses": cache.misses,
            "evictions": cache.evictions, "invalidations": cache.invalidations,
        },
        "batches": batcher.batches.value,
        "batched_requests": batcher.batched_requests.value,
        "client_retries": sum(
            routes["wrong_owner_retries"] + routes["unreachable_retries"]
            for routes in (c.snapshot() for c in sut.online.clients)
        ),
        "writes_acked": sum(n["writes_acked"] for n in cluster["nodes"].values()),
        "replication_lag_records": max(
            (lag for n in cluster["nodes"].values()
             for lag in n["lag_by_follower"].values()),
            default=0,
        ),
        "store_reads": sum(node.store.read_count for node in nodes),
        "log_bytes": sum(
            p.stat().st_size for node in nodes for p in _log_files(node).values()
        ),
        "search_partials": sum(t.get("partials", 0) for t in tables),
        "cluster_io": io,
    }


def verify_logs(sut: stack.Stack, timeout_s: float) -> dict:
    """Wait for every store to apply its log, then compare replica logs.

    A follower's segment files must equal its leader's byte for byte.
    """
    applied = sut.cluster.wait_applied(timeout_s=timeout_s)
    nodes = sut.cluster.nodes
    mismatched = []
    for node in nodes.values():
        node.log.flush()
    for node_id, node in nodes.items():
        if node_id.endswith("/n0"):
            continue
        leader = nodes[node_id.rsplit("/", 1)[0] + "/n0"]
        mine, theirs = _log_files(node), _log_files(leader)
        if mine.keys() != theirs.keys() or any(
            mine[name].read_bytes() != theirs[name].read_bytes() for name in mine
        ):
            mismatched.append(node_id)
    return {"applied": applied, "parity": not mismatched, "mismatched": mismatched}


def main() -> int:
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # nothing but replies may reach the parent's pipe
    baseline = {"threads": threading.active_count(), "fds": _fd_count()}
    sut: stack.Stack | None = None

    def reply(**fields) -> None:
        channel.write(json.dumps(fields) + "\n")
        channel.flush()

    try:
        for line in sys.stdin:
            request = json.loads(line)
            command = request["cmd"]
            if command == "setup":
                sut = stack.build(Path(request["root_dir"]))
                reply(ok=True, port=sut.server.port, pid=os.getpid())
            elif command == "trace_on":
                sut.tracer.enabled = True
                reply(ok=True)
            elif command == "trace_dump":
                spans, events = sut.tracer.dump()
                reply(ok=True, spans=spans, events=events)
            elif command == "snapshot":
                reply(ok=True, **snapshot(sut))
            elif command == "verify_logs":
                reply(ok=True, **verify_logs(sut, request["timeout_s"]))
            elif command == "shutdown":
                sut.close()
                sut = None
                reply(
                    ok=True,
                    leaked_threads=threading.active_count() - baseline["threads"],
                    leaked_fds=_fd_count() - baseline["fds"],
                )
                return 0
            else:
                reply(ok=False, error=f"unknown command {command!r}")
    finally:
        if sut is not None:  # parent went away or a command raised
            sut.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

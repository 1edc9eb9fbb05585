"""Layer probes: direct calls into one layer's public function on canned input.

Single-threaded, a fixed iteration count, the median of five repeats. A
probe prices one call with nothing else running, so it compares two
versions of one function; it says nothing about waiting under load, which
only the traced pass shows.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bus import BusRecord, SegmentLog, encode_record
from repro.cluster.socket_transport import decode_wire_value, encode_wire_value
from repro.codec import adc_topk, make_codec
from repro.net import AdmissionController, Priority
from repro.net.http_io import HttpRequestParser, serialize_response
from repro.net.protocol import JSON_CONTENT_TYPE, dump_json
from repro.serving import ReadThroughCache
from repro.storage.online import OnlineStore

import workloads

REPEATS = 5

_GET = (
    b"GET /v1/features/features/1234 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
    b"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
    b"Accept: application/json\r\nX-Deadline-Ms: 999\r\nX-Priority: high\r\n\r\n"
)


def _per_call_us(fn, iterations: int) -> float:
    """Median over REPEATS of the mean time of one call, in microseconds."""
    samples = []
    for __ in range(REPEATS):
        started = time.perf_counter()
        for __ in range(iterations):
            fn()
        samples.append((time.perf_counter() - started) / iterations * 1e6)
    return statistics.median(samples)


def run(work_dir: Path) -> dict[str, float]:
    """Every probe metric, by its per-layer name."""
    features = workloads.expected_features(1234, 7)
    record = BusRecord(
        entity_id=1234, timestamp=workloads.event_time(7), value=features["value"],
        attributes={k: v for k, v in features.items() if k != "value"},
    )
    out: dict[str, float] = {}

    parser = HttpRequestParser(max_body_bytes=1_000_000)
    out["net.parse_us"] = _per_call_us(lambda: parser.feed(_GET), 10_000)
    reply = {"namespace": workloads.NAMESPACE, "entity_id": 1234, "features": features}
    out["net.serialize_us"] = _per_call_us(
        lambda: serialize_response(200, dump_json(reply), JSON_CONTENT_TYPE), 10_000
    )
    admission = AdmissionController()

    def admit() -> None:
        admission.try_admit("anonymous", Priority.HIGH)
        admission.release()

    out["net.admit_us"] = _per_call_us(admit, 10_000)

    cache = ReadThroughCache(capacity=1024, ttl=3600.0, hot_capacity=128)
    for key in range(1024):
        cache.put(("feat", workloads.NAMESPACE, key), features)
    out["serving.cache_lookup_us"] = _per_call_us(
        lambda: cache.lookup(("feat", workloads.NAMESPACE, 500)), 20_000
    )

    # the frame a leader ships to its follower for one write
    message = {
        "src": "shard-0/n0", "dst": "shard-0/n1", "kind": "replicate",
        "payload": {"partition": 0, "base_offset": 4096,
                    "frames": [encode_record(record)]},
    }
    wire = json.dumps({**message, "payload": encode_wire_value(message["payload"])})
    out["cluster.wire_bytes_per_frame"] = float(len(wire.encode("utf-8")))
    out["cluster.wire_encode_us"] = _per_call_us(
        lambda: json.dumps(
            {**message, "payload": encode_wire_value(message["payload"])}
        ).encode("utf-8"),
        10_000,
    )
    out["cluster.wire_decode_us"] = _per_call_us(
        lambda: decode_wire_value(json.loads(wire)["payload"]), 10_000
    )

    out["bus.encode_record_us"] = _per_call_us(lambda: encode_record(record), 20_000)
    with tempfile.TemporaryDirectory(dir=work_dir) as directory:
        with SegmentLog(directory, n_partitions=2, segment_bytes=1 << 20) as log:
            out["bus.append_us"] = _per_call_us(lambda: log.append(0, record), 4_000)

    store = OnlineStore()
    store.create_namespace(workloads.NAMESPACE)
    for key in range(1024):
        store.write(workloads.NAMESPACE, key, features, 1.0)
    out["storage.read_us"] = _per_call_us(
        lambda: store.read(workloads.NAMESPACE, 500), 20_000
    )
    out["storage.write_us"] = _per_call_us(
        lambda: store.write(workloads.NAMESPACE, 500, features, 2.0), 20_000
    )

    # one shard of the served table: 10,000 x 64 int8 codes
    rng = np.random.default_rng(workloads.VECTOR_TABLE_SEED)
    block = rng.standard_normal((10_000, workloads.VECTOR_DIM))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    codec = make_codec("int8").train(block)
    coded = codec.encode(block)
    query = block[0]
    out["codec.int8_scan_us"] = _per_call_us(
        lambda: adc_topk(codec, coded, query, workloads.SEARCH_K), 200
    )
    return out

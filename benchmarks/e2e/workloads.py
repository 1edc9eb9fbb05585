"""Sizes, seeded operation sequences and expected values for the e2e benchmark.

Everything the load generator sends is decided here, from ``--seed`` alone;
the system under test receives only the requests. Every workload is a fixed
operation *count* (not a duration): replicated write throughput on this
stack decays as the logs grow, so two commits only walk through the same
states when they run the same operations from the same start state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: why each workload exists; the names are the benchmark's public vocabulary
WORKLOADS: dict[str, str] = {
    "read_hot": (
        "Zipf(1.1) point GETs over a key set that fits the gateway cache: net "
        "and the serving cache do the work; cluster, bus and storage are bypassed"
    ),
    "read_cold": (
        "uniform point GETs over 4x the cache: each miss walks batcher, "
        "cluster client, socket transport, node and store; the cache is bypassed"
    ),
    "vector_search": (
        "k=10 searches with fresh float-list queries: vecserve scatter-gather, "
        "the int8 scan and JSON float decode dominate; the cluster stays idle"
    ),
    "write_replicated": (
        "PUTs, each appended on its leader and shipped to a follower before the "
        "ack: the cluster write path and its framing; caches are bypassed"
    ),
    "mixed": (
        "80% GET / 15% PUT / 5% search: writes invalidate cached reads and slow "
        "ops share the worker pool, so a gain that costs another op type shows"
    ),
}

#: operation counts at scale 1.0 (about FULL_SECONDS of measurement each at
#: the speed of the commit that introduced the benchmark)
FULL_OPS = {
    "read_hot": 30_000,
    "read_cold": 15_000,
    "vector_search": 5_000,
    "write_replicated": 5_000,
    "mixed": 12_000,
}
FULL_SECONDS = 16.0

N_CLIENTS = 2
N_BLOCKS = 5
WARMUP_SHARE = 0.10
TRACED_SHARE = 0.20
#: in the traced pass every Nth PUT is followed by a GET of the same key
STALE_PROBE_EVERY = 20
RECALL_SAMPLE = 200

NAMESPACE = "features"
VECTOR_TABLE = "items"
VECTOR_ROWS = 20_000
VECTOR_DIM = 64
VECTOR_TABLE_SEED = 2021
SEARCH_K = 10
#: event times are a function of the write sequence, so log bytes repeat exactly
EVENT_TIME_BASE = 1_000_000.0


#: the feature key space and the gateway caches over it. A quarter of the
#: sizes the benchmark was specified with (4,096 entities, 1,024 + 128 cache
#: entries, 1,000 hot keys): the set-up is timed three times in every run, and
#: preloading 4,096 replicated writes takes about 7 s each time. The ratios
#: that separate the workloads are kept: the hot keys fit the cache, and the
#: whole key space is four times the cache.
ENTITIES = 1024
HOT_KEYS = 250
CACHE_CAPACITY = 256
HOT_CAPACITY = 32


def op_counts(scale: float) -> dict[str, int]:
    """Every workload's operation count, shrunk by one common factor."""
    if not 0 < scale <= 4:
        raise ValueError(f"scale must be in (0, 4] ({scale=})")
    per_round = N_CLIENTS * N_BLOCKS  # keeps blocks and clients equal
    return {
        name: max(int(full * scale) // per_round, 2) * per_round
        for name, full in FULL_OPS.items()
    }


def expected_features(entity_id: int, sequence: int) -> dict[str, float]:
    """The feature values of an entity after its ``sequence``-th write.

    A pure function, so a GET can be checked without remembering what was
    written: ``f1`` names the write and ``f2`` must agree with it.
    """
    return {
        "value": float(entity_id),
        "f1": float(sequence),
        "f2": float((entity_id * 31 + sequence * 17) % 1009) / 8.0,
    }


def event_time(sequence: int) -> float:
    return EVENT_TIME_BASE + sequence


def vector_table() -> tuple[np.ndarray, np.ndarray]:
    """The served table: part of the SUT's fixed configuration, not of the seed."""
    rng = np.random.default_rng(VECTOR_TABLE_SEED)
    return np.arange(VECTOR_ROWS), rng.standard_normal((VECTOR_ROWS, VECTOR_DIM))


@dataclass(frozen=True)
class Op:
    kind: str  # "get" | "put" | "search"
    key: int  # entity id, or index into the client's query matrix
    probe: bool = False  # a stale-after-ack GET issued right after a PUT


@dataclass
class ClientPlan:
    """One client's share of a workload."""

    measured: list[Op]
    traced: list[Op]
    queries: np.ndarray  # (n, VECTOR_DIM); Op.key indexes it for searches

    @property
    def warmup(self) -> list[Op]:
        return self.measured[: max(int(len(self.measured) * WARMUP_SHARE), 1)]


def _zipf_sampler(rng: np.random.Generator, keys: np.ndarray, s: float):
    weights = 1.0 / np.arange(1, len(keys) + 1) ** s
    weights /= weights.sum()
    return lambda n: keys[rng.choice(len(keys), size=n, p=weights)]


def _client_ops(
    name: str, rng: np.random.Generator, client: int, n: int,
    ranked: np.ndarray, query_base: int,
) -> list[Op]:
    """``n`` operations for one client; ``ranked`` orders keys by popularity."""
    # a key is only ever written by the client with its parity, which makes
    # the order of writes to one key, and so its final value, deterministic
    owned = ranked[ranked % N_CLIENTS == client]
    if name == "read_hot":
        keys = _zipf_sampler(rng, ranked[:HOT_KEYS], 1.1)(n)
        return [Op("get", int(k)) for k in keys]
    if name == "read_cold":
        keys = ranked[rng.integers(0, len(ranked), size=n)]
        return [Op("get", int(k)) for k in keys]
    if name == "vector_search":
        return [Op("search", query_base + i) for i in range(n)]
    if name == "write_replicated":
        keys = _zipf_sampler(rng, owned, 1.0)(n)
        return [Op("put", int(k)) for k in keys]
    if name == "mixed":
        draw = rng.random(n)
        gets = _zipf_sampler(rng, ranked, 1.0)(n)
        puts = _zipf_sampler(rng, owned, 1.0)(n)
        ops, searches = [], 0
        for i in range(n):
            if draw[i] < 0.80:
                ops.append(Op("get", int(gets[i])))
            elif draw[i] < 0.95:
                ops.append(Op("put", int(puts[i])))
            else:
                ops.append(Op("search", query_base + searches))
                searches += 1
        return ops
    raise ValueError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")


def _with_stale_probes(ops: list[Op]) -> list[Op]:
    out, puts = [], 0
    for op in ops:
        out.append(op)
        if op.kind == "put":
            puts += 1
            if puts % STALE_PROBE_EVERY == 0:
                out.append(Op("get", op.key, probe=True))
    return out


def build_plans(name: str, seed: int, scale: float) -> list[ClientPlan]:
    """The whole workload, per client: equal seeds give equal plans."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")
    root = np.random.SeedSequence([seed, sorted(WORKLOADS).index(name)])
    rank_seed, *client_seeds = root.spawn(1 + N_CLIENTS)
    ranked = np.random.default_rng(rank_seed).permutation(ENTITIES)
    per_client = op_counts(scale)[name] // N_CLIENTS
    traced = max(int(per_client * TRACED_SHARE), 1)
    plans = []
    for client, client_seed in enumerate(client_seeds):
        rng = np.random.default_rng(client_seed)
        measured = _client_ops(name, rng, client, per_client, ranked, 0)
        n_queries = sum(op.kind == "search" for op in measured)
        extra = _client_ops(name, rng, client, traced, ranked, n_queries)
        n_queries += sum(op.kind == "search" for op in extra)
        plans.append(
            ClientPlan(
                measured=measured,
                traced=_with_stale_probes(extra),
                queries=rng.standard_normal((max(n_queries, 1), VECTOR_DIM)),
            )
        )
    return plans


def exact_top_k(table: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact cosine top-k row ids, the reference recall is measured against."""
    rows = table / np.linalg.norm(table, axis=1, keepdims=True)
    scores = rows @ (queries / np.linalg.norm(queries, axis=1, keepdims=True)).T
    return np.argsort(-scores, axis=0)[:k].T

import numpy as np
import pytest

import workloads


def _flat(plans):
    return [
        (client, phase, op.kind, op.key, op.probe)
        for client, plan in enumerate(plans)
        for phase in ("measured", "traced")
        for op in getattr(plan, phase)
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_equal_seeds_give_equal_plans_and_other_seeds_differ(name):
    first = workloads.build_plans(name, 42, 0.05)
    again = workloads.build_plans(name, 42, 0.05)
    other = workloads.build_plans(name, 43, 0.05)
    assert _flat(first) == _flat(again)
    assert all(np.array_equal(a.queries, b.queries) for a, b in zip(first, again))
    if name == "vector_search":  # its ops are just 0..n; the queries carry the seed
        assert not np.array_equal(first[0].queries, other[0].queries)
    else:
        assert _flat(first) != _flat(other)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_split_evenly_over_clients_and_blocks(name):
    total = workloads.op_counts(0.05)[name]
    plans = workloads.build_plans(name, 1, 0.05)
    assert len(plans) == workloads.N_CLIENTS
    assert sum(len(p.measured) for p in plans) == total
    assert all(len(p.measured) % workloads.N_BLOCKS == 0 for p in plans)
    assert all(p.warmup == p.measured[: len(p.warmup)] for p in plans)


@pytest.mark.parametrize("name", ["write_replicated", "mixed"])
def test_a_key_has_one_writer(name):
    for client, plan in enumerate(workloads.build_plans(name, 5, 0.25)):
        written = {op.key for op in plan.measured + plan.traced if op.kind == "put"}
        assert written and all(key % workloads.N_CLIENTS == client for key in written)


def test_workload_key_sets_separate_the_cache():
    hot = {op.key for p in workloads.build_plans("read_hot", 1, 0.25) for op in p.measured}
    cold = {op.key for p in workloads.build_plans("read_cold", 1, 0.25) for op in p.measured}
    assert len(hot) <= workloads.HOT_KEYS <= workloads.CACHE_CAPACITY
    assert len(cold) > 3 * workloads.CACHE_CAPACITY


def test_every_twentieth_put_of_the_traced_pass_is_probed():
    plan = workloads.build_plans("write_replicated", 1, 1.0)[0]
    puts = [i for i, op in enumerate(plan.traced) if op.kind == "put"]
    probes = [i for i, op in enumerate(plan.traced) if op.probe]
    assert len(probes) == len(puts) // workloads.STALE_PROBE_EVERY
    for i in probes:
        assert plan.traced[i].kind == "get"
        assert plan.traced[i - 1] == workloads.Op("put", plan.traced[i].key)
    assert not any(op.probe for op in plan.measured)


def test_expected_features_name_their_write():
    a, b = workloads.expected_features(9, 1), workloads.expected_features(9, 2)
    assert a["value"] == b["value"] == 9.0
    assert (a["f1"], b["f1"]) == (1.0, 2.0) and a["f2"] != b["f2"]


def test_exact_top_k_is_cosine():
    table = np.array([[1.0, 0.0], [0.0, 5.0], [3.0, 3.0]])
    assert workloads.exact_top_k(table, np.array([[0.1, 0.0]]), 2).tolist() == [[0, 2]]

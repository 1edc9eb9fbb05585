import json
import re

import pytest

import loadgen
import run
import workloads
from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_meets_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert len(SPEC["per_layer"]) <= 128 and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_untraced_run_yields_exactly_the_end_to_end_metrics(untraced_smoke):
    assert set(untraced_smoke["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced_smoke["metrics"].values())
    assert untraced_smoke["checks"]["correct"], untraced_smoke["checks"]


def test_traced_run_yields_exactly_the_per_layer_metrics(traced_smoke):
    assert set(traced_smoke["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    run._with_units(traced_smoke["metrics"], SPEC["per_layer"])  # none missing


def test_smoke_round_trips_writes_and_separates_layers(traced_smoke):
    checks, layers = traced_smoke["checks"], traced_smoke["metrics"]
    assert checks["correct"], checks
    assert checks["failed"] == 0 and checks["acked_writes_lost"] == 0
    assert checks["replication_parity"] and checks["logs_applied"]
    assert checks["search_recall_at_10"] >= 0.95
    # a PUT costs one put and one replicate request, a missed GET one get
    assert layers["cluster.transport_replicate_per_op"]["value"] == pytest.approx(
        layers["cluster.transport_put_per_op"]["value"], rel=0.25
    )
    assert layers["bus.log_bytes_per_acked_write"]["value"] > 0
    assert abs(layers["trace.residual_share"]["value"]) <= 0.10
    assert layers["trace.unmatched_share"]["value"] <= 0.05


def test_sut_child_leaks_nothing_and_exits_cleanly(traced_smoke, untraced_smoke):
    for result in (traced_smoke, untraced_smoke):
        checks = result["checks"]
        assert checks["sut_leaked_threads"] == 0 and checks["sut_leaked_fds"] == 0
        assert not any(checks["sut_exit_codes"])


def test_sut_child_is_killed_when_the_loadgen_fails():
    with pytest.raises(RuntimeError, match="loadgen broke"):
        with loadgen.SutProcess() as sut:
            process, root_dir = sut.process, sut.root_dir
            assert process.poll() is None and root_dir.exists()
            raise RuntimeError("loadgen broke")
    assert process.poll() is not None
    assert not root_dir.exists()


def _document(ops_per_s, spread=0.01):
    metrics = {
        m["name"]: {"value": 1.0, "spread": 0.01, "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    metrics["ops_per_s"] = {"value": ops_per_s, "spread": spread, "unit": "1/s"}
    return {"workloads": {"read_hot": {"end_to_end": metrics}}}


def test_compare_gives_a_verdict_per_workload_and_metric():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "ops_per_s")
    verdict = lambda change, **kw: {  # noqa: E731
        r["metric"]: r for r in run.compare(_document(1000.0), _document(change, **kw), SPEC)
    }["ops_per_s"]
    assert verdict(1000.0 * (1 - bound / 2))["verdict"] == "ok"
    assert verdict(1000.0 * (1 + 2 * bound))["verdict"] == "ok"  # higher is better
    slower = verdict(1000.0 * (1 - 1.5 * bound))
    assert slower["verdict"] == "regressed"
    assert slower["ratio"] == pytest.approx(1 - 1.5 * bound) and slower["base"] == 1000.0
    assert verdict(500.0, spread=2 * bound)["verdict"] == "unresolved"
    rows = run.compare(_document(1000.0), _document(1000.0), SPEC)
    assert len(rows) == len(SPEC["end_to_end"])

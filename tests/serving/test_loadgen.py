"""Tests for repro.serving.loadgen and repro.datagen.workloads."""

import time

import numpy as np
import pytest

from repro.clock import SimClock
from repro.datagen.workloads import (
    ZipfianWorkloadConfig,
    generate_zipfian_keys,
    theoretical_hit_rate,
    zipf_probabilities,
)
from repro.errors import ValidationError
from repro.net import (
    AdmissionConfig,
    ClientConfig,
    FeatureClient,
    FeatureServer,
    QuotaConfig,
    ServerConfig,
)
from repro.runtime import RetryPolicy
from repro.serving import (
    GatewayConfig,
    LoadConfig,
    LoadReport,
    ServingGateway,
    run_closed_loop,
)
from repro.storage.online import OnlineStore


class TestZipfianWorkload:
    def test_probabilities_sum_to_one_and_decay(self):
        probs = zipf_probabilities(100, 1.0)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.diff(probs) < 0)

    def test_uniform_at_zero_skew(self):
        probs = zipf_probabilities(10, 0.0)
        np.testing.assert_allclose(probs, 0.1)

    def test_keys_in_range_and_deterministic(self):
        config = ZipfianWorkloadConfig(n_keys=50, n_requests=2000, skew=1.0)
        first = generate_zipfian_keys(config, seed=3)
        again = generate_zipfian_keys(config, seed=3)
        np.testing.assert_array_equal(first, again)
        assert first.min() >= 0 and first.max() < 50
        assert len(first) == 2000

    def test_skew_concentrates_mass(self):
        config = ZipfianWorkloadConfig(
            n_keys=1000, n_requests=20_000, skew=1.0, shuffle_ranks=False
        )
        keys = generate_zipfian_keys(config, seed=0)
        top_share = np.mean(keys < 10)  # ranks 0..9 without shuffling
        assert top_share > 0.35  # head-heavy vs 1% under uniform

    def test_shuffle_breaks_rank_identity(self):
        config = ZipfianWorkloadConfig(n_keys=1000, n_requests=20_000, skew=1.0)
        keys = generate_zipfian_keys(config, seed=0)
        assert np.mean(keys < 10) < 0.2  # popular ids are scattered

    def test_theoretical_hit_rate(self):
        assert theoretical_hit_rate(1000, 1.0, 0) == 0.0
        assert theoretical_hit_rate(1000, 1.0, 1000) == pytest.approx(1.0)
        small = theoretical_hit_rate(1000, 1.0, 10)
        large = theoretical_hit_rate(1000, 1.0, 100)
        assert 0 < small < large < 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValidationError):
            generate_zipfian_keys(ZipfianWorkloadConfig(n_requests=0))


@pytest.mark.slow
class TestClosedLoop:
    def test_report_shape_against_gateway(self):
        store = OnlineStore(clock=SimClock(0.0))
        store.create_namespace("ns")
        for i in range(100):
            store.write("ns", i, {"v": float(i)}, event_time=0.0)
        with ServingGateway(store, config=GatewayConfig(n_workers=2)) as gateway:
            report = run_closed_loop(
                lambda __, key: gateway.get_features("ns", key),
                LoadConfig(
                    n_clients=4, requests_per_client=50, n_keys=100, seed=1
                ),
            )
        assert isinstance(report, LoadReport)
        assert report.total_requests == 200
        assert report.errors == 0
        assert report.qps > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert len(report.row("label")) == 5
        assert report.by_class["all"].outcomes == {"ok": 200}

    def test_errors_are_counted_not_raised(self):
        def failing(_client, _key):
            raise RuntimeError("boom")

        report = run_closed_loop(
            failing, LoadConfig(n_clients=2, requests_per_client=10, n_keys=5)
        )
        assert report.errors == 20
        assert report.total_requests == 20

    def test_outcomes_are_counted_per_class(self):
        """A raised exception counts under its ``code`` when it has one,
        else its class name; ``classes[i]`` labels client ``i``."""

        class Throttled(Exception):
            code = "throttled"

        def call(client, key):
            if client == 0:
                return key
            if client == 1:
                raise Throttled()
            if key % 2:
                raise RuntimeError("boom")
            return key

        config = LoadConfig(n_clients=3, requests_per_client=40, n_keys=10)
        report = run_closed_loop(call, config, ["a", "a", "b"])
        # client 2's key stream is the driver's, seeded by seed + client
        odd = int(
            (
                generate_zipfian_keys(
                    ZipfianWorkloadConfig(n_keys=10, n_requests=40), seed=2
                )
                % 2
            ).sum()
        )
        assert 0 < odd < 40
        assert list(report.by_class) == ["a", "b"]
        assert report.by_class["a"].outcomes == {"ok": 40, "throttled": 40}
        assert report.by_class["a"].requests == 80
        assert report.by_class["a"].success_rate == 0.5
        assert report.by_class["b"].outcomes == {
            "ok": 40 - odd,
            "RuntimeError": odd,
        }
        ok = sum(c.ok for c in report.by_class.values())
        assert report.errors == report.total_requests - ok == 40 + odd

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            run_closed_loop(lambda c, k: k, LoadConfig(n_clients=0))
        with pytest.raises(ValidationError, match="classes"):
            run_closed_loop(
                lambda c, k: k, LoadConfig(n_clients=2), ["high"]
            )

    def test_wire_outcomes_from_a_tenant_quota(self):
        """Over HTTP, a non-retrying client against a burst-N quota that
        barely refills sees exactly N ``ok`` and the rest ``throttled``
        (the code decoded off the error envelope)."""
        store = OnlineStore()
        store.create_namespace("ns")
        for i in range(20):
            store.write("ns", i, {"v": float(i)}, event_time=time.time())
        burst = 7
        with ServingGateway(store) as gateway:
            server = FeatureServer(
                gateway,
                ServerConfig(
                    admission=AdmissionConfig(
                        tenant_quotas={
                            "batch": QuotaConfig(rate=1e-6, burst=burst)
                        }
                    )
                ),
            )
            server.start()
            client = FeatureClient(
                ClientConfig(
                    port=server.port,
                    tenant="batch",
                    default_deadline_s=2.0,
                    retry=RetryPolicy(max_retries=0),
                )
            )
            try:
                report = run_closed_loop(
                    lambda c, key: client.get_features("ns", key),
                    LoadConfig(n_clients=2, requests_per_client=10, n_keys=20),
                    ["batch", "batch"],
                )
            finally:
                client.close()
                server.stop()
        assert report.by_class["batch"].outcomes == {
            "ok": burst,
            "throttled": 20 - burst,
        }
        assert report.errors == 20 - burst

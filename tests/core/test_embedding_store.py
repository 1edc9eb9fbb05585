"""Tests for repro.core.embedding_store."""

import numpy as np
import pytest
from scipy.stats import ortho_group

from repro.clock import SimClock
from repro.core.embedding_store import EmbeddingStore, Provenance
from repro.embeddings.base import EmbeddingMatrix
from repro.errors import CompatibilityError, NotRegisteredError, ValidationError


@pytest.fixture
def store():
    return EmbeddingStore(clock=SimClock(start=50.0))


@pytest.fixture(scope="module")
def base_embedding():
    rng = np.random.default_rng(0)
    return EmbeddingMatrix(vectors=rng.normal(size=(80, 8)))


def prov(trainer="sgns", parent=None):
    return Provenance(trainer=trainer, config={"dim": 8}, seed=0, parent_version=parent)


class TestRegistration:
    def test_versions_increment(self, store, base_embedding):
        a = store.register("words", base_embedding, prov())
        b = store.register("words", base_embedding, prov(parent=1))
        assert (a.version, b.version) == (1, 2)
        assert a.key == "words:v1"

    def test_created_at_from_clock(self, store, base_embedding):
        record = store.register("words", base_embedding, prov())
        assert record.created_at == 50.0

    def test_first_version_basic_metrics(self, store, base_embedding):
        record = store.register("words", base_embedding, prov())
        assert record.metrics["n"] == 80.0
        assert record.metrics["dim"] == 8.0
        assert "knn_jaccard_vs_previous" not in record.metrics

    def test_second_version_quality_metrics(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        record = store.register("words", base_embedding, prov(parent=1))
        assert record.metrics["knn_jaccard_vs_previous"] == pytest.approx(1.0)
        assert record.metrics["mean_displacement_vs_previous"] == pytest.approx(
            0.0, abs=1e-8
        )

    def test_retrained_version_shows_displacement(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        rng = np.random.default_rng(9)
        retrained = EmbeddingMatrix(vectors=rng.normal(size=(80, 8)))
        record = store.register("words", retrained, prov(parent=1))
        assert record.metrics["knn_jaccard_vs_previous"] < 0.5
        assert record.metrics["mean_displacement_vs_previous"] > 0.2

    def test_dim_change_skips_displacement(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        wider = EmbeddingMatrix(vectors=np.zeros((80, 16)))
        record = store.register("words", wider, prov(parent=1))
        assert "mean_displacement_vs_previous" not in record.metrics

    def test_vocabulary_change_rejected(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        with pytest.raises(ValidationError):
            store.register(
                "words", EmbeddingMatrix(vectors=np.zeros((10, 8))), prov()
            )

    def test_lookup_errors(self, store, base_embedding):
        with pytest.raises(NotRegisteredError):
            store.get("ghost")
        store.register("words", base_embedding, prov())
        with pytest.raises(NotRegisteredError):
            store.get("words", 7)


class TestProvenance:
    def test_chain_follows_parents(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        store.register("words", base_embedding, prov(parent=1))
        store.register("words", base_embedding, prov(parent=2))
        chain = store.provenance_chain("words", 3)
        assert [r.version for r in chain] == [3, 2, 1]

    def test_chain_root_only(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        assert [r.version for r in store.provenance_chain("words", 1)] == [1]


class TestCompatibility:
    def test_same_version_always_compatible(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        vectors = store.vectors_for_model("words", 1, np.array([0, 1]))
        np.testing.assert_array_equal(vectors, base_embedding.vectors[:2])

    def test_new_version_blocked_by_default(self, store, base_embedding):
        """E9: an updated embedding must not silently reach an old model."""
        store.register("words", base_embedding, prov())
        rng = np.random.default_rng(1)
        store.register(
            "words", EmbeddingMatrix(vectors=rng.normal(size=(80, 8))), prov(parent=1)
        )
        with pytest.raises(CompatibilityError):
            store.vectors_for_model("words", 1, np.array([0]))

    def test_override_serves_anyway(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        store.register("words", base_embedding, prov(parent=1))
        vectors = store.vectors_for_model(
            "words", 1, np.array([0]), override=True
        )
        assert vectors.shape == (1, 8)

    def test_mark_compatible_unblocks(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        store.register("words", base_embedding, prov(parent=1))
        store.mark_compatible("words", 1, 2)
        vectors = store.vectors_for_model("words", 1, np.array([0]))
        assert vectors.shape == (1, 8)

    def test_explicit_serve_version(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        store.register("words", base_embedding, prov(parent=1))
        vectors = store.vectors_for_model(
            "words", 1, np.array([0]), serve_version=1
        )
        np.testing.assert_array_equal(vectors[0], base_embedding.vectors[0])

    def test_entity_range_validated(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        with pytest.raises(ValidationError):
            store.vectors_for_model("words", 1, np.array([999]))


class TestAlignAndRegister:
    def test_alignment_restores_compatibility(self, store, base_embedding):
        """The paper's remedy: align the retrained embedding onto the old
        basis, then serve it to old models."""
        store.register("words", base_embedding, prov())
        rotation = ortho_group.rvs(8, random_state=2)
        rotated = EmbeddingMatrix(vectors=base_embedding.vectors @ rotation)
        store.register("words", rotated, prov(parent=1))  # v2: retrained

        aligned = store.align_and_register("words", source_version=2, target_version=1)
        assert aligned.version == 3
        assert store.is_compatible("words", 1, 3)
        vectors = store.vectors_for_model(
            "words", 1, np.arange(80), serve_version=3
        )
        np.testing.assert_allclose(vectors, base_embedding.vectors, atol=1e-8)

    def test_aligned_version_has_provenance(self, store, base_embedding):
        store.register("words", base_embedding, prov())
        store.register("words", base_embedding, prov(parent=1))
        aligned = store.align_and_register("words", 2, 1)
        assert aligned.provenance.trainer == "procrustes_alignment"
        assert aligned.provenance.parent_version == 2
        assert "aligned" in aligned.tags


class TestResidentBytesGauge:
    def test_resident_bytes_per_name_and_total(self, base_embedding):
        store = EmbeddingStore(clock=SimClock(start=0.0))
        store.register("words", base_embedding, prov())
        store.register("words", base_embedding, prov(parent=1))
        per_version = base_embedding.memory_bytes()
        assert store.resident_bytes("words") == 2 * per_version
        assert store.resident_bytes() == 2 * per_version
        with pytest.raises(NotRegisteredError):
            store.resident_bytes("ghost")

    def test_gauge_tracks_registrations(self, base_embedding):
        from repro.runtime.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        store = EmbeddingStore(clock=SimClock(start=0.0), registry=registry)
        store.register("words", base_embedding, prov())
        gauge = registry.gauge("embedding_store_resident_bytes", table="words")
        assert gauge.value == base_embedding.memory_bytes()
        store.register("words", base_embedding, prov(parent=1))
        assert gauge.value == 2 * base_embedding.memory_bytes()

    def test_no_registry_is_fine(self, base_embedding):
        store = EmbeddingStore(clock=SimClock(start=0.0))
        record = store.register("words", base_embedding, prov())
        assert record.version == 1

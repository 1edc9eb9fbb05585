"""The embedding store: embeddings as first-class feature-store citizens.

This is the system the paper argues for (sections 3-4): "the next evolution
of a feature store is one with native support for embeddings. ... Users need
tools for searching and querying these embeddings as well as support for
versioning, provenance, and downstream quality metrics."

The store provides:

* **versioning** — immutable, monotonically numbered versions per embedding
  name;
* **provenance** — every version records its trainer, config, data snapshot
  and parent version;
* **quality metrics** — on registration, each version is automatically
  compared against its predecessor (neighbourhood Jaccard, aligned
  displacement) and the scores are stored;
* **search** — through a :class:`repro.vecserve.VectorService` built on
  the store (``VectorService(embeddings=store).enable(name, ...)``), which
  serves each version as a sharded k-NN table;
* **compatibility enforcement** — serving a version to a model pinned to a
  different version raises :class:`~repro.errors.CompatibilityError` unless
  the pair was explicitly marked compatible (the paper's "dot product ...
  can lose meaning" hazard, experiment E9).
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.clock import Clock, WallClock
from repro.embeddings.base import EmbeddingMatrix
from repro.embeddings.metrics import (
    align_procrustes,
    eigenspace_overlap_score,
    neighborhood_jaccard,
    semantic_displacement,
)
from repro.errors import (
    CompatibilityError,
    NotRegisteredError,
    ValidationError,
)
from repro.runtime.telemetry import MetricsRegistry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Provenance:
    """How an embedding version was produced."""

    trainer: str
    config: dict[str, object] = field(default_factory=dict)
    data_snapshot: str = ""
    seed: int | None = None
    parent_version: int | None = None


@dataclass(frozen=True)
class EmbeddingVersion:
    """One immutable stored embedding version."""

    name: str
    version: int
    embedding: EmbeddingMatrix
    provenance: Provenance
    created_at: float
    metrics: dict[str, float] = field(default_factory=dict)
    tags: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.name}:v{self.version}"


class EmbeddingStore:
    """Versioned, provenance-tracked embedding registry with serving.

    Thread safety: registration, compatibility mutation and the
    serve-count bookkeeping are guarded by an internal
    :class:`threading.RLock`, so the serving gateway's worker pool can
    call :meth:`vectors_for_model` concurrently with registrations
    without corrupting the version lists.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        quality_knn_k: int = 10,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self._clock = clock or WallClock()
        self._versions: dict[str, list[EmbeddingVersion]] = {}
        self._compatible: set[tuple[str, int, int]] = set()
        self._lock = threading.RLock()
        self._register_listeners: list = []
        self.quality_knn_k = quality_knn_k
        self.read_count = 0  # serving-side reads (vectors_for_model)
        # Optional telemetry: per-table resident bytes as a live gauge,
        # so a compression win (or an accidental fp64 blow-up) shows in
        # the metrics export, not just in a benchmark artifact.
        self.registry = registry

    # -- registration listeners -----------------------------------------------

    def add_register_listener(self, callback) -> None:
        """Subscribe ``callback(EmbeddingVersion)`` to new registrations.

        Listeners fire *after* the version is committed and outside the
        store lock, so a listener may immediately read the store (e.g.
        the vector service building a served index for the new version).
        """
        with self._lock:
            self._register_listeners.append(callback)

    def remove_register_listener(self, callback) -> None:
        with self._lock:
            if callback in self._register_listeners:
                self._register_listeners.remove(callback)

    # -- registration --------------------------------------------------------

    def register(
        self,
        name: str,
        embedding: EmbeddingMatrix,
        provenance: Provenance,
        tags: tuple[str, ...] = (),
    ) -> EmbeddingVersion:
        """Store a new version; computes against-predecessor quality metrics.

        All versions of a name must share the vocabulary size (row count);
        dimension may change across versions (retraining at a new dim), in
        which case cross-version metrics are skipped.
        """
        with self._lock:
            versions = self._versions.setdefault(name, [])
            if versions and versions[-1].embedding.n != embedding.n:
                raise ValidationError(
                    f"embedding {name!r}: row count {embedding.n} != existing "
                    f"{versions[-1].embedding.n}; versions must share a vocabulary"
                )
            metrics: dict[str, float] = {
                "n": float(embedding.n),
                "dim": float(embedding.dim),
                "mean_norm": float(np.linalg.norm(embedding.vectors, axis=1).mean()),
            }
            if versions:
                previous = versions[-1].embedding
                if previous.n > self.quality_knn_k:
                    metrics["knn_jaccard_vs_previous"] = neighborhood_jaccard(
                        previous, embedding, k=self.quality_knn_k
                    )
                if previous.dim == embedding.dim:
                    displacement = semantic_displacement(previous, embedding)
                    metrics["mean_displacement_vs_previous"] = float(
                        displacement.mean()
                    )
                    metrics["max_displacement_vs_previous"] = float(
                        displacement.max()
                    )

            record = EmbeddingVersion(
                name=name,
                version=len(versions) + 1,
                embedding=embedding,
                provenance=provenance,
                created_at=self._clock.now(),
                metrics=metrics,
                tags=tuple(tags),
            )
            versions.append(record)
            listeners = list(self._register_listeners)
            if self.registry is not None:
                self.registry.gauge(
                    "embedding_store_resident_bytes", table=name
                ).set(sum(v.embedding.memory_bytes() for v in versions))
        logger.info(
            "registered embedding %s (trainer=%s, n=%d, dim=%d)",
            record.key, provenance.trainer, embedding.n, embedding.dim,
        )
        for listener in listeners:  # outside the lock: listeners may read back
            listener(record)
        return record

    def get(self, name: str, version: int | None = None) -> EmbeddingVersion:
        with self._lock:
            versions = self._versions.get(name)
            if not versions:
                raise NotRegisteredError(
                    f"no embedding {name!r}; have {sorted(self._versions)}"
                )
            if version is None:
                return versions[-1]
            if not 1 <= version <= len(versions):
                raise NotRegisteredError(
                    f"embedding {name!r} has versions 1..{len(versions)}, "
                    f"not {version}"
                )
            return versions[version - 1]

    def latest_version(self, name: str) -> int:
        return self.get(name).version

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    def resident_bytes(self, name: str | None = None) -> int:
        """Raw-matrix bytes held by one embedding name (all its versions)
        or by the whole store — the number the
        ``embedding_store_resident_bytes`` gauge tracks per table."""
        with self._lock:
            names = [name] if name is not None else sorted(self._versions)
            total = 0
            for key in names:
                if key not in self._versions:
                    raise NotRegisteredError(f"no embedding {key!r}")
                total += sum(
                    record.embedding.memory_bytes()
                    for record in self._versions[key]
                )
            return total

    def versions(self, name: str) -> list[EmbeddingVersion]:
        with self._lock:
            if name not in self._versions:
                raise NotRegisteredError(f"no embedding {name!r}")
            return list(self._versions[name])

    def provenance_chain(self, name: str, version: int) -> list[EmbeddingVersion]:
        """Follow parent_version links back to the root, newest first."""
        chain = []
        current: int | None = version
        while current is not None:
            record = self.get(name, current)
            chain.append(record)
            current = record.provenance.parent_version
        return chain

    # -- compatibility & serving ---------------------------------------------

    def mark_compatible(self, name: str, model_version: int, serve_version: int) -> None:
        """Declare that vectors of ``serve_version`` may feed models pinned
        to ``model_version`` (e.g. after Procrustes alignment or a verified
        no-op retrain)."""
        with self._lock:
            self.get(name, model_version)
            self.get(name, serve_version)
            self._compatible.add((name, model_version, serve_version))

    def is_compatible(self, name: str, model_version: int, serve_version: int) -> bool:
        if model_version == serve_version:
            return True
        with self._lock:
            return (name, model_version, serve_version) in self._compatible

    def vectors_for_model(
        self,
        name: str,
        pinned_version: int,
        entity_ids: np.ndarray,
        serve_version: int | None = None,
        override: bool = False,
    ) -> np.ndarray:
        """Serve embedding rows to a model pinned to ``pinned_version``.

        By default the *latest* version is served (that is the point of
        centralized embedding management — consumers get updates for free),
        but only if it is compatible with the pinned version; otherwise a
        :class:`CompatibilityError` explains the mismatch. ``override=True``
        bypasses the check, reproducing the paper's failure mode on purpose.
        """
        serve = self.get(name, serve_version)
        with self._lock:
            self.read_count += 1
        if not override and not self.is_compatible(name, pinned_version, serve.version):
            raise CompatibilityError(
                f"model pinned to {name}:v{pinned_version} cannot consume "
                f"{serve.key}: versions not marked compatible. Re-train the "
                "model, align the embedding, or mark_compatible() explicitly."
            )
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        if len(entity_ids) and (
            entity_ids.min() < 0 or entity_ids.max() >= serve.embedding.n
        ):
            raise ValidationError("entity ids out of range for this embedding")
        return serve.embedding.vectors[entity_ids]

    # -- version selection -----------------------------------------------------

    def select_version(
        self,
        name: str,
        evaluate,
        screen_with_eos: bool = False,
        eos_reference_version: int | None = None,
        eos_keep: int = 3,
        max_bytes: int | None = None,
    ) -> tuple[EmbeddingVersion, dict[int, float]]:
        """Pick the best stored version for a downstream task.

        Paper section 3.1.2: users need to "search over possible embeddings
        and select the best ones for their task". ``evaluate`` maps an
        :class:`EmbeddingMatrix` to a score (higher = better) — typically a
        quick downstream fit on held-out data.

        With ``screen_with_eos=True`` the candidates are first ranked by
        eigenspace overlap against a reference version (May et al.'s cheap
        predictor of downstream performance) and only the top ``eos_keep``
        are evaluated for real — the screening pattern that makes selection
        affordable when evaluation is expensive.

        ``max_bytes`` enforces the "memory constraints" half of the paper's
        sentence: versions whose raw matrix exceeds the budget are excluded
        before any screening or evaluation.

        Returns the winning version and the score of every version that was
        actually evaluated.
        """
        versions = self.versions(name)
        candidates = list(versions)
        if max_bytes is not None:
            candidates = [
                record
                for record in candidates
                if record.embedding.memory_bytes() <= max_bytes
            ]
            if not candidates:
                raise ValidationError(
                    f"no version of {name!r} fits within {max_bytes} bytes"
                )
        if screen_with_eos and len(candidates) > eos_keep:
            if eos_keep < 1:
                raise ValidationError(f"eos_keep must be >= 1 ({eos_keep=})")
            reference = self.get(name, eos_reference_version)
            scored = sorted(
                candidates,
                key=lambda record: eigenspace_overlap_score(
                    reference.embedding, record.embedding
                ),
                reverse=True,
            )
            candidates = scored[:eos_keep]

        scores: dict[int, float] = {}
        for record in candidates:
            scores[record.version] = float(evaluate(record.embedding))
        best_version = max(scores, key=scores.get)  # type: ignore[arg-type]
        return self.get(name, best_version), scores

    def align_and_register(
        self,
        name: str,
        source_version: int,
        target_version: int,
        tags: tuple[str, ...] = ("aligned",),
    ) -> EmbeddingVersion:
        """Procrustes-align one version onto another and store the result.

        The registered version is automatically marked compatible with
        ``target_version`` — alignment is exactly what makes an updated
        embedding safe for models trained on the old basis.
        """
        source = self.get(name, source_version)
        target = self.get(name, target_version)
        aligned = align_procrustes(source.embedding, target.embedding)
        record = self.register(
            name,
            aligned,
            Provenance(
                trainer="procrustes_alignment",
                config={"source": source_version, "target": target_version},
                parent_version=source_version,
            ),
            tags=tags,
        )
        self.mark_compatible(name, target_version, record.version)
        return record

"""The embedding store lifecycle (paper sections 3 and 4).

Demonstrates what "embeddings as first-class citizens" buys:

1. versioned registration with automatic quality metrics and provenance,
2. similarity search: a ``VectorService`` serves the version (one exact
   scan per shard),
3. the stale-embedding hazard — a retrained embedding served to an old model
   is blocked by the compatibility check (and demonstrably harmful when
   overridden),
4. Procrustes alignment as the remedy, and
5. patching tail-entity rows once, improving every downstream model.

Run:  python examples/embedding_lifecycle.py
"""

from __future__ import annotations

import numpy as np

from repro import CompatibilityError, EmbeddingStore, Provenance, SimClock
from repro.datagen import (
    KBConfig,
    MentionConfig,
    generate_entity_task,
    generate_kb,
    generate_mentions,
)
from repro.embeddings import train_entity_embeddings
from repro.models import LogisticRegression
from repro.monitoring import EmbeddingDriftMonitor
from repro.ned import tail_entity_ids
from repro.patching import EmbeddingPatcher
from repro.vecserve import VectorService


def main() -> None:
    rng = np.random.default_rng(0)
    store = EmbeddingStore(clock=SimClock(start=0.0))

    # 1. Train and register v1 of an entity embedding.
    kb = generate_kb(KBConfig(n_entities=800, n_types=12, n_aliases=160), seed=0)
    sample = generate_mentions(kb, MentionConfig(n_mentions=5000), seed=0)
    mentions, __ = sample.split(0.9, seed=1)
    entity_emb, token_emb = train_entity_embeddings(
        mentions, kb.n_entities, sample.vocabulary.size, dim=32
    )
    v1 = store.register(
        "product_entities",
        entity_emb,
        Provenance(trainer="ppmi_svd", config={"dim": 32}, data_snapshot="mentions@d1", seed=0),
    )
    print(f"registered {v1.key}: metrics {{n: {v1.metrics['n']:.0f}, "
          f"dim: {v1.metrics['dim']:.0f}}}")

    # 2. Similarity search: the vector service serves v1.
    with VectorService(embeddings=store) as service:
        service.enable("product_entities", n_shards=1)
        hits = service.search("product_entities", entity_emb.vectors[3], k=5)
    print(f"k-NN search for entity 3's vector -> neighbours {hits.ids.tolist()}")

    # 3. A downstream model trains against v1 and pins it.
    task = generate_entity_task(5000, kb.types, n_classes=kb.n_types, seed=1)
    train, test = task.split(0.7, seed=0)
    model = LogisticRegression(epochs=200).fit(
        store.vectors_for_model("product_entities", v1.version, train.entity_ids),
        train.labels,
    )
    baseline = float(np.mean(
        model.predict(entity_emb.vectors[test.entity_ids]) == test.labels
    ))
    print(f"downstream model accuracy on v1: {baseline:.3f}")

    # 4. The embedding team retrains from scratch (new random basis). The
    #    drift monitor sees it; the compatibility check blocks serving it.
    retrained_raw, __ = train_entity_embeddings(
        mentions, kb.n_entities, sample.vocabulary.size, dim=32, shift=2.0
    )
    basis = np.linalg.qr(rng.normal(size=(32, 32)))[0]
    retrained = type(retrained_raw)(vectors=retrained_raw.vectors @ basis)
    v2 = store.register(
        "product_entities",
        retrained,
        Provenance(trainer="ppmi_svd", config={"dim": 32, "shift": 2.0},
                   data_snapshot="mentions@d30", seed=1, parent_version=1),
    )
    report = EmbeddingDriftMonitor(entity_emb).check(retrained)
    print(f"registered {v2.key}: drift monitor says {report.summary()}")

    try:
        store.vectors_for_model("product_entities", v1.version, test.entity_ids)
        raise AssertionError("expected a CompatibilityError")
    except CompatibilityError as error:
        print(f"serving v2 to a v1-pinned model -> blocked: {error}")

    forced = store.vectors_for_model(
        "product_entities", v1.version, test.entity_ids, override=True
    )
    forced_accuracy = float(np.mean(model.predict(forced) == test.labels))
    print(f"override anyway -> accuracy collapses to {forced_accuracy:.3f} "
          "(the paper's 'dot product loses meaning' hazard)")

    # 5. Remedy: align v2 onto v1's basis and serve the aligned version.
    aligned = store.align_and_register("product_entities", source_version=2, target_version=1)
    aligned_vectors = store.vectors_for_model(
        "product_entities", v1.version, test.entity_ids, serve_version=aligned.version
    )
    aligned_accuracy = float(np.mean(model.predict(aligned_vectors) == test.labels))
    print(f"aligned {aligned.key} serves safely -> accuracy {aligned_accuracy:.3f}")

    # 6. Patch the tail: fix rare-entity rows once; the SAME deployed model
    #    improves, as would every other consumer of this embedding.
    tails = tail_entity_ids(mentions, kb.n_entities, tail_threshold=2)
    tail_mask = np.isin(test.entity_ids, tails)
    tail_before = float(np.mean(
        model.predict(entity_emb.vectors[test.entity_ids])[tail_mask]
        == test.labels[tail_mask]
    ))
    patcher = EmbeddingPatcher(kb, sample.vocabulary, token_emb)
    patched = patcher.impute_from_structure(entity_emb, tails)
    v_patched = store.register(
        "product_entities",
        patched.embedding,
        Provenance(trainer="structural_patch", config={"n_patched": len(tails)},
                   parent_version=1),
        tags=("patched",),
    )
    store.mark_compatible("product_entities", v1.version, v_patched.version)
    tail_after = float(np.mean(
        model.predict(patched.embedding.vectors[test.entity_ids])[tail_mask]
        == test.labels[tail_mask]
    ))
    print(f"patched {len(tails)} tail entities ({v_patched.key}): "
          f"tail accuracy {tail_before:.3f} -> {tail_after:.3f} "
          "with the deployed model untouched")

    chain = store.provenance_chain("product_entities", v_patched.version)
    print("provenance chain of the patched version:",
          " -> ".join(r.key for r in chain))


if __name__ == "__main__":
    main()

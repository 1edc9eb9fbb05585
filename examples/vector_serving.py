"""The vector serving plane (paper sections 3-4).

An embedding store answers "which version?"; a serving plane answers
"nearest neighbours, *now*, against the live corpus" — with updates that
are visible immediately, rebuilds that never block a query, and
recall that is measured in production rather than assumed from build
time. This example walks the loop:

1. register an embedding version and serve it, sharded, as int8 codes
   (every shard answers with one exact scan over its codes),
2. query the service directly and through the ServingGateway's
   ``search_neighbors`` endpoint — the same plane either way,
3. upsert fresh vectors and tombstone dead ones — both visible before
   any rebuild (the exact delta serves the young rows),
4. run a blue/green compaction: the next generation is built off to the
   side and swapped in atomically while queries keep flowing,
5. feed mutations through the durable ingestion bus with an
   effectively-once sink (redelivery is harmless),
6. read the online recall estimate from sampled shadow queries and
   render the vector section of the operational dashboard.

Run:  python examples/vector_serving.py
"""

from __future__ import annotations

import numpy as np

from repro.bus.consumer import ConsumedRecord, DedupeWindow
from repro.core.embedding_store import EmbeddingStore, Provenance
from repro.embeddings import EmbeddingMatrix
from repro.monitoring import vector_section
from repro.serving import ServingGateway
from repro.storage.online import OnlineStore
from repro.vecserve import VectorService
from repro.vecserve.bus_sink import (
    VectorUpsertSink,
    tombstone_record,
    upsert_record,
)

DIM = 16
N_ROWS = 400


def main() -> None:
    rng = np.random.default_rng(11)

    # 1. A registered embedding version, served sharded as int8 codes
    #    with an fp32 reserve, so the fully sampled online recall
    #    monitoring measures what quantization loses.
    store = EmbeddingStore()
    vectors = rng.normal(size=(N_ROWS, DIM))
    store.register("products", EmbeddingMatrix(vectors), Provenance(trainer="sgns"))
    with VectorService(embeddings=store) as service:
        service.enable(
            "products",
            n_shards=4, codec="int8", keep_oracle=True,
            sample_rate=1.0, recall_k=10,
        )
        print(f"serving: {service.served_tables()}")

        # 2. Queries route through the plane — from the service's own API
        #    and from the gateway endpoint alike.
        query = vectors[7] + 0.05 * rng.normal(size=DIM)
        via_service = service.search("products", query, k=5)
        gateway = ServingGateway(OnlineStore(), embeddings=store, vectors=service)
        via_gateway = gateway.search_neighbors("products", query, k=5)
        print(f"service route top-5: {via_service.ids.tolist()}")
        print(f"gateway route top-5: {via_gateway.ids.tolist()}")

        # 3. Live mutations: a fresh vector is queryable immediately (it
        #    sits in the exact delta, shadowing the sealed snapshot); a
        #    tombstone masks a row everywhere, also immediately.
        fresh_id, fresh_vector = 9_000, rng.normal(size=DIM)
        service.upsert("products", np.array([fresh_id]), fresh_vector[None, :])
        hit = service.search("products", fresh_vector, k=1)
        print(f"fresh upsert visible pre-compaction: {hit.ids.tolist() == [fresh_id]}")
        service.remove("products", np.array([3]))
        masked = service.search("products", vectors[3], k=5)
        print(f"tombstoned id 3 masked: {3 not in masked.ids.tolist()}")

        # 4. Blue/green compaction: fold the delta into the next sealed
        #    generation off to the side, swap a pointer. Queries never
        #    block on the rebuild (E18 hammers this with reader threads).
        table = service.table("products")
        before = table.max_generation
        stats = service.compact("products")[("products", 1)]
        print(
            f"compacted gen {before} -> {table.max_generation}: "
            f"folded {sum(s.folded_upserts for s in stats)} upsert(s), "
            f"dropped {sum(s.dropped_tombstones for s in stats)} tombstone(s), "
            f"pending after: {table.pending_mutations}"
        )

        # 5. The write path is the log: vector mutations arrive as bus
        #    records and an idempotent sink applies them effectively
        #    once — redelivering the same batch is a no-op.
        batch = [
            ConsumedRecord(0, 0, upsert_record(9_100, rng.normal(size=DIM), 1.0)),
            ConsumedRecord(0, 1, tombstone_record(9_000, 2.0)),
        ]
        sink = VectorUpsertSink(service, "products", dedupe=DedupeWindow())
        applied_first = sink.apply_batch(batch)
        applied_again = sink.apply_batch(batch)  # redelivery after a "crash"
        print(
            f"bus sink applied {applied_first} record(s), "
            f"redelivery applied {applied_again} (dedupe window)"
        )

        # 6. Online quality: every query above was shadowed against the
        #    fp32 reserve (sample_rate=1.0), so recall@10 is a *live*
        #    estimate of the int8 codes, not a build-time one.
        monitor = service.recall_monitor("products")
        print(
            f"online recall@10 = {monitor.recall_estimate():.3f} "
            f"over {monitor.samples.value} shadow sample(s)"
        )
        print()
        print(vector_section(service).render())


if __name__ == "__main__":
    main()

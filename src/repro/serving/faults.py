"""Fault injection for the online store: latency, timeouts, blips.

The in-process :class:`~repro.storage.online.OnlineStore` is a stand-in
for a remote serving tier (Redis, Cassandra, DynamoDB — paper §2.2.2's
"in-memory DBMS"). Real remote tiers have two properties the plain dict
lacks and the gateway must be engineered against:

* **a per-call network round trip** — simulated as ``base_latency_s``
  per store call plus ``per_key_latency_s`` per key. Note the shape: a
  batched ``read_many`` of 64 keys pays the round trip *once*, which is
  exactly the economics that make micro-batching win.
* **transient failures** — with probability ``timeout_rate`` a call
  times out and with ``error_rate`` it fails fast; both raise
  :class:`~repro.errors.TransientStoreError` so the gateway's
  retry/degradation machinery engages.

The policy dataclass and the seeded roll-and-raise engine live in
:mod:`repro.runtime.resilience` (they are shared with the vector plane's
per-shard injector); import :class:`~repro.runtime.FaultPolicy` from
:mod:`repro.runtime`.
"""

from __future__ import annotations

from repro.runtime.resilience import FaultInjector, FaultPolicy
from repro.storage.online import FreshnessPolicy, OnlineStore


class FaultInjectingOnlineStore:
    """Wrap an :class:`OnlineStore`, injecting faults on the read path.

    Everything not intercepted (writes, namespace admin, counters) is
    delegated to the wrapped store untouched, so the wrapper is a drop-in
    replacement anywhere an ``OnlineStore`` is expected.
    """

    def __init__(self, store: OnlineStore, policy: FaultPolicy) -> None:
        self._store = store
        self._injector = FaultInjector(policy)
        self.injected_timeouts = self._injector.injected_timeouts
        self.injected_errors = self._injector.injected_errors
        self.calls = self._injector.calls

    def __getattr__(self, name: str):
        return getattr(self._store, name)

    @property
    def policy(self) -> FaultPolicy:
        return self._injector.policy

    @policy.setter
    def policy(self, policy: FaultPolicy) -> None:
        """Swap the live policy (tests flip a healthy store to 'dark')."""
        policy.validate()
        self._injector.policy = policy

    @property
    def wrapped(self) -> OnlineStore:
        return self._store

    # -- intercepted read path ------------------------------------------------

    def read(
        self,
        namespace: str,
        entity_id: int,
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
    ) -> dict[str, object] | None:
        self._injector.inject(n_keys=1)
        return self._store.read(namespace, entity_id, policy)

    def read_many(
        self,
        namespace: str,
        entity_ids: list[int],
        policy: FreshnessPolicy = FreshnessPolicy.SERVE_ANYWAY,
    ) -> list[dict[str, object] | None]:
        self._injector.inject(n_keys=len(entity_ids))
        return self._store.read_many(namespace, entity_ids, policy)

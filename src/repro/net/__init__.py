"""The network serving plane: HTTP/JSON over the gateway and vectors.

Until this package, every plane of the reproduction lived behind Python
function calls in one process. ``repro.net`` is the process boundary the
paper's serving thesis (§2.2.2, §3) implies and ROADMAP item 2 names:
features and embeddings served to *clients*, over sockets, with the
production teeth a real front end needs. Stdlib-only by design — the
interesting machinery is the policy, not the HTTP parsing.

Four modules, one request path:

* :mod:`repro.net.protocol` — versioned ``/v1`` routes, JSON codecs,
  the retryable-vs-terminal error envelope, bearer-token auth and
  ``X-Deadline-Ms`` → :class:`~repro.runtime.Deadline` propagation;
* :mod:`repro.net.admission` — per-tenant token-bucket quotas (429) and
  watermark load shedding by deadline class (503, best-effort first);
* :mod:`repro.net.server` — :class:`FeatureServer`, a threaded
  :class:`~repro.runtime.Service` over a
  :class:`~repro.serving.ServingGateway` (and its attached vector
  service) with graceful bounded drain under
  :class:`~repro.runtime.ServiceGroup` ordering, plus ``GET
  /v1/metrics`` serving the shared
  :class:`~repro.runtime.MetricsRegistry` in Prometheus or JSON form;
* :mod:`repro.net.client` — :class:`FeatureClient`, envelope-driven
  retries over per-thread keep-alive connections. Bench E21 drives a
  fleet of them through :func:`repro.serving.run_closed_loop`.

Layering contract (rule 5 in ``tools/check_layering.py``): this package
imports serving, vecserve, runtime and errors — and *nothing*
inside ``repro`` imports it back. The network plane is the top of the
DAG; only benchmarks, examples and tests sit above it.
"""

from repro.net.admission import (
    Admission,
    AdmissionConfig,
    AdmissionController,
    Priority,
    QuotaConfig,
    TokenBucket,
    Verdict,
)
from repro.net.client import ClientConfig, FeatureClient
from repro.net.protocol import (
    API_PREFIX,
    AuthError,
    ERROR_SPECS,
    ErrorSpec,
    OverloadedError,
    PayloadTooLargeError,
    ThrottledError,
    decode_error,
    encode_error,
    is_retryable,
    spec_for,
)
from repro.net.server import FeatureServer, ServerConfig

__all__ = [
    "API_PREFIX",
    "Admission",
    "AdmissionConfig",
    "AdmissionController",
    "AuthError",
    "ClientConfig",
    "ERROR_SPECS",
    "ErrorSpec",
    "FeatureClient",
    "FeatureServer",
    "OverloadedError",
    "PayloadTooLargeError",
    "Priority",
    "QuotaConfig",
    "ServerConfig",
    "ThrottledError",
    "TokenBucket",
    "Verdict",
    "decode_error",
    "encode_error",
    "is_retryable",
    "spec_for",
]

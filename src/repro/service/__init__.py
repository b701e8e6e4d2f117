"""Certification as a service: durable proof envelopes, served verdicts.

The PLS model (Korman–Kutten–Peleg 2005) is built for exactly this
split: a marker hands out labels *once*, and verification is cheap,
repeatable, and locationless.  This package turns the in-process scheme
catalog into a long-running verification service:

* :mod:`repro.service.envelope` — the canonical
  :class:`~repro.service.envelope.ProofEnvelope` (scheme name, coerced
  params, graph payload bound by a domain-separated content hash,
  labeling, optional certificates, client nonce) with deterministic
  byte forms, and the anti-replay
  :class:`~repro.service.envelope.NullifierRegistry`;
* :mod:`repro.service.server` — the
  :class:`~repro.service.server.CertificationService`: per-scheme
  parameter validation derived from :class:`~repro.core.catalog.ParamSpec`,
  dispatch through :func:`repro.core.catalog.build`, batched array
  deciders with per-node fallback, a bounded LRU keyed by envelope
  content so hot configurations re-certify with no decode and no
  decider work;
* :mod:`repro.service.httpd` — a stdlib-only threaded HTTP front end
  (``repro serve`` / ``repro submit`` on the CLI) with a bounded
  in-flight gate that answers 429 past saturation;
* :mod:`repro.service.client` — a keep-alive stdlib client
  (:class:`~repro.service.client.CertifyClient`) that streams many
  envelopes over one connection and retries 429s within a bounded
  budget.

Submissions, cache hits, misses, and nullifier rejections all flow
through the :mod:`repro.obs` metrics ledger under ``service.*``
counters.
"""

from repro.service.client import CertifyClient
from repro.service.envelope import (
    ENVELOPE_FORMAT,
    NullifierRegistry,
    ProofEnvelope,
)
from repro.service.server import (
    CertificationResult,
    CertificationService,
    build_envelope,
)

__all__ = [
    "CertificationResult",
    "CertificationService",
    "CertifyClient",
    "ENVELOPE_FORMAT",
    "NullifierRegistry",
    "ProofEnvelope",
    "build_envelope",
]

"""Proof-labeling schemes: the prover/verifier pair.

A scheme for a language ``L`` bundles:

* a **prover** (the paper's *marker*): on a configuration in ``L`` it
  produces certificates that make every node accept (completeness);
* a **verifier** (the paper's *decoder*): a one-round local decision at
  each node over its :class:`~repro.core.verifier.LocalView`;
* a certificate **codec** for honest bit-size accounting (the default is
  the canonical generic codec; schemes can override with a tighter one).

Soundness — on configurations outside ``L`` *every* certificate
assignment leaves at least one rejecting node — is a property of the
pair, exercised experimentally by :mod:`repro.core.soundness`.

Provers here are *total*: on an illegal configuration they return
best-effort certificates instead of raising, because the corruption
experiments want to run verifiers on whatever an honest-but-stale prover
would have produced.  Schemes document their best-effort behaviour.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Mapping

from repro.core.labeling import Configuration
from repro.core.language import DistributedLanguage
from repro.core.verifier import (
    LocalView,
    Verdict,
    Visibility,
    build_views,
    decide,
    refresh_views,
)
from repro.obs import metrics as _metrics
from repro.util.bits import obj_bit_size

__all__ = ["ProofLabelingScheme"]


class ProofLabelingScheme(ABC):
    """Base class for all schemes.

    Subclasses set :attr:`language`, :attr:`name`, optionally
    :attr:`visibility` and :attr:`radius`, and implement :meth:`prove`
    and :meth:`verify`.
    """

    name: str = "scheme"
    visibility: Visibility = Visibility.KKP
    radius: int = 1
    #: Human-readable statement of the theoretical proof-size bound,
    #: e.g. ``"Theta(log n)"`` — used by the reporting tables.
    size_bound: str = "?"

    def __init__(self, language: DistributedLanguage) -> None:
        self.language = language

    # -- the pair -----------------------------------------------------------

    @abstractmethod
    def prove(self, config: Configuration) -> dict[int, Any]:
        """Certificates for every node (total, best-effort off-language)."""

    @abstractmethod
    def verify(self, view: LocalView) -> bool:
        """One-round decision at a node; ``True`` accepts."""

    # -- codec --------------------------------------------------------------

    def certificate_bits(self, certificate: Any) -> int:
        """Size of one certificate in bits (canonical codec by default)."""
        return obj_bit_size(certificate)

    def proof_bits(self, certificates: Mapping[int, Any]) -> tuple[int, int]:
        """``(max_bits, total_bits)`` of ``certificates``, each sized once
        by :meth:`certificate_bits`; ``max_bits`` is their proof size."""
        sizes = list(map(self.certificate_bits, certificates.values()))
        return max(sizes, default=0), sum(sizes)

    # -- running ------------------------------------------------------------

    def run(
        self,
        config: Configuration,
        certificates: Mapping[int, Any] | None = None,
        views: Mapping[int, LocalView] | None = None,
    ) -> Verdict:
        """Verify ``config`` under the given (default: honest) certificates.

        The one decision entry point; it picks the backend from what it
        is given.  Prebuilt ``views`` (see
        :func:`repro.core.verifier.decide`) run the per-node path over
        them — callers that re-verify many related assignments reuse
        views that way.  Otherwise a scheme type with a registered
        batched decider (:mod:`repro.core.batch`) decides in one array
        pass, and everything else — including a
        :class:`~repro.core.batch.BatchFallback` — runs the per-node
        oracle.  The verdict's ``backend`` says which path answered.
        """
        from repro.core.batch import _accept_mask, batch_prove

        if certificates is None:
            with _metrics.span("prove", scheme=self.name):
                certificates = batch_prove(self, config)
        with _metrics.span("decide", scheme=self.name):
            mask = None
            if views is None:
                mask = _accept_mask(self, config, certificates)
            if mask is None:
                return decide(
                    self.verify,
                    config,
                    certificates,
                    visibility=self.visibility,
                    radius=self.radius,
                    views=views,
                )
            return Verdict.from_mask(mask)

    def build_views(
        self, config: Configuration, certificates: Mapping[int, Any]
    ) -> dict[int, LocalView]:
        """Prebuilt views for :meth:`run`'s fast path, under this
        scheme's visibility and radius."""
        return build_views(
            config, certificates, visibility=self.visibility, radius=self.radius
        )

    def refresh_views(
        self,
        config: Configuration,
        certificates: Mapping[int, Any],
        views: Mapping[int, LocalView],
        changed: Iterable[int],
    ) -> dict[int, LocalView]:
        """Views under ``certificates`` given ``views`` of an assignment
        differing only at ``changed`` nodes (shares untouched views)."""
        return refresh_views(
            config,
            certificates,
            views,
            changed,
            visibility=self.visibility,
            radius=self.radius,
        )

    def proof_size_bits(self, config: Configuration) -> int:
        """Proof size (max certificate bits) of the honest certificates."""
        from repro.core.batch import batch_prove

        return self.proof_bits(batch_prove(self, config))[0]

    def __repr__(self) -> str:
        return f"<scheme {self.name} for {self.language.name}>"

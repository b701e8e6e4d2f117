"""Rejection counting: the error-sensitivity decider.

Binary soundness asks *whether* some node rejects; error-sensitivity
(Feuilloley–Fraigniaud 2017) asks *how many*.  This module counts — and
does it on the verifier engine's view-reuse path, because a sensitivity
sweep evaluates hundreds of closely related corrupted labelings of one
base configuration and must not pay O(n) view builds each time.

* :func:`count_rejections` — one-shot count for a configuration;
* :class:`RejectionCounter` — a stateful counter pinned to a base
  configuration and certificate assignment: each :meth:`~RejectionCounter.count`
  of a corrupted labeling refreshes only the views within the scheme's
  radius of an edited node (exactly the
  :func:`~repro.core.verifier.refresh_views` contract the soundness
  adversaries and the ``selfstab`` detection sessions already ride);
* :func:`min_rejections` — the adversarial minimum: error-sensitivity
  quantifies over *all* certificate assignments, so the honest count is
  only an upper bound; the budgeted soundness adversary pushes it down.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping

from repro.core.labeling import Configuration, Labeling
from repro.core.scheme import ProofLabelingScheme
from repro.core.soundness import AttackResult, attack
from repro.core.verifier import Verdict
from repro.errors import SchemeError
from repro.util.rng import make_rng

__all__ = ["RejectionCounter", "count_rejections", "min_rejections"]


def count_rejections(
    scheme: ProofLabelingScheme,
    config: Configuration,
    certificates: Mapping[int, Any] | None = None,
    views: Mapping[int, Any] | None = None,
) -> int:
    """Rejecting nodes under the given (default: honest) certificates."""
    return scheme.run(config, certificates=certificates, views=views).reject_count


class RejectionCounter:
    """Count rejections for many corrupted labelings of one base config.

    The counter builds the base configuration's verification views once;
    every :meth:`count` derives the corrupted configuration via
    :meth:`~repro.core.labeling.Configuration.with_labeling` (sharing the
    view scaffold) and refreshes only the views that can see an edited
    node.  Certificates stay pinned to the base assignment — the
    honest-but-stale reading the self-stabilization campaigns use: the
    prover certified the legal configuration, then the registers drifted.
    Every count verifies on those views, whatever decider the scheme
    has, so its cost shows in the ``views.built`` ledger.
    """

    def __init__(
        self,
        scheme: ProofLabelingScheme,
        config: Configuration,
        certificates: Mapping[int, Any] | None = None,
    ) -> None:
        self.scheme = scheme
        self.base = config
        self.certificates = (
            dict(certificates) if certificates is not None else scheme.prove(config)
        )
        self._views = scheme.build_views(config, self.certificates)

    def verdict(
        self,
        labeling: Labeling | Mapping[int, Any],
        changed: Iterable[int] | None = None,
    ) -> Verdict:
        """Verdict for the base configuration relabeled to ``labeling``.

        ``changed`` is an optional caller-known superset of the edited
        nodes (e.g. a fault injection's victims); omitted, the labeling
        is diffed against the base.
        """
        if not isinstance(labeling, Labeling):
            labeling = Labeling(labeling)
        config = self.base.with_labeling(labeling)
        if changed is None:
            changed = [
                v for v in self.base.graph.nodes
                if labeling[v] != self.base.state(v)
            ]
        else:
            changed = set(changed)
            stale = [v for v in self.base.graph.nodes
                     if v not in changed and labeling[v] != self.base.state(v)]
            if stale:
                raise SchemeError(
                    f"labeling differs outside the declared changed set "
                    f"at nodes {stale[:5]}"
                )
        views = self.scheme.refresh_views(
            config, self.certificates, self._views, changed
        )
        return self.scheme.run(config, certificates=self.certificates, views=views)

    def count(
        self,
        labeling: Labeling | Mapping[int, Any],
        changed: Iterable[int] | None = None,
    ) -> int:
        """Rejection count for ``labeling`` (see :meth:`verdict`)."""
        return self.verdict(labeling, changed).reject_count


def min_rejections(
    scheme: ProofLabelingScheme,
    config: Configuration,
    rng: random.Random | None = None,
    trials: int = 40,
    related: Iterable[Configuration] = (),
) -> AttackResult:
    """Adversarial minimum rejection count on an illegal configuration.

    Error-sensitivity demands ``rejections >= beta * dist`` under *every*
    certificate assignment, so the estimate of record is the smallest
    count the budgeted soundness adversary reaches (``related`` members
    arm its pool with honest certificates to replay).  The returned
    :class:`~repro.core.soundness.AttackResult` exposes it as
    ``min_rejects``.
    """
    return attack(scheme, config, rng=rng or make_rng(), trials=trials,
                  related=related)

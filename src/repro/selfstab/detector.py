"""PLS-based fault detection over self-stabilizing protocol states.

A protocol's registers decompose into an output labeling and a
certificate (see :class:`~repro.selfstab.model.SelfStabProtocol`); the
detector assembles the current configuration from the outputs, takes the
embedded certificates, and runs a scheme's one-round verifier.  An empty
reject set means the system looks legitimate from everywhere; any
non-empty set is a local alarm raised exactly one round after the
verified data went bad — the paper's detection guarantee.

Incremental sweeps
------------------
Silent self-stabilization re-checks the configuration every round,
forever, so the detection loop is the hot path.  Consecutive sweeps of a
(nearly) silent system look at near-identical register files, which is
exactly the situation the verifier engine's
:func:`~repro.core.verifier.refresh_views` reuse path was built for.
:class:`DetectionSession` makes :class:`PlsDetector` stateful: it keeps
the current configuration, certificates, and verification views between
sweeps, diffs the registers handed to each sweep against its snapshot,
and rebuilds only the views within the scheme's radius of a change — a
sweep after ``k`` register changes costs O(ball(k)) view constructions
instead of O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.labeling import Configuration
from repro.core.scheme import ProofLabelingScheme
from repro.core.verifier import Verdict, ViewSet
from repro.errors import SimulationError
from repro.local.network import Network
from repro.obs import metrics as _metrics
from repro.selfstab.model import SelfStabProtocol

__all__ = ["DetectionReport", "DetectionSession", "PlsDetector"]


@dataclass(frozen=True)
class DetectionReport:
    """Result of one detection sweep.

    ``legitimate`` is the ground-truth membership of the output labeling
    — or ``None`` when the sweep skipped the (global, non-local)
    membership check, as the incremental recovery loops do; the
    false-negative/positive properties are then ``False`` (unknown, not
    asserted).
    """

    verdict: Verdict
    legitimate: bool | None  # ground truth: is the output labeling in the language?

    @property
    def alarmed(self) -> bool:
        return not self.verdict.all_accept

    @property
    def false_negative(self) -> bool:
        """Illegal output but nobody alarmed — must never happen."""
        return self.legitimate is False and not self.alarmed

    @property
    def false_positive(self) -> bool:
        """Legal output but alarms anyway.

        Possible in general (the *certificates* may be stale even when
        the output is fine); the experiments report it separately.
        """
        return bool(self.legitimate) and self.alarmed


class PlsDetector:
    """Bind a scheme to a protocol's state decomposition.

    Sweeps verify on prebuilt per-node views, so the campaign cost
    ledgers (``views.built`` per full sweep) keep their audited meaning
    even for schemes with a batched decider.
    """

    def __init__(
        self, scheme: ProofLabelingScheme, protocol: SelfStabProtocol
    ) -> None:
        self.scheme = scheme
        self.protocol = protocol

    def configuration(
        self, network: Network, states: Mapping[int, Any]
    ) -> Configuration:
        contexts = network.contexts()
        outputs = {
            v: self.protocol.output(contexts[v], states[v])
            for v in network.graph.nodes
        }
        return Configuration.build(network.graph, outputs, ids=network.ids)

    def certificates(
        self, network: Network, states: Mapping[int, Any]
    ) -> dict[int, Any]:
        contexts = network.contexts()
        return {
            v: self.protocol.certificate(contexts[v], states[v])
            for v in network.graph.nodes
        }

    def sweep(self, network: Network, states: Mapping[int, Any]) -> DetectionReport:
        """One from-scratch verification round over the current registers.

        Stateless: every context, view, and certificate is assembled
        anew.  Repeated-sweep callers (recovery loops, the fault
        campaigns) should open a :meth:`session` instead and let it
        reuse work across sweeps.
        """
        _metrics.inc("detector.sweeps")
        config = self.configuration(network, states)
        certs = self.certificates(network, states)
        views = self.scheme.build_views(config, certs)
        verdict = self.scheme.run(config, certificates=certs, views=views)
        legitimate = self.scheme.language.is_member(config)
        return DetectionReport(verdict=verdict, legitimate=legitimate)

    def session(
        self, network: Network, states: Mapping[int, Any]
    ) -> "DetectionSession":
        """Open an incremental detection session at the given registers."""
        return DetectionSession(self, network, states)


class DetectionSession:
    """Stateful incremental detection: sweep, mutate a few registers, sweep.

    The session snapshots the register file it last verified.  Each
    :meth:`sweep` diffs the incoming registers against the snapshot
    (or trusts an explicit ``changed`` set), recomputes outputs and
    certificates only at changed nodes, and refreshes only the
    verification views within the scheme's radius of a node whose
    output or certificate actually changed.  Verdicts are cached
    between mutations, so re-sweeping an unchanged system is free.

    The views live in a tagged :class:`~repro.core.verifier.ViewSet`, so
    any attempt to reuse them under a different visibility or radius
    (e.g. by handing them to another scheme) raises
    :class:`~repro.errors.SchemeError` instead of mis-verifying.

    Every sweep verifies on those views through
    :meth:`~repro.core.scheme.ProofLabelingScheme.run`, whatever decider
    the scheme has, so each full build or refresh shows in the
    ``views.built`` ledger the campaigns audit.
    """

    def __init__(
        self,
        detector: PlsDetector,
        network: Network,
        states: Mapping[int, Any],
    ) -> None:
        self.detector = detector
        self.network = network
        scheme, protocol = detector.scheme, detector.protocol
        self._contexts = network.contexts()
        self._states: dict[int, Any] = dict(states)
        if set(self._states) != set(network.graph.nodes):
            raise SimulationError("session states do not cover the network")
        self._outputs = {
            v: protocol.output(self._contexts[v], self._states[v])
            for v in network.graph.nodes
        }
        self._certs = {
            v: protocol.certificate(self._contexts[v], self._states[v])
            for v in network.graph.nodes
        }
        self._config = Configuration.build(
            network.graph, dict(self._outputs), ids=network.ids
        )
        self._views: ViewSet = scheme.build_views(self._config, self._certs)
        self._verdict: Verdict | None = None

    # -- state access -------------------------------------------------------

    @property
    def config(self) -> Configuration:
        """The configuration of the last-seen registers."""
        return self._config

    @property
    def states(self) -> dict[int, Any]:
        """Snapshot of the last-seen registers (a copy)."""
        return dict(self._states)

    # -- incremental update -------------------------------------------------

    def update(
        self,
        states: Mapping[int, Any],
        changed: Iterable[int] | None = None,
    ) -> set[int]:
        """Advance the session to ``states``; returns the refreshed nodes.

        ``changed`` is an optional caller-known superset of the nodes
        whose registers differ from the snapshot (e.g. the victims of a
        fault injection, or last round's movers); when omitted, the
        session diffs all ``n`` registers.  Either way, only nodes whose
        *output or certificate* actually changed trigger view refreshes,
        so a register rewrite that decodes to the same (output,
        certificate) pair costs nothing.
        """
        if changed is None:
            _metrics.add("registers.read", len(self._states))
            candidates: Iterable[int] = [
                v for v in self._states if states[v] != self._states[v]
            ]
        else:
            scanned = set(changed)
            _metrics.add("registers.read", len(scanned))
            candidates = [v for v in scanned if states[v] != self._states[v]]
        protocol = self.detector.protocol
        touched: set[int] = set()
        output_changed = False
        for v in candidates:
            self._states[v] = states[v]
            ctx = self._contexts[v]
            output = protocol.output(ctx, states[v])
            certificate = protocol.certificate(ctx, states[v])
            if output != self._outputs[v]:
                self._outputs[v] = output
                output_changed = True
                touched.add(v)
            if certificate != self._certs[v]:
                self._certs[v] = certificate
                touched.add(v)
        _metrics.add("registers.written", len(touched))
        if output_changed:
            self._config = self._config.with_labeling(dict(self._outputs))
        if touched:
            self._views = self.detector.scheme.refresh_views(
                self._config, self._certs, self._views, touched
            )
            self._verdict = None
        return touched

    # -- verification -------------------------------------------------------

    def verify(self) -> Verdict:
        """The verdict at the current registers (cached until they change)."""
        if self._verdict is None:
            self._verdict = self.detector.scheme.run(
                self._config, certificates=self._certs, views=self._views
            )
        return self._verdict

    def sweep(
        self,
        states: Mapping[int, Any] | None = None,
        changed: Iterable[int] | None = None,
        check_membership: bool = True,
    ) -> DetectionReport:
        """One incremental verification round.

        Equivalent to :meth:`PlsDetector.sweep` on the same registers
        (the property tests pin this), but costs O(ball(changed)) view
        rebuilds.  ``check_membership=False`` skips the global
        ground-truth membership check — which is *not* part of the
        detection loop proper — and reports ``legitimate=None``.
        """
        _metrics.inc("detector.sweeps")
        if states is not None:
            self.update(states, changed)
        verdict = self.verify()
        legitimate = (
            self.detector.scheme.language.is_member(self._config)
            if check_membership
            else None
        )
        return DetectionReport(verdict=verdict, legitimate=legitimate)

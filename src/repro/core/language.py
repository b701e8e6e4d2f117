"""Distributed languages: predicates on configurations.

A *distributed language* is a set of configurations (graph + identities +
per-node states).  Membership must be decidable centrally
(:meth:`DistributedLanguage.is_member`), and the language must be
*constructible*: for every admissible graph there is a legal labeling
(:meth:`DistributedLanguage.canonical_labeling`), possibly depending on
identities or randomness.  Both properties are the standing assumptions
of the paper.

Languages may restrict the graphs they speak about (e.g. bipartiteness is
constructible only on bipartite graphs); :meth:`supports_graph` reports
that, and canonical labelings raise :class:`~repro.errors.LanguageError`
on unsupported graphs.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any

from repro.core.labeling import Configuration, Labeling
from repro.errors import LanguageError
from repro.graphs.graph import Graph
from repro.util.rng import make_rng

__all__ = ["DistributedLanguage"]


class DistributedLanguage(ABC):
    """Base class for all languages.

    Subclasses set :attr:`name` and implement :meth:`is_member` and
    :meth:`canonical_labeling`.  States should be built from
    codec-friendly values (ints, ``None``, ``frozenset``/tuples of ints)
    so sizes can be measured; neighbor references inside states use port
    numbers.
    """

    name: str = "language"
    #: True when membership depends on edge weights (e.g. MST); such
    #: languages require weighted graphs.
    weighted: bool = False

    @abstractmethod
    def is_member(self, config: Configuration) -> bool:
        """Centralised membership decision."""

    @abstractmethod
    def canonical_labeling(
        self,
        graph: Graph,
        ids: dict[int, int] | None = None,
        rng: random.Random | None = None,
    ) -> Labeling:
        """Some legal labeling of ``graph`` (witness of constructibility).

        Raises :class:`~repro.errors.LanguageError` when the graph admits
        no legal labeling.
        """

    # -- optional hooks --------------------------------------------------------

    def supports_graph(self, graph: Graph) -> bool:
        """Can this graph be legally labeled at all?"""
        try:
            self.canonical_labeling(graph)
        except LanguageError:
            return False
        return True

    def validate_state(self, graph: Graph, node: int, state: Any) -> bool:
        """Format check for a single state (syntactic, not semantic)."""
        return True

    def state_space(self, graph: Graph, node: int) -> tuple[Any, ...] | None:
        """The node's *complete* finite state domain, or ``None``.

        Languages over small per-node alphabets (booleans, parent ports)
        return every syntactically valid state here, which is what lets
        :func:`repro.errorsensitive.distance_to_language` run a genuinely
        exhaustive edit-distance search on small instances.  ``None``
        (the default) means the domain is unbounded or impractically
        large; distance search then falls back to harvested candidates
        and certified bounds.
        """
        return None

    def random_corruption(self, node: int, state: Any, rng: random.Random) -> Any:
        """A plausible corrupted state for corruption experiments.

        The default flips the state to a fresh marker object distinct
        from every legitimate state; languages override this to produce
        *format-preserving* corruption (e.g. re-pointing a parent
        pointer), which is the interesting adversarial case.
        """
        return ("corrupted", rng.randrange(1 << 30))

    # -- conveniences ----------------------------------------------------------

    def member_configuration(
        self,
        graph: Graph,
        ids: dict[int, int] | None = None,
        rng: random.Random | None = None,
    ) -> Configuration:
        """A legal configuration on ``graph`` (canonical labeling).

        Takes the vectorized marker kernel from :mod:`repro.core.batch`
        when one is registered for this language type and does not
        decline, and otherwise the per-node dict canonical
        (:meth:`_dict_member_configuration`), which is the semantic
        oracle the kernels are pinned against.  Both return the same
        configuration from the same ``rng`` stream.
        """
        from repro.core.batch import try_batch_member_configuration

        rng = rng or make_rng()
        config = try_batch_member_configuration(self, graph, ids=ids, rng=rng)
        if config is not None:
            return config
        return self._dict_member_configuration(graph, ids, rng)

    def _dict_member_configuration(
        self,
        graph: Graph,
        ids: dict[int, int] | None,
        rng: random.Random,
    ) -> Configuration:
        """The dict path of :meth:`member_configuration`: the canonical
        labeling, checked for membership."""
        labeling = self.canonical_labeling(graph, ids=ids, rng=rng)
        config = Configuration.build(graph, labeling, ids=ids)
        if not self.is_member(config):
            raise LanguageError(
                f"{self.name}: canonical labeling is not a member (bug)"
            )
        return config

    def corrupted_configuration(
        self,
        graph: Graph,
        corruptions: int,
        ids: dict[int, int] | None = None,
        rng: random.Random | None = None,
        require_illegal: bool = True,
        attempts: int = 64,
    ) -> Configuration:
        """A configuration obtained by corrupting a member.

        Retries the random corruption until the result actually leaves
        the language (corrupting a state can accidentally produce another
        member); gives up after ``attempts`` tries.
        """
        rng = rng or make_rng()
        base = self.member_configuration(graph, ids=ids, rng=rng)
        for _ in range(attempts):
            corrupted = base.labeling.corrupted(
                rng, corruptions, self.random_corruption
            )
            config = base.with_labeling(corrupted)
            if not require_illegal or not self.is_member(config):
                return config
        raise LanguageError(
            f"{self.name}: failed to corrupt out of the language "
            f"in {attempts} attempts"
        )

    def __repr__(self) -> str:
        return f"<language {self.name}>"

"""Configurations: graphs with identities and per-node input states.

A *labeling* assigns every node its input state — the node's part of the
global configuration a distributed language talks about (a parent
pointer, a color, an adjacency list, ...).  States reference neighbors by
**port number** (position in the node's ordered neighbor list), which
keeps them identifier-independent, exactly as in the LOCAL model.

The *Hamming distance* between two labelings of the same graph is the
number of nodes whose states differ — the configuration-space metric used
in corruption experiments.

Both types can also hold columns instead of dicts: a labeling built by
:meth:`Labeling.from_arrays` keeps a marker kernel's state column, and a
configuration built by :meth:`Configuration.from_columns` keeps an id
column.  The dicts are derived on first read — charged to the
``columns.materialized`` counter — and equal, hash and pickle exactly
like dict-built ones, while the batched kernels read the columns
directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import IdentityError, LabelingError
from repro.graphs.graph import Graph
from repro.obs import metrics as _metrics
from repro.util.bits import obj_bit_size
from repro.util.idspace import contiguous_ids, validate_ids

__all__ = ["Configuration", "Labeling"]


class Labeling(Mapping[int, Any]):
    """Immutable mapping from node index to input state."""

    __slots__ = ("_states", "_arrays")

    def __init__(self, states: Mapping[int, Any]) -> None:
        self._states = dict(states)

    @classmethod
    def from_arrays(cls, arrays: Any) -> "Labeling":
        """The labeling an :class:`~repro.core.arrays.ArrayLabeling`'s
        ``state`` column denotes, over nodes ``0..arrays.n - 1``.

        Keeps the column (which must no longer change); the state dict
        is built on first read.
        """
        labeling = cls.__new__(cls)
        labeling._arrays = arrays
        return labeling

    def __getattr__(self, name: str) -> Any:
        # Only reached for unset slots: a dict-built labeling never sets
        # ``_arrays``, and a column-built one sets ``_states`` on first
        # read.
        if name == "_arrays":
            return None
        if name != "_states":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        states = self._arrays.to_dict("state")
        _metrics.inc("columns.materialized", len(states))
        self._states = states
        return states

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        return None, {"_states": self._states}

    @property
    def arrays(self) -> Any:
        """The column store of a :meth:`from_arrays` labeling, else ``None``."""
        return self._arrays

    @classmethod
    def uniform(cls, nodes: range | list[int], state: Any) -> "Labeling":
        """The labeling giving every node the same state."""
        return cls({v: state for v in nodes})

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, node: int) -> Any:
        try:
            return self._states[node]
        except KeyError:
            raise LabelingError(f"no state for node {node}") from None

    def __iter__(self) -> Iterator[int]:
        arrays = self._arrays
        return iter(self._states if arrays is None else range(arrays.n))

    def __len__(self) -> int:
        arrays = self._arrays
        return len(self._states) if arrays is None else arrays.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self._states == other._states

    def __repr__(self) -> str:
        return f"Labeling({len(self)} nodes)"

    # -- derived labelings ----------------------------------------------------

    def with_state(self, node: int, state: Any) -> "Labeling":
        """Copy with one node's state replaced."""
        if node not in self._states:
            raise LabelingError(f"no state for node {node}")
        states = dict(self._states)
        states[node] = state
        return Labeling(states)

    def with_states(self, replacements: Mapping[int, Any]) -> "Labeling":
        """Copy with several nodes' states replaced."""
        states = dict(self._states)
        for node, state in replacements.items():
            if node not in states:
                raise LabelingError(f"no state for node {node}")
            states[node] = state
        return Labeling(states)

    def corrupted(
        self,
        rng: random.Random,
        count: int,
        mutator: Callable[[int, Any, random.Random], Any],
    ) -> "Labeling":
        """Corrupt ``count`` distinct random nodes through ``mutator``.

        ``mutator(node, old_state, rng)`` returns the replacement state;
        it should return something different from ``old_state`` for the
        Hamming distance to actually grow.
        """
        if count > len(self._states):
            raise LabelingError(f"cannot corrupt {count} of {len(self)} nodes")
        victims = rng.sample(sorted(self._states), count)
        return self.with_states(
            {v: mutator(v, self._states[v], rng) for v in victims}
        )

    # -- canonical serialization ----------------------------------------------

    def to_obj(self) -> list:
        """The labeling as a deterministic JSON-able object.

        A node-sorted ``[[node, encoded_state], ...]`` list under the
        tagged canonical encoding (:mod:`repro.util.canonical`), so equal
        labelings serialize to equal bytes — the property the service
        layer's content hashes require.  States with no canonical form
        raise :class:`~repro.errors.CanonicalError`.
        """
        from repro.util.canonical import encode_pairs

        return encode_pairs(self._states)

    @classmethod
    def from_obj(cls, obj: Any) -> "Labeling":
        """Rebuild a labeling from :meth:`to_obj` output (exact round trip)."""
        from repro.util.canonical import decode_pairs

        return cls(decode_pairs(obj))

    # -- metrics --------------------------------------------------------------

    def hamming_distance(self, other: "Labeling") -> int:
        """Number of nodes whose states differ."""
        if set(self._states) != set(other._states):
            raise LabelingError("labelings cover different node sets")
        return sum(
            1 for v, state in self._states.items() if other._states[v] != state
        )

    def max_state_bits(self) -> int:
        """Size of the largest state under the canonical codec."""
        return max((obj_bit_size(s) for s in self._states.values()), default=0)


@dataclass(frozen=True)
class Configuration:
    """A labeled, identified network: the object languages judge.

    Build with :meth:`Configuration.build` for defaulted ids and loose
    state mappings.
    """

    graph: Graph
    labeling: Labeling
    ids: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_coverage(self.graph, self.labeling)
        if not self.ids:
            object.__setattr__(self, "ids", contiguous_ids(list(self.graph.nodes)))
        validate_ids(list(self.graph.nodes), self.ids)

    @classmethod
    def from_columns(
        cls, graph: Graph, labeling: Labeling, id_column: Any
    ) -> "Configuration":
        """The configuration with ``ids[v] == id_column[v]``.

        ``id_column`` is an integer column that is a valid assignment by
        construction (distinct and positive, like the contiguous ids
        ``1..n``); it is kept, and ``ids`` is built on first read.
        """
        _check_coverage(graph, labeling)
        if len(id_column) != graph.n:
            raise IdentityError(f"{len(id_column)} ids for {graph.n} nodes")
        config = cls.__new__(cls)
        object.__setattr__(config, "graph", graph)
        object.__setattr__(config, "labeling", labeling)
        object.__setattr__(config, "_id_column", id_column)
        return config

    def __getattr__(self, name: str) -> Any:
        # Only reached for unset attributes: a columns-built
        # configuration sets ``ids`` on first read.
        column = self.__dict__.get("_id_column")
        if name != "ids" or column is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        ids = dict(enumerate(column.tolist()))
        _metrics.inc("columns.materialized", len(ids))
        object.__setattr__(self, "ids", ids)
        return ids

    def __getstate__(self) -> dict[str, Any]:
        state = {"graph": self.graph, "labeling": self.labeling, "ids": self.ids}
        for name, value in self.__dict__.items():
            if name not in state and name != "_id_column":
                state[name] = value
        return state

    @property
    def id_column(self) -> Any:
        """The id column of a :meth:`from_columns` configuration, else ``None``."""
        return self.__dict__.get("_id_column")

    @classmethod
    def build(
        cls,
        graph: Graph,
        states: Mapping[int, Any] | Labeling | None = None,
        ids: Mapping[int, int] | None = None,
    ) -> "Configuration":
        if states is None:
            labeling = Labeling.uniform(graph.nodes, None)
        elif isinstance(states, Labeling):
            labeling = states
        else:
            labeling = Labeling(states)
        return cls(graph=graph, labeling=labeling, ids=dict(ids) if ids else {})

    @property
    def n(self) -> int:
        return self.graph.n

    def uid(self, node: int) -> int:
        return self.ids[node]

    def node_of_uid(self, uid: int) -> int:
        for node, candidate in self.ids.items():
            if candidate == uid:
                return node
        raise LabelingError(f"no node has uid {uid}")

    def state(self, node: int) -> Any:
        return self.labeling[node]

    def with_labeling(self, labeling: Labeling | Mapping[int, Any]) -> "Configuration":
        if not isinstance(labeling, Labeling):
            labeling = Labeling(labeling)
        if self.id_column is not None:
            config = Configuration.from_columns(self.graph, labeling, self.id_column)
        else:
            config = Configuration(
                graph=self.graph, labeling=labeling, ids=dict(self.ids)
            )
        # The verifier's cached view scaffold depends only on the graph
        # and ids, both shared with the derived configuration; handing it
        # down keeps incremental re-verification (detection sessions,
        # soundness adversaries) free of per-round O(n) rebuilds.
        scaffold = self.__dict__.get("_view_scaffold")
        if scaffold is not None:
            object.__setattr__(config, "_view_scaffold", scaffold)
        return config

    def with_ids(self, ids: Mapping[int, int]) -> "Configuration":
        return Configuration(graph=self.graph, labeling=self.labeling, ids=dict(ids))


def _check_coverage(graph: Graph, labeling: Labeling) -> None:
    # A column-built labeling covers exactly ``range(len(labeling))``.
    if labeling.arrays is not None:
        covered = len(labeling) == graph.n
    else:
        covered = set(labeling) == set(graph.nodes)
    if not covered:
        raise LabelingError("labeling does not cover the graph's nodes")

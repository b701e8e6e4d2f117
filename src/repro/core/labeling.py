"""Configurations: graphs with identities and per-node input states.

A *labeling* assigns every node its input state — the node's part of the
global configuration a distributed language talks about (a parent
pointer, a color, an adjacency list, ...).  States reference neighbors by
**port number** (position in the node's ordered neighbor list), which
keeps them identifier-independent, exactly as in the LOCAL model.

The *Hamming distance* between two labelings of the same graph is the
number of nodes whose states differ — the configuration-space metric used
in corruption experiments.

A configuration keeps its ids as one column (``id_column[v]`` is node
``v``'s uid), however it was built, and a labeling built by
:meth:`Labeling.from_arrays` keeps a marker kernel's state column.  The
``ids`` and state dicts are derived on first read — charged to the
``columns.materialized`` counter — and equal, hash and pickle exactly
like dict-built ones, while the batched kernels read the columns
directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.core.arrays import column_from_values
from repro.errors import IdentityError, LabelingError
from repro.graphs.graph import Graph
from repro.obs import metrics as _metrics
from repro.util.bits import obj_bit_size
from repro.util.idspace import validate_ids

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

    def values(self) -> Any:
        """Every state, in iteration order; a column-built labeling reads
        its column without building the dict."""
        arrays = self._arrays
        return self._states.values() if arrays is None else arrays.values("state")

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

        return encode_pairs(self)

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


@dataclass(frozen=True, init=False, eq=False)
class Configuration:
    """A labeled, identified network: the object languages judge.

    The ids are held as :attr:`id_column`, a read-only column with
    ``id_column[v]`` the uid of node ``v``: ``1..n`` by default, else
    the given mapping, validated and stored as ``int64`` (or ``object``
    for ids of 63 bits or more).  The ``ids`` dict is derived on first
    read, charged to ``columns.materialized``.  Build with
    :meth:`Configuration.build` for loose state mappings.
    """

    graph: Graph
    labeling: Labeling
    id_column: np.ndarray

    def __init__(
        self,
        graph: Graph,
        labeling: Labeling,
        ids: Mapping[int, int] | None = None,
    ) -> None:
        _check_coverage(graph, labeling)
        if ids:
            nodes = list(graph.nodes)
            validate_ids(nodes, ids)
            id_column = column_from_values((ids[v] for v in nodes), graph.n)
        else:
            id_column = np.arange(1, graph.n + 1, dtype=np.int64)
        self._set(graph, labeling, id_column)

    def _set(self, graph: Graph, labeling: Labeling, id_column: np.ndarray) -> None:
        id_column.flags.writeable = False
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "id_column", id_column)

    @classmethod
    def from_columns(
        cls, graph: Graph, labeling: Labeling, id_column: np.ndarray
    ) -> "Configuration":
        """The configuration with ``ids[v] == id_column[v]``.

        ``id_column`` is an integer column that is a valid assignment by
        construction (distinct and positive, like the contiguous ids
        ``1..n``); it is kept unchecked and made read-only.
        """
        _check_coverage(graph, labeling)
        if len(id_column) != graph.n:
            raise IdentityError(f"{len(id_column)} ids for {graph.n} nodes")
        config = cls.__new__(cls)
        config._set(graph, labeling, id_column)
        return config

    def __getattr__(self, name: str) -> Any:
        # Only reached for unset attributes: ``ids`` is set on first read.
        if name != "ids":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        ids = dict(enumerate(self.id_column.tolist()))
        _metrics.inc("columns.materialized", len(ids))
        object.__setattr__(self, "ids", ids)
        return ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        # A tuple compares its items by identity first, as the generated
        # dataclass ``__eq__`` did: a shared graph is not compared edge
        # by edge.
        return (self.graph, self.labeling, self.id_column.tolist()) == (
            other.graph,
            other.labeling,
            other.id_column.tolist(),
        )

    def __reduce__(self) -> tuple[Any, ...]:
        return Configuration.from_columns, (self.graph, self.labeling, self.id_column)

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
        return cls(graph, labeling, ids)

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
        config = Configuration.from_columns(self.graph, labeling, self.id_column)
        # The verifier's cached view scaffold depends only on the graph
        # and ids, both shared with the derived configuration; handing it
        # down keeps incremental re-verification (detection sessions,
        # soundness adversaries) free of per-round O(n) rebuilds.
        scaffold = self.__dict__.get("_view_scaffold")
        if scaffold is not None:
            object.__setattr__(config, "_view_scaffold", scaffold)
        return config

    def with_ids(self, ids: Mapping[int, int]) -> "Configuration":
        return Configuration(self.graph, self.labeling, ids)


def _check_coverage(graph: Graph, labeling: Labeling) -> None:
    # A column-built labeling covers exactly ``range(len(labeling))``.
    if labeling.arrays is not None:
        covered = len(labeling) == graph.n
    else:
        covered = set(labeling) == set(graph.nodes)
    if not covered:
        raise LabelingError("labeling does not cover the graph's nodes")

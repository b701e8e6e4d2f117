"""Columnar register storage for the array-native verification core.

:class:`ArrayLabeling` keeps one numpy column per field instead of one
dict per node.  Columns pick the tightest faithful dtype per field —
``bool`` when every value is a bool, ``int64`` when every value is a
plain int that fits, ``object`` otherwise — and conversion back through
:meth:`to_labeling` restores the exact Python values (``tolist`` turns
numpy scalars back into ``bool``/``int``), so the dict path and the
array path always see the same states.  One more kind is *nullable
int*: an ``int64`` column plus a ``None`` mask, which is how pointer
states (a port, or ``None`` at a root) leave the marker kernels.

:class:`CertificateColumns` is the certificate-side mirror: honest
prover kernels return their tuple-shaped certificates as one column per
tuple field, and the ``{node: tuple}`` dict is built only if something
reads a certificate.

Unlike :class:`~repro.core.labeling.Labeling` (immutable, one value per
node) this store is *mutable by row*: detection sessions own one and
update only the registers inside a fault's ball, which is the
O(ball(k))-per-sweep contract of the incremental engine.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.core.labeling import Labeling
from repro.errors import SchemeError
from repro.obs import metrics as _metrics

__all__ = ["ArrayLabeling", "CertificateColumns", "column_from_values"]


def column_from_values(values: Iterable[Any], n: int) -> np.ndarray:
    """The tightest faithful column for ``n`` Python values.

    ``bool`` and ``int64`` columns are used only when round-tripping
    through ``tolist()`` reproduces the original objects exactly (same
    type, same value); everything else — ``None``, tuples, frozensets,
    ints beyond 64 bits, mixed rows — lands in an ``object`` column,
    which stores the references untouched.
    """
    items = list(values)
    if len(items) != n:
        raise SchemeError(f"expected {n} values, got {len(items)}")
    if items and all(type(v) is bool for v in items):
        return np.array(items, dtype=bool)
    if items and all(
        type(v) is int and v.bit_length() < 63 for v in items
    ):
        return np.array(items, dtype=np.int64)
    column = np.empty(n, dtype=object)
    for i, v in enumerate(items):
        column[i] = v
    return column


class ArrayLabeling:
    """Per-field numpy columns over nodes ``0..n-1``."""

    __slots__ = ("_n", "_columns", "_nulls")

    def __init__(
        self,
        n: int,
        columns: Mapping[str, np.ndarray],
        nulls: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """``nulls[name]`` marks the ``None`` cells of an ``int64`` column."""
        self._n = n
        for name, column in columns.items():
            if column.shape != (n,):
                raise SchemeError(
                    f"column {name!r} has shape {column.shape}, expected ({n},)"
                )
        self._columns = dict(columns)
        self._nulls = dict(nulls or {})
        for name, mask in self._nulls.items():
            if self.column(name).dtype != np.int64 or mask.shape != (n,):
                raise SchemeError(f"None mask of {name!r} needs an int64 column")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_labeling(
        cls, labeling: Mapping[int, Any], n: int, field: str = "state"
    ) -> "ArrayLabeling":
        """One column holding ``labeling[v]`` for every node ``v``."""
        missing = [v for v in range(n) if v not in labeling]
        if missing:
            raise SchemeError(f"labeling misses nodes {missing[:5]}")
        column = column_from_values((labeling[v] for v in range(n)), n)
        return cls(n, {field: column})

    @classmethod
    def from_column(
        cls,
        column: np.ndarray,
        field: str = "state",
        nulls: np.ndarray | None = None,
    ) -> "ArrayLabeling":
        """Wrap an already-built column — the bulk constructor the
        vectorized marker kernels emit into (no per-node conversion).
        ``nulls`` makes an ``int64`` column nullable."""
        masks = {} if nulls is None else {field: nulls}
        return cls(int(column.shape[0]), {field: column}, masks)

    @classmethod
    def from_fields(
        cls, n: int, fields: Mapping[str, Mapping[int, Any]]
    ) -> "ArrayLabeling":
        """One column per field, each covering every node."""
        columns = {}
        for name, mapping in fields.items():
            missing = [v for v in range(n) if v not in mapping]
            if missing:
                raise SchemeError(
                    f"field {name!r} misses nodes {missing[:5]}"
                )
            columns[name] = column_from_values(
                (mapping[v] for v in range(n)), n
            )
        return cls(n, columns)

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, field: str) -> np.ndarray:
        try:
            return self._columns[field]
        except KeyError:
            raise SchemeError(
                f"no column {field!r}; have {sorted(self._columns)}"
            ) from None

    def nulls(self, field: str) -> np.ndarray | None:
        """The ``None`` mask of a nullable-int column, else ``None``."""
        self.column(field)
        return self._nulls.get(field)

    def value(self, field: str, node: int) -> Any:
        """The Python value at one cell (numpy scalars converted back)."""
        nulls = self.nulls(field)
        if nulls is not None and nulls[node]:
            return None
        cell = self.column(field)[node]
        return cell.item() if isinstance(cell, np.generic) else cell

    def row(self, node: int) -> dict[str, Any]:
        return {name: self.value(name, node) for name in self._columns}

    def freeze(self) -> "ArrayLabeling":
        """Make every column read-only, so it can be shared without a
        copy; returns ``self``."""
        for array in (*self._columns.values(), *self._nulls.values()):
            array.flags.writeable = False
        return self

    # -- updates (the O(ball(k)) column-write path) -------------------------

    def set(self, field: str, node: int, value: Any) -> None:
        """Write one cell, widening the column to ``object`` on mismatch."""
        column = self.column(field)
        nulls = self.nulls(field)
        if nulls is not None and (value is None or type(value) is int):
            nulls[node] = value is None
            value = 0 if value is None else value
        if column.dtype == object:
            column[node] = value
        elif column.dtype == bool and type(value) is bool:
            column[node] = value
        elif (
            column.dtype == np.int64
            and type(value) is int
            and value.bit_length() < 63
        ):
            column[node] = value
        else:
            widened = np.empty(self._n, dtype=object)
            widened[:] = self.values(field)
            widened[node] = value
            self._columns[field] = widened
            self._nulls.pop(field, None)

    def update(self, field: str, values: Mapping[int, Any]) -> None:
        for node, value in values.items():
            self.set(field, node, value)

    # -- conversion back ----------------------------------------------------

    def values(self, field: str) -> list[Any]:
        """Every node's value, in node order, as exact Python values."""
        values = self.column(field).tolist()
        nulls = self.nulls(field)
        if nulls is not None:
            for v in np.flatnonzero(nulls).tolist():
                values[v] = None
        return values

    def to_dict(self, field: str) -> dict[int, Any]:
        """``{node: value}`` with exact Python scalars."""
        return dict(enumerate(self.values(field)))

    def to_labeling(self, field: str = "state") -> Labeling:
        """The :class:`Labeling` this column denotes, value-for-value."""
        return Labeling(self.to_dict(field))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayLabeling):
            return NotImplemented
        if self._n != other._n or set(self._columns) != set(other._columns):
            return False
        return all(
            self.to_dict(name) == other.to_dict(name)
            for name in self._columns
        )

    def __repr__(self) -> str:
        dtypes = {name: str(col.dtype) for name, col in self._columns.items()}
        return f"ArrayLabeling(n={self._n}, columns={dtypes})"


class CertificateColumns(Mapping[int, Any]):
    """Read-only tuple certificates held as one column per tuple field.

    ``certificates[v]`` is ``tuple(arrays.value(f, v) for f in
    arrays.fields)``.  The ``{node: tuple}`` dict is built with bulk
    ``tolist``/``zip`` on the first item read (charged to
    ``columns.materialized``); length, key iteration and the batched
    deciders, which read :attr:`arrays` directly, never build it.
    """

    __slots__ = ("_arrays", "_certificates")

    def __init__(self, arrays: ArrayLabeling) -> None:
        self._arrays = arrays.freeze()
        self._certificates: dict[int, tuple] | None = None

    @property
    def arrays(self) -> ArrayLabeling:
        return self._arrays

    def _materialized(self) -> dict[int, tuple]:
        if self._certificates is None:
            fields = [self._arrays.values(name) for name in self._arrays.fields]
            self._certificates = dict(enumerate(zip(*fields)))
            _metrics.inc("columns.materialized", self._arrays.n)
        return self._certificates

    def __getitem__(self, node: int) -> tuple:
        return self._materialized()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._arrays.n))

    def __len__(self) -> int:
        return self._arrays.n

    def __repr__(self) -> str:
        return f"CertificateColumns(n={self._arrays.n}, fields={self._arrays.fields})"

"""Columnar register storage for the array-native verification core.

:class:`ArrayLabeling` keeps one numpy column per field instead of one
dict per node.  Columns pick the tightest faithful dtype per field —
``bool`` when every value is a bool, ``int64`` when every value is a
plain int that fits, ``object`` otherwise — and
:meth:`~ArrayLabeling.values` restores the exact Python values
(``tolist`` turns numpy scalars back into ``bool``/``int``), so the
dict path and the array path always see the same states.  One more
kind is *nullable int*: an ``int64`` column plus a ``None`` mask, which
is how pointer states (a port, or ``None`` at a root) leave the marker
kernels.

:class:`CertificateColumns` is the certificate-side mirror: honest
prover kernels return their tuple-shaped certificates as one column per
tuple field, and the ``{node: tuple}`` dict is built only if something
reads a certificate.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

import numpy as np

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

    def freeze(self) -> "ArrayLabeling":
        """Make every column read-only, so it can be shared without a
        copy; returns ``self``."""
        for array in (*self._columns.values(), *self._nulls.values()):
            array.flags.writeable = False
        return self

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

    def __repr__(self) -> str:
        dtypes = {name: str(col.dtype) for name, col in self._columns.items()}
        return f"ArrayLabeling(n={self._n}, columns={dtypes})"


class CertificateColumns(Mapping[int, Any]):
    """Read-only tuple certificates held as one column per tuple field.

    ``certificates[v]`` is the tuple of ``arrays.values(f)[v]`` over
    ``arrays.fields``.  The ``{node: tuple}`` dict is built with bulk
    ``tolist``/``zip`` on the first item read (charged to
    ``columns.materialized``); length, key iteration and the batched
    deciders, which read :attr:`arrays` directly, never build it; nor
    does :meth:`values`, which the canonical encoder and the proof
    sizing read.
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
            self._certificates = dict(enumerate(self.values()))
            _metrics.inc("columns.materialized", self._arrays.n)
        return self._certificates

    def values(self) -> list[tuple]:
        """Every certificate, in node order, read from the columns."""
        arrays = self._arrays
        return list(zip(*(arrays.values(name) for name in arrays.fields)))

    def __getitem__(self, node: int) -> tuple:
        return self._materialized()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._arrays.n))

    def __len__(self) -> int:
        return self._arrays.n

    def __repr__(self) -> str:
        return f"CertificateColumns(n={self._arrays.n}, fields={self._arrays.fields})"

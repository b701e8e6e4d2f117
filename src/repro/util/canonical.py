"""Canonical, deterministic serialization for register-shaped values.

The service layer (:mod:`repro.service`) needs graphs, labelings, and
certificate assignments to become *durable* objects: byte strings that
two processes — or two machines — derive identically from equal Python
values, so content hashes can key caches and anti-replay registries.
JSON alone cannot carry the register vocabulary faithfully (tuples,
frozensets, bytes, dict-valued certificates), so this module defines a
**tagged encoding** into JSON-able objects plus one canonical byte
rendering:

* JSON-native scalars (``None``, ``bool``, ``int``, finite ``float``,
  ``str``) pass through unchanged — JSON already distinguishes ``1``
  from ``1.0`` from ``True``, and Python's float repr round-trips
  exactly.
* ``tuple`` becomes a plain JSON array (tuples are the dominant
  certificate shape); ``list``, ``set``, ``frozenset``, ``dict`` and
  ``bytes`` become ``{"__pls__": <tag>, "v": ...}`` wrappers.  Plain
  JSON objects therefore appear *only* as wrappers, so decoding is
  unambiguous: user dicts are always wrapped.
* Unordered containers are rendered in a deterministic element order
  (sorted by each element's canonical byte form), so equal sets encode
  to equal bytes regardless of construction history.
* Values with no faithful canonical form — NaN and infinities (JSON
  round-trips them unportably), arbitrary objects — raise
  :class:`~repro.errors.CanonicalError` instead of encoding wrongly.

Canonical bytes are ``json.dumps(..., sort_keys=True,
separators=(",", ":"), ensure_ascii=True)`` encoded as UTF-8, and every
content hash is **domain-separated**: :func:`domain_hash` prefixes the
SHA-256 input with an explicit tag (``PLS_GRAPH/v1``,
``PLS_ENVELOPE/v1``, ...) so a graph hash can never collide with an
envelope hash over the same bytes — the anti-replay argument needs
exactly this separation.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from typing import Any, Iterable, Mapping

from repro.errors import CanonicalError

__all__ = [
    "canonical_bytes",
    "decode_pairs",
    "decode_value",
    "domain_hash",
    "encode_pairs",
    "encode_value",
]

#: Wrapper key marking an encoded container; plain JSON objects appear
#: only as ``{"__pls__": tag, "v": payload}`` wrappers in the encoding.
_TAG_KEY = "__pls__"

#: Types :func:`encode_value` returns unchanged; a tuple holding only
#: these encodes to a plain list of its items.
_PASSTHROUGH = frozenset((int, bool, str, type(None)))

#: Types :func:`decode_value` returns unchanged; a list holding only
#: these decodes to a tuple of its items.
_DECODED_SCALARS = _PASSTHROUGH | {float}


def _only(items: Iterable, types: frozenset | set) -> bool:
    """Whether the exact type of every item is in ``types``."""
    return set(map(type, items)) <= types


def encode_value(value: Any) -> Any:
    """``value`` as a JSON-able object under the tagged canonical encoding."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CanonicalError(
                f"non-finite float {value!r} has no canonical form"
            )
        return value
    if isinstance(value, tuple):
        if _only(value, _PASSTHROUGH):
            return list(value)
        return [encode_value(item) for item in value]
    if isinstance(value, list):
        return {_TAG_KEY: "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        tag = "set" if isinstance(value, set) else "fset"
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda item: canonical_bytes(item))
        return {_TAG_KEY: tag, "v": encoded}
    if isinstance(value, dict):
        pairs = [
            [encode_value(key), encode_value(item)]
            for key, item in value.items()
        ]
        pairs.sort(key=lambda pair: canonical_bytes(pair[0]))
        return {_TAG_KEY: "dict", "v": pairs}
    if isinstance(value, bytes):
        return {_TAG_KEY: "bytes", "v": value.hex()}
    raise CanonicalError(
        f"value of type {type(value).__name__} has no canonical form"
    )


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value` (exact round trip).

    Total over JSON-able input: anything that is not an encoding —
    a wrapper whose payload has the wrong shape, bad hex, an unhashable
    set element or dict key — raises
    :class:`~repro.errors.CanonicalError`, never another exception.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        if _only(obj, _DECODED_SCALARS):
            return tuple(obj)
        return tuple(decode_value(item) for item in obj)
    if isinstance(obj, dict):
        tag = obj.get(_TAG_KEY)
        payload = obj.get("v")
        if tag not in ("list", "set", "fset", "dict", "bytes"):
            raise CanonicalError(f"unknown encoding tag {tag!r}")
        if not isinstance(payload, str if tag == "bytes" else (list, tuple)):
            raise CanonicalError(
                f"{tag} payload of type {type(payload).__name__} "
                "is not a canonical encoding"
            )
        try:
            if tag == "bytes":
                return bytes.fromhex(payload)
            if tag == "dict":
                return {
                    decode_value(key): decode_value(item)
                    for key, item in payload
                }
            items = [decode_value(item) for item in payload]
            if tag == "list":
                return items
            return set(items) if tag == "set" else frozenset(items)
        except (TypeError, ValueError) as error:
            raise CanonicalError(f"malformed {tag} encoding: {error}") from None
    raise CanonicalError(
        f"object of type {type(obj).__name__} is not a canonical encoding"
    )


def encode_pairs(mapping: Mapping[int, Any]) -> list:
    """Node-sorted ``[[node, encode_value(value)], ...]`` of a node-keyed
    mapping — the labeling and certificate-assignment shape.

    A column of plain scalars, or of tuples of them, is encoded in bulk.
    A mapping that iterates in node order is read through ``values()``,
    which a column-backed mapping serves without building its dict.
    """
    keys = list(mapping)
    nodes = sorted(keys)
    if keys == nodes:
        values = list(mapping.values())
    else:
        values = list(map(mapping.__getitem__, nodes))
    types = set(map(type, values))
    if types == {tuple} and _only(chain.from_iterable(values), _PASSTHROUGH):
        values = list(map(list, values))
    elif not types <= _PASSTHROUGH:
        values = list(map(encode_value, values))
    return list(map(list, zip(nodes, values)))


def decode_pairs(obj: Any) -> dict[int, Any]:
    """Inverse of :func:`encode_pairs`: the ``{node: value}`` dict of a
    list of ``[int, encoding]`` pairs with distinct nodes (tuples count
    as lists).

    A column of plain scalars, or of lists of them, is decoded in bulk.
    Anything else is decoded entry by entry, and the first malformed or
    duplicate entry raises :class:`CanonicalError` naming it.
    """
    decoded = _decode_pairs_in_bulk(obj)
    if decoded is not None:
        return decoded
    if not isinstance(obj, (list, tuple)):
        raise CanonicalError(
            f"expected a list of [node, value] pairs, got {type(obj).__name__}"
        )
    decoded = {}
    for pair in obj:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not isinstance(pair[0], int)
            or isinstance(pair[0], bool)
        ):
            raise CanonicalError(f"malformed [node, value] entry {pair!r}")
        node, value = pair
        if node in decoded:
            raise CanonicalError(f"duplicate entry for node {node}")
        decoded[node] = decode_value(value)
    return decoded


def _decode_pairs_in_bulk(obj: Any) -> dict[int, Any] | None:
    """:func:`decode_pairs` of well-formed input, or ``None``."""
    if type(obj) is not list or not _only(obj, {list}):
        return None
    if not set(map(len, obj)) <= {2}:
        return None
    nodes = [pair[0] for pair in obj]
    values = [pair[1] for pair in obj]
    if not _only(nodes, {int}):
        return None
    types = set(map(type, values))
    if types == {list} and _only(chain.from_iterable(values), _DECODED_SCALARS):
        values = list(map(tuple, values))
    elif not types <= _DECODED_SCALARS:
        try:
            values = list(map(decode_value, values))
        except CanonicalError:
            return None
    decoded = dict(zip(nodes, values))
    return decoded if len(decoded) == len(obj) else None


def canonical_bytes(obj: Any) -> bytes:
    """The one byte rendering of an encoded (JSON-able) object.

    Key order, separators, and escaping are all pinned, so equal
    objects produce equal bytes on every platform and Python version.
    """
    try:
        text = json.dumps(
            obj,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as error:
        raise CanonicalError(f"not canonically serializable: {error}") from None
    return text.encode("utf-8")


def domain_hash(domain: str, payload: bytes) -> str:
    """Hex SHA-256 of ``payload`` under an explicit domain tag.

    The tag (e.g. ``"PLS_GRAPH/v1"``) is prefixed with a NUL separator,
    so hashes from different domains can never collide on equal
    payloads — the separation the nullifier anti-replay scheme relies
    on.
    """
    digest = hashlib.sha256()
    digest.update(domain.encode("ascii"))
    digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()

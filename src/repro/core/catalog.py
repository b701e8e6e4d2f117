"""The scheme catalog: one registry and one build API for every scheme.

The paper treats every proof labeling scheme as the same object — a
(marker, decoder) pair for a language — and the catalog makes the
library do the same.  Exact schemes (zero parameters, graph-agnostic),
approximate gap schemes (graph-fitted budgets, an α of slack), the
universal scheme, and (1+ε)-parametrised families all register one
:class:`SchemeSpec` and are instantiated through one entry point::

    from repro.core import catalog

    scheme = catalog.build("spanning-tree-ptr")
    scheme = catalog.build("approx-tree-weight", graph=g, rng=rng, eps=0.5)

A spec carries the metadata the sweeps and the CLI render (kind,
size bound, visibility, radius, α, declared parameters with defaults and
validation) plus :meth:`SchemeSpec.sample_graph`, which owns the
graph-selection concerns that used to be duplicated across consumers:
picking a family the language supports (e.g. grids for bipartiteness)
and attaching edge weights when the language needs them.

Registration happens where the schemes live — :mod:`repro.schemes` and
:mod:`repro.approx` decorate their builders with :func:`register_scheme`
— and the catalog imports those packages lazily on first query, so
``repro.core`` stays import-cycle-free.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.scheme import ProofLabelingScheme
from repro.core.verifier import Visibility
from repro.errors import CatalogError
from repro.graphs.generators import connected_gnp
from repro.graphs.graph import Graph
from repro.graphs.weighted import weighted_copy
from repro.util.rng import make_rng

__all__ = [
    "KINDS",
    "ParamSpec",
    "SchemeSpec",
    "build",
    "error_sensitivity_label",
    "get",
    "names",
    "register_scheme",
    "specs",
]


def error_sensitivity_label(declared: bool | None) -> str:
    """Render a :attr:`SchemeSpec.error_sensitive` declaration uniformly.

    One mapping for every surface (``list-schemes``, ``error-profile``,
    the ES experiment table): ``yes``/``no`` where a proof or
    counterexample is known, ``?`` where classification is empirical.
    """
    return {True: "yes", False: "no"}.get(declared, "?")

#: The three scheme flavours the catalog distinguishes.  ``exact``
#: schemes verify their language outright, ``approx`` schemes verify a
#: gap language (soundness only α-far from the predicate), ``universal``
#: marks the paper's generic Θ(n²) construction.
KINDS = ("exact", "approx", "universal")

#: Packages whose import populates the registry (each runs its
#: ``register_scheme`` calls at import time).
_PROVIDER_MODULES = ("repro.schemes", "repro.approx", "repro.errorsensitive")


@dataclass(frozen=True)
class ParamSpec:
    """One declared, user-settable scheme parameter.

    ``default`` fixes both the fallback value and the parameter's type
    (int stays int, float coerces).  ``minimum`` bounds the value from
    below; with ``exclusive`` the bound itself is rejected (ε > 0, not
    ε ≥ 0).  String values — the CLI's ``--param eps=0.5`` — are parsed
    through :meth:`coerce` as well, so every consumer shares one
    validation path.
    """

    name: str
    default: Any
    doc: str = ""
    minimum: float | None = None
    exclusive: bool = False

    def coerce(self, value: Any) -> Any:
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                try:
                    value = float(value)
                except ValueError:
                    raise CatalogError(
                        f"parameter {self.name!r} expects a number, "
                        f"got {value!r}"
                    ) from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CatalogError(
                f"parameter {self.name!r} expects a number, got {value!r}"
            )
        if isinstance(self.default, int) and not isinstance(value, int):
            if not float(value).is_integer():
                raise CatalogError(
                    f"parameter {self.name!r} expects an integer, got {value!r}"
                )
            value = int(value)
        elif isinstance(self.default, float):
            value = float(value)
        if self.minimum is not None:
            if self.exclusive and not value > self.minimum:
                raise CatalogError(
                    f"parameter {self.name!r} must exceed {self.minimum:g}, "
                    f"got {value!r}"
                )
            if not self.exclusive and not value >= self.minimum:
                raise CatalogError(
                    f"parameter {self.name!r} must be at least "
                    f"{self.minimum:g}, got {value!r}"
                )
        return value


def _default_sampler(n: int, rng: random.Random) -> Graph:
    """A connected sparse G(n, p) — the workhorse sweep family."""
    return connected_gnp(n, min(0.6, 3.0 / max(3, n)), rng)


@dataclass(frozen=True)
class SchemeSpec:
    """Catalog entry: metadata plus the fitted-scheme builder.

    ``builder(graph, rng, **params)`` returns a ready
    :class:`~repro.core.scheme.ProofLabelingScheme`; graph-agnostic
    builders (all the exact schemes) simply ignore ``graph``, while
    ``graph_fitted`` specs derive instance parameters (budgets, bounds)
    from it and refuse to build without one.  Metadata (``visibility``,
    ``radius``, ``alpha``, ``size_bound``, ``weighted``) describes the
    scheme built at default parameters; the catalog's property tests pin
    the two against each other.
    """

    name: str
    kind: str
    summary: str
    builder: Callable[..., ProofLabelingScheme]
    size_bound: str
    visibility: Visibility
    radius: int = 1
    weighted: bool = False
    #: Approximation factor at default parameters; ``None`` for exact.
    alpha: float | None = None
    #: True when the builder derives instance parameters from the graph.
    graph_fitted: bool = False
    #: Declared error-sensitivity (Feuilloley–Fraigniaud 2017): ``True``
    #: when every configuration at edit distance d from the language
    #: keeps ≥ β·d nodes rejecting under *any* certificates, ``False``
    #: when a known construction beats that (e.g. the pointer-encoded
    #: spanning tree's sliding counters), ``None`` when unclassified.
    #: ``repro.errorsensitive`` measures β̂ empirically and the ES
    #: experiment cross-checks these declarations.
    error_sensitive: bool | None = None
    params: tuple[ParamSpec, ...] = ()
    #: Graph sampler for sweeps/CLI defaults; ``None`` uses sparse G(n,p).
    sampler: Callable[[int, random.Random], Graph] | None = field(
        default=None, repr=False
    )
    #: Declared batch capability; ``None`` probes the built scheme on
    #: first access (graph-fitted specs must declare to opt in).
    batch_declared: bool | None = field(default=None, repr=False)
    #: Declared vectorized-marker capability; same probing rules.
    generate_declared: bool | None = field(default=None, repr=False)

    @property
    def batch(self) -> bool:
        """True when the scheme this spec builds verifies on the array path.

        Probed lazily from a default-parameter build (declared
        explicitly for graph-fitted specs, which cannot be built without
        an instance) and cached: probing at registration time would
        race the lazy import of the decider registry.
        """
        cached = getattr(self, "_batch_cache", None)
        if cached is None:
            if self.batch_declared is not None:
                cached = self.batch_declared
            elif self.graph_fitted:
                cached = False
            else:
                from repro.core.batch import supports_batch

                probe = self._probe()
                cached = supports_batch(probe)
            object.__setattr__(self, "_batch_cache", cached)
        return cached

    @property
    def generate(self) -> bool:
        """True when this spec's language *generates* on the array path —
        a vectorized marker kernel is registered for it (same lazy
        probing discipline as :attr:`batch`)."""
        cached = getattr(self, "_generate_cache", None)
        if cached is None:
            if self.generate_declared is not None:
                cached = self.generate_declared
            elif self.graph_fitted:
                cached = False
            else:
                from repro.core.batch import supports_batch_marker

                probe = self._probe()
                cached = supports_batch_marker(probe.language)
            object.__setattr__(self, "_generate_cache", cached)
        return cached

    def _probe(self):
        defaults = {p.name: p.default for p in self.params}
        return self.builder(None, make_rng(0), **defaults)

    # -- parameters ---------------------------------------------------------

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        declared = [p.name for p in self.params] or "none"
        raise CatalogError(
            f"{self.name} has no parameter {name!r}; declared: {declared}"
        )

    def has_param(self, name: str) -> bool:
        return any(p.name == name for p in self.params)

    def resolve_params(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Defaults merged with validated/coerced ``overrides``."""
        values = {p.name: p.default for p in self.params}
        for name, value in overrides.items():
            values[name] = self.param(name).coerce(value)
        return values

    # -- machine-readable form ----------------------------------------------

    def describe(self) -> dict[str, Any]:
        """The spec as a JSON-ready dict (stable keys, plain values).

        One shape for every machine surface — ``list-schemes --json``,
        the service's ``/schemes`` endpoint — mirroring the columns the
        human table renders plus the declared parameter schemas.
        """
        return {
            "name": self.name,
            "kind": self.kind,
            "summary": self.summary,
            "size_bound": self.size_bound,
            "visibility": self.visibility.name.lower(),
            "radius": self.radius,
            "weighted": self.weighted,
            "alpha": self.alpha,
            "graph_fitted": self.graph_fitted,
            "error_sensitive": error_sensitivity_label(self.error_sensitive),
            "batch": self.batch,
            "generate": self.generate,
            "params": [
                {
                    "name": p.name,
                    "default": p.default,
                    "doc": p.doc,
                    "minimum": p.minimum,
                    "exclusive": p.exclusive,
                }
                for p in self.params
            ],
        }

    # -- graphs -------------------------------------------------------------

    def sample_graph(self, n: int, rng: random.Random | None = None) -> Graph:
        """A graph of ~``n`` nodes this scheme's language supports.

        Owns the selection concerns consumers used to duplicate: the
        per-language family choice (via ``sampler``) and the weighted
        copy when the language reads edge weights.
        """
        rng = rng or make_rng()
        graph = (self.sampler or _default_sampler)(n, rng)
        if self.weighted and not graph.is_weighted:
            graph = weighted_copy(graph, rng)
        return graph

    # -- building -----------------------------------------------------------

    def build(
        self,
        graph: Graph | None = None,
        rng: random.Random | None = None,
        **params: Any,
    ) -> ProofLabelingScheme:
        """A fitted scheme under ``params`` (validated against the spec)."""
        values = self.resolve_params(params)
        if graph is None and self.graph_fitted:
            raise CatalogError(
                f"{self.name} is graph-fitted (its language parameters come "
                f"from the instance); pass graph=..."
            )
        if self.weighted and graph is not None and not graph.is_weighted:
            raise CatalogError(
                f"{self.name} needs a weighted graph; use "
                f"spec.sample_graph or repro.graphs.weighted.weighted_copy"
            )
        return self.builder(graph, rng or make_rng(), **values)

    def __repr__(self) -> str:
        return f"<scheme-spec {self.name} kind={self.kind}>"


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SchemeSpec] = {}
_populated = False


def _ensure_populated() -> None:
    global _populated
    if _populated:
        return
    # Guard first so a provider querying the catalog mid-import cannot
    # recurse; roll back on failure so the real import error resurfaces
    # on the next query instead of a silently empty registry.
    _populated = True
    try:
        for module in _PROVIDER_MODULES:
            importlib.import_module(module)
    except BaseException:
        _populated = False
        raise


def register_scheme(
    name: str,
    *,
    kind: str,
    summary: str,
    graph_fitted: bool = False,
    params: tuple[ParamSpec, ...] = (),
    sampler: Callable[[int, random.Random], Graph] | None = None,
    size_bound: str | None = None,
    visibility: Visibility | None = None,
    radius: int | None = None,
    weighted: bool | None = None,
    alpha: float | None = None,
    error_sensitive: bool | None = None,
    batch: bool | None = None,
    generate: bool | None = None,
):
    """Decorator registering ``builder(graph, rng, **params)`` as a spec.

    Metadata left unset is probed from the scheme the builder produces
    at default parameters (graph-agnostic builders only — graph-fitted
    specs cannot be built without an instance, so they must declare all
    of ``size_bound``/``visibility``/``radius``/``weighted``/``alpha``
    explicitly, and the catalog tests pin the declarations against a
    fitted build).
    """
    if kind not in KINDS:
        raise CatalogError(f"unknown scheme kind {kind!r}; known: {KINDS}")
    if name in _REGISTRY:
        raise CatalogError(f"scheme {name!r} is already registered")
    seen: set[str] = set()
    for p in params:
        if p.name in seen:
            raise CatalogError(f"{name}: duplicate parameter {p.name!r}")
        seen.add(p.name)

    def decorate(builder: Callable[..., ProofLabelingScheme]):
        nonlocal size_bound, visibility, radius, weighted, alpha
        needs_probe = None in (size_bound, visibility, radius, weighted) or (
            kind == "approx" and alpha is None
        )
        if needs_probe:
            if graph_fitted:
                raise CatalogError(
                    f"{name} is graph-fitted; declare size_bound, "
                    f"visibility, radius, weighted (and alpha for approx) "
                    f"explicitly"
                )
            defaults = {p.name: p.default for p in params}
            probe = builder(None, make_rng(0), **defaults)
            size_bound = probe.size_bound if size_bound is None else size_bound
            visibility = probe.visibility if visibility is None else visibility
            radius = probe.radius if radius is None else radius
            weighted = (
                probe.language.weighted if weighted is None else weighted
            )
            if alpha is None:
                alpha = getattr(probe, "alpha", None)
        if kind == "approx" and not (alpha is not None and alpha > 1.0):
            raise CatalogError(f"{name}: approx specs need alpha > 1")
        _REGISTRY[name] = SchemeSpec(
            name=name,
            kind=kind,
            summary=summary,
            builder=builder,
            size_bound=size_bound,
            visibility=visibility,
            radius=radius,
            weighted=bool(weighted),
            alpha=alpha,
            graph_fitted=graph_fitted,
            error_sensitive=error_sensitive,
            params=tuple(params),
            sampler=sampler,
            batch_declared=batch,
            generate_declared=generate,
        )
        return builder

    return decorate


def get(name: str) -> SchemeSpec:
    """The spec registered under ``name``."""
    _ensure_populated()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CatalogError(
            f"unknown scheme {name!r}; known: {names()}"
        ) from None


def specs(kind: str | None = None) -> list[SchemeSpec]:
    """All specs (optionally one kind), exact → approx → universal."""
    _ensure_populated()
    if kind is not None and kind not in KINDS:
        raise CatalogError(f"unknown scheme kind {kind!r}; known: {KINDS}")
    selected = [
        spec
        for spec in _REGISTRY.values()
        if kind is None or spec.kind == kind
    ]
    return sorted(selected, key=lambda s: (KINDS.index(s.kind), s.name))


def names(kind: str | None = None) -> list[str]:
    """Registered names (optionally one kind), in :func:`specs` order."""
    return [spec.name for spec in specs(kind)]


def build(
    name: str,
    graph: Graph | None = None,
    rng: random.Random | None = None,
    **params: Any,
) -> ProofLabelingScheme:
    """The one instantiation path: a fitted scheme for any registered name.

    ``graph`` is required only by graph-fitted specs (whose languages
    carry instance-derived budgets); ``params`` override the spec's
    declared parameters, e.g. ``build("approx-tree-weight", graph=g,
    eps=0.5)`` for a (1.5)-gap verifier.
    """
    return get(name).build(graph=graph, rng=rng, **params)

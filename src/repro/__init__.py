"""``repro`` — a reproduction of *Proof Labeling Schemes* (PODC 2005).

The package implements the proof-labeling-scheme framework (prover /
one-round verifier pairs for distributed languages), the classic schemes
(spanning tree, MST, leader, agreement, and the locally checkable
predicates), the universal scheme, executable lower-bound adversaries,
and the self-stabilization application — all over a dependency-free
graph substrate and a synchronous LOCAL-model simulator.

Quickstart::

    from repro import (
        Configuration, SpanningTreePointerScheme, connected_gnp, make_rng,
    )

    rng = make_rng(1)
    graph = connected_gnp(32, 0.2, rng)
    scheme = SpanningTreePointerScheme()
    config = scheme.language.member_configuration(graph, rng=rng)
    assert scheme.run(config).all_accept           # completeness
    bad = scheme.language.corrupted_configuration(graph, 2, rng=rng)
    assert not scheme.run(bad).all_accept          # detection

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record.
"""

from repro.approx import ApproxScheme, GapLanguage
from repro.errorsensitive import (
    DistanceResult,
    ErrorSensitiveSpanningTreeScheme,
    distance_to_language,
    error_sensitivity_report,
    measure_scheme_sensitivity,
)
from repro.core import (
    Configuration,
    ConjunctionScheme,
    DistributedLanguage,
    IntersectionLanguage,
    Labeling,
    LocalView,
    NeighborGlimpse,
    ParamSpec,
    ProofLabelingScheme,
    SchemeSpec,
    UniversalScheme,
    Verdict,
    Visibility,
    catalog,
    register_scheme,
)
from repro.graphs import (
    Graph,
    binary_tree,
    complete_graph,
    connected_gnp,
    cycle_graph,
    grid_graph,
    hypercube,
    path_graph,
    random_regular,
    random_tree,
    star_graph,
    weighted_copy,
)
from repro.local import Network, run_synchronous
from repro.schemes import (
    AcyclicScheme,
    AgreementScheme,
    BfsTreeScheme,
    BipartiteScheme,
    ColoringEchoScheme,
    DominatingSetScheme,
    IndependentSetScheme,
    LeaderScheme,
    MatchingScheme,
    MstScheme,
    SpanningTreeListScheme,
    SpanningTreePointerScheme,
)
from repro.util.rng import make_rng

__version__ = "1.0.0"

__all__ = [
    "AcyclicScheme",
    "AgreementScheme",
    "ApproxScheme",
    "BfsTreeScheme",
    "BipartiteScheme",
    "ColoringEchoScheme",
    "Configuration",
    "ConjunctionScheme",
    "DistanceResult",
    "DistributedLanguage",
    "DominatingSetScheme",
    "ErrorSensitiveSpanningTreeScheme",
    "GapLanguage",
    "Graph",
    "IndependentSetScheme",
    "IntersectionLanguage",
    "Labeling",
    "LeaderScheme",
    "LocalView",
    "MatchingScheme",
    "MstScheme",
    "NeighborGlimpse",
    "Network",
    "ParamSpec",
    "ProofLabelingScheme",
    "SchemeSpec",
    "SpanningTreeListScheme",
    "SpanningTreePointerScheme",
    "UniversalScheme",
    "Verdict",
    "Visibility",
    "binary_tree",
    "catalog",
    "complete_graph",
    "connected_gnp",
    "cycle_graph",
    "distance_to_language",
    "error_sensitivity_report",
    "grid_graph",
    "hypercube",
    "make_rng",
    "measure_scheme_sensitivity",
    "path_graph",
    "random_regular",
    "random_tree",
    "register_scheme",
    "run_synchronous",
    "star_graph",
    "weighted_copy",
]

"""The proof-labeling-scheme framework — the source paper's core model.

Configurations, distributed languages, prover/one-round-verifier pairs,
the soundness adversaries, the universal scheme, and the scheme catalog
(the registry every other layer instantiates schemes through).
"""

from repro.core import catalog
from repro.core.catalog import ParamSpec, SchemeSpec, register_scheme
from repro.core.composition import ConjunctionScheme, IntersectionLanguage
from repro.core.labeling import Configuration, Labeling
from repro.core.language import DistributedLanguage
from repro.core.measure import SizeRow, best_curve, fit_constant, proof_size_sweep
from repro.core.scheme import ProofLabelingScheme
from repro.core.soundness import (
    AttackResult,
    attack,
    completeness_holds,
    exhaustive_attack,
    greedy_attack,
    random_attack,
)
from repro.core.universal import UniversalScheme
from repro.core.verifier import (
    BallView,
    LocalView,
    NeighborGlimpse,
    Verdict,
    Visibility,
    build_view,
    build_views,
    decide,
)

__all__ = [
    "AttackResult",
    "BallView",
    "Configuration",
    "ConjunctionScheme",
    "DistributedLanguage",
    "IntersectionLanguage",
    "Labeling",
    "LocalView",
    "NeighborGlimpse",
    "ParamSpec",
    "ProofLabelingScheme",
    "SchemeSpec",
    "SizeRow",
    "UniversalScheme",
    "Verdict",
    "Visibility",
    "attack",
    "best_curve",
    "build_view",
    "build_views",
    "catalog",
    "completeness_holds",
    "decide",
    "exhaustive_attack",
    "fit_constant",
    "greedy_attack",
    "proof_size_sweep",
    "random_attack",
    "register_scheme",
]

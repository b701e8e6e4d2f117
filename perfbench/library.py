"""Library workloads: sample -> verdict, and re-verifying fixed graphs.

``pipeline-tree-1m``
    Each op is one fresh seed-derived instance at n = 10^6:
    ``random_tree`` -> ``Graph.csr`` -> ``spec.build`` ->
    ``member_configuration`` -> ``batch_prove`` -> ``scheme.run``, with
    the scheme rotating over :data:`SCHEMES`.  Every verdict must accept
    everywhere.
``verify-fixed-300k``
    Set-up builds, per scheme, one n = 3*10^5 tree with its CSR, the
    honest configuration and certificates, a configuration with
    corrupted registers under the stale honest certificates, and the
    honest configuration with certificates swapped between node pairs.
    Each op is one ``scheme.run`` over that fixed cycle.  Every verdict
    must equal the per-node oracle's reject set, computed outside every
    timed region.

Ops run in whole cycles (one per scheme, or one over every case) until
``seconds`` have passed, so every run sees the same mix.  The traced run
executes each op twice on the same input — untraced, then inside spans
— which gives the tracing overhead and a repeat of every ledger count.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core import catalog
from repro.core.batch import batch_prove
from repro.core.verifier import affected_nodes, decide, refresh_views
from repro.graphs.generators import random_tree
from repro.util.rng import make_rng

from perfbench.harness import (
    GateError,
    Outcome,
    Pairs,
    Tracer,
    check_coverage,
    derive_seed,
    layer_medians,
    ledger_counts,
    ledger_delta,
    median,
    median_total,
    peak_rss_mb,
    tail,
    timed,
)

#: The batch-capable schemes both library workloads rotate over.
SCHEMES = ("spanning-tree-ptr", "bfs-tree", "leader")

PIPELINE_N = 1_000_000
VERIFY_N = 300_000
#: Instance size of the warm-up that fills lazy imports and registries.
WARMUP_N = 10_000
#: Warm-up rounds (one instance per scheme each); set-up is the median.
WARMUP_ROUNDS = 9
#: Registers corrupted in each ``registers`` case.
REGISTER_CORRUPTIONS = 4
#: Certificate pairs swapped in each ``swapped`` case.
CERTIFICATE_SWAPS = 4
#: Verify cycles per run, whatever ``seconds`` says: 27 ops, so the
#: tail (ten samples beyond it) is p63 on every run.
VERIFY_MIN_CYCLES = 3
#: Nodes away from the corruption whose views the oracle also decides.
ORACLE_SAMPLE = 256


def warm_up(n: int = WARMUP_N) -> float:
    """Rounds of one small instance per scheme, so no op pays for first use.

    Returns the median round's seconds: one round alone is a few tenths
    of a second, which a slow moment of a shared host can double.
    """
    off = Tracer(False)
    rounds = []
    for round_index in range(WARMUP_ROUNDS):
        start = time.perf_counter()
        for index, name in enumerate(SCHEMES):
            seed = derive_seed(0, "warm", round_index, index)
            if not pipeline_instance(name, n, seed, off).all_accept:
                raise GateError(f"warm-up: honest {name} instance rejected")
        rounds.append(time.perf_counter() - start)
    return median(rounds)


def pipeline_instance(name: str, n: int, seed: int, tracer: Tracer):
    """One sample -> verdict instance; returns the verdict.

    The graph, configuration and certificates are freed before it
    returns, inside the caller's clock: a user pays for that teardown
    too.  (Cyclic garbage, if any, waits for the next op's pre-clock
    collection.)
    """
    with tracer.span("graphs.random_tree"):
        graph = random_tree(n, make_rng(derive_seed(seed, "graph")))
    with tracer.span("graphs.csr"):
        graph.csr()
    rng = make_rng(derive_seed(seed, "marker"))
    scheme = catalog.get(name).build(graph=graph, rng=rng)
    with tracer.span("core.member_configuration"):
        config = scheme.language.member_configuration(graph, rng=rng)
    with tracer.span("core.batch_prove"):
        certificates = batch_prove(scheme, config)
    with tracer.span("core.scheme_run.honest"):
        verdict = scheme.run(config, certificates)
    with tracer.span("teardown"):
        del graph, rng, scheme, config, certificates
    return verdict


# ---------------------------------------------------------------------------
# verify-fixed-300k inputs.
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One fixed configuration the verify cycle re-decides."""

    scheme_name: str
    kind: str  # "honest", "registers" or "swapped"
    scheme: Any
    config: Any
    certificates: dict[int, Any]
    #: Nodes whose register or certificate differs from the honest case.
    changed: tuple[int, ...] = ()
    #: The oracle's reject set, fixed before the timed loop.
    expected: frozenset[int] | None = None

    @property
    def corrupted(self) -> bool:
        return self.kind != "honest"


def swap_certificates(
    certificates: dict[int, Any], pairs: int, rng: random.Random
) -> tuple[dict[int, Any], tuple[int, ...]]:
    """A copy with ``pairs`` disjoint node pairs' certificates exchanged.

    Only pairs whose certificates differ are swapped, so every swap
    changes the assignment.
    """
    swapped = dict(certificates)
    nodes = sorted(certificates)
    changed: list[int] = []
    while len(changed) < 2 * pairs:
        u, v = rng.sample(nodes, 2)
        if u in changed or v in changed or swapped[u] == swapped[v]:
            continue
        swapped[u], swapped[v] = swapped[v], swapped[u]
        changed += [u, v]
    return swapped, tuple(sorted(changed))


def verify_cases(name: str, n: int, seed: int, tracer: Tracer) -> list[Case]:
    """The honest, corrupted-register and swapped-certificate cases."""
    with tracer.span("graphs.random_tree"):
        graph = random_tree(n, make_rng(derive_seed(seed, name, "graph")))
    with tracer.span("graphs.csr"):
        graph.csr()
    scheme = catalog.get(name).build(
        graph=graph, rng=make_rng(derive_seed(seed, name, "build"))
    )
    marker_seed = derive_seed(seed, name, "marker")
    with tracer.span("core.member_configuration"):
        honest = scheme.language.member_configuration(graph, rng=make_rng(marker_seed))
    with tracer.span("core.batch_prove"):
        certificates = batch_prove(scheme, honest)
    # The same marker seed regenerates the honest member before the
    # corruption, so the honest certificates are exactly stale.
    registers = scheme.language.corrupted_configuration(
        graph, REGISTER_CORRUPTIONS, rng=make_rng(marker_seed)
    )
    swapped, swapped_nodes = swap_certificates(
        certificates, CERTIFICATE_SWAPS, make_rng(derive_seed(seed, name, "swap"))
    )
    return [
        Case(name, "honest", scheme, honest, certificates),
        Case(name, "registers", scheme, registers, certificates),
        Case(name, "swapped", scheme, honest, swapped, changed=swapped_nodes),
    ]


def fix_expectation(case: Case, honest: Case, seed: int) -> None:
    """Decide ``case`` with the per-node oracle and pin the reject set.

    The oracle is ``decide`` without ``scheme=``, over prebuilt views of
    every node within the scheme's radius of a changed node plus
    :data:`ORACLE_SAMPLE` random nodes.  Every other node sees exactly
    its honest view.  A corrupted case must reject somewhere, and only
    within the radius of its changed nodes.
    """
    scheme, config = case.scheme, case.config
    if case.kind == "registers":
        case.changed = tuple(
            node
            for node in config.graph.nodes
            if config.labeling[node] != honest.config.labeling[node]
        )
    rng = make_rng(derive_seed(seed, case.scheme_name, case.kind, "oracle"))
    sample = rng.sample(range(config.graph.n), min(ORACLE_SAMPLE, config.graph.n))
    views = refresh_views(
        config,
        case.certificates,
        {},
        list(case.changed) + sample,
        scheme.visibility,
        scheme.radius,
    )
    verdict = decide(
        scheme.verify,
        config,
        case.certificates,
        scheme.visibility,
        scheme.radius,
        views=views,
    )
    label = f"{case.scheme_name}/{case.kind}"
    if case.corrupted and not verdict.rejects:
        raise GateError(f"oracle: illegal case {label} is accepted everywhere")
    region = affected_nodes(config.graph, case.changed, scheme.radius)
    if not verdict.rejects <= region:
        outside = sorted(verdict.rejects - region)[:5]
        raise GateError(f"oracle: {label} rejects away from the changes: {outside}")
    case.expected = verdict.rejects


def check_verdict(case: Case, verdict: Any) -> None:
    if verdict.rejects != case.expected:
        raise GateError(
            f"{case.scheme_name}/{case.kind}: {len(verdict.rejects)} rejections, "
            f"the oracle has {len(case.expected)}"
        )


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------


def _cycles(seconds: float, cycle: Callable[[], None], at_least: int = 1) -> None:
    """Whole cycles until ``seconds`` have passed and ``at_least`` ran."""
    start = time.perf_counter()
    for done in itertools.count(1):
        cycle()
        if done >= at_least and time.perf_counter() - start >= seconds:
            return


def _untraced(setup_s: float, durations: list[float], nodes: int) -> Outcome:
    """The end-to-end metrics over the timed ops."""
    tail_value, percentile = tail(durations)
    busy = sum(durations)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": median(durations),
        "op_tail_s": tail_value,
        "nodes_per_s": len(durations) * nodes / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    note = f"op_tail_s is p{percentile:.0f} of {len(durations)} ops"
    return Outcome(len(durations), 0, metrics, [note])


_GENERATION_SPANS = {
    "graphs.random_tree_s": "graphs.random_tree",
    "graphs.csr_s": "graphs.csr",
    "core.member_configuration_s": "core.member_configuration",
    "core.batch_prove_s": "core.batch_prove",
}


def pipeline(seed: int, seconds: float, trace: bool, n: int = PIPELINE_N) -> Outcome:
    setup_s = warm_up(min(n, WARMUP_N))
    tracer = Tracer(trace)
    pairs = Pairs(tracer)
    durations: list[float] = []
    index = 0

    def rotation() -> None:
        nonlocal index
        for name in SCHEMES:
            instance_seed = derive_seed(seed, "pipeline", index)
            index += 1

            def op(tr: Tracer):
                return pipeline_instance(name, n, instance_seed, tr)

            if trace:
                verdict = pairs.run(name, op)
            else:
                duration, verdict = timed(tracer, lambda: op(tracer))
                durations.append(duration)
            if not verdict.all_accept:
                raise GateError(
                    f"pipeline: honest {name} instance rejected at "
                    f"{len(verdict.rejects)} nodes"
                )

    _cycles(seconds, rotation)
    if not trace:
        return _untraced(setup_s, durations, n)
    metrics = layer_medians(
        tracer,
        {
            **_GENERATION_SPANS,
            "core.scheme_run_s.honest": "core.scheme_run.honest",
            "teardown_s": "teardown",
        },
    )
    metrics.update(pairs.counts_over(len(SCHEMES)))
    metrics["coverage.unattributed_s"] = check_coverage(tracer, "op")
    metrics["trace.overhead_s"] = median(pairs.overheads)
    return Outcome(2 * index, 0, metrics, tracer=tracer)


def verify(seed: int, seconds: float, trace: bool, n: int = VERIFY_N) -> Outcome:
    tracer = Tracer(trace)
    before = ledger_counts()
    setup_s = warm_up(min(n, WARMUP_N))
    cases: list[Case] = []
    case_seconds = []
    for name in SCHEMES:
        start = time.perf_counter()
        cases += verify_cases(name, n, seed, tracer)
        case_seconds.append(time.perf_counter() - start)
    setup_s += median_total(case_seconds)
    setup_counts = ledger_delta(before)
    for case in cases:
        honest = next(c for c in cases if c.scheme is case.scheme)
        fix_expectation(case, honest, seed)

    pairs = Pairs(tracer)
    durations: list[float] = []

    def cycle() -> None:
        for case in cases:
            span = "core.scheme_run." + ("corrupted" if case.corrupted else "honest")

            def op(tr: Tracer, case: Case = case, span: str = span):
                with tr.span(span):
                    return case.scheme.run(case.config, case.certificates)

            if trace:
                verdict = pairs.run(f"{case.scheme_name}/{case.kind}", op)
            else:
                duration, verdict = timed(tracer, lambda: op(tracer))
                durations.append(duration)
            check_verdict(case, verdict)

    _cycles(seconds, cycle, 1 if trace else VERIFY_MIN_CYCLES)
    if not trace:
        return _untraced(setup_s, durations, n)
    metrics = layer_medians(
        tracer,
        {
            **_GENERATION_SPANS,
            "core.scheme_run_s.honest": "core.scheme_run.honest",
            "core.scheme_run_s.corrupted": "core.scheme_run.corrupted",
        },
    )
    counts = pairs.counts_over(len(cases))
    metrics.update({name: setup_counts[name] + counts[name] for name in counts})
    metrics["coverage.unattributed_s"] = check_coverage(tracer, "op")
    metrics["trace.overhead_s"] = median(pairs.overheads)
    return Outcome(2 * len(pairs.overheads), 0, metrics, tracer=tracer)

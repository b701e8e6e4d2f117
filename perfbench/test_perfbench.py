"""Fast self-tests of the benchmark itself (tiny n, a few seconds in all).

They pin what the long runs rely on: the tail rank rule, seed
determinism of the generated inputs, failure counting, and that every
correctness gate fires on a planted wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.verifier import Verdict
from repro.errors import ServiceError, ServiceUnavailableError
from repro.service import CertificationService

from perfbench import harness, library, wire
from perfbench.harness import GateError, Outcome, Span, Tracer, tail
from perfbench.run import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_tail_is_the_sample_with_ten_beyond_it():
    assert tail(range(1, 21)) == (10, 50.0)
    assert tail(range(1, 101)) == (90, 90.0)
    value, percentile = tail([5.0] * 3 + [float(v) for v in range(1, 9)])
    assert (value, percentile) == (1.0, 100.0 / 11)
    # Fewer than eleven samples: no percentile has ten beyond it.
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([]) == (0.0, 0.0)


def test_benchmark_json_names_the_catalogued_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_result_line_refuses_missing_or_unknown_metrics():
    full = {name: 1.0 for name in harness.END_TO_END}
    line = json.loads(Outcome(4, 1, full).line(trace=False))
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 4, 1)
    assert set(line["metrics"]) == set(harness.END_TO_END)
    with pytest.raises(GateError):
        Outcome(1, 0, {"setup_s": 1.0}).line(trace=False)
    with pytest.raises(GateError):
        Outcome(1, 0, {**full, "bogus": 1.0}).line(trace=False)
    layers = json.loads(Outcome(1, 0, {}).line(trace=True))["metrics"]
    assert set(layers) == set(harness.PER_LAYER)


def _case_fingerprint(cases):
    return [
        (
            case.kind,
            tuple(case.config.graph.edges()),
            tuple(case.config.labeling[v] for v in case.config.graph.nodes),
            tuple(sorted(case.certificates.items())),
        )
        for case in cases
    ]


def test_generated_inputs_depend_only_on_the_seed():
    off = Tracer(False)
    first = _case_fingerprint(library.verify_cases("bfs-tree", 64, 7, off))
    assert first == _case_fingerprint(library.verify_cases("bfs-tree", 64, 7, off))
    assert first != _case_fingerprint(library.verify_cases("bfs-tree", 64, 8, off))

    def payloads(seed):
        streams = wire.make_streams(seed, 24, 2, off)
        return [r.payload for s in streams for group in s for r in group]

    assert payloads(3) == payloads(3)
    assert payloads(3) != payloads(4)


def test_nonce_swap_is_the_envelopes_own_resubmission():
    request = wire.make_streams(5, 16, 1, Tracer(False))[0][0][0]
    expected = request.body.envelope.with_nonce("f" * 32).to_bytes()
    assert wire.with_nonce(request.body, "f" * 32) == expected


class _FakeClient:
    """Answers from a script: a result, or an exception to raise."""

    def __init__(self, script):
        self.script = list(script)

    def submit(self, payload):
        outcome = self.script.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def test_failed_requests_count_against_attempted():
    streams = wire.make_streams(9, 16, 2, Tracer(False))
    wire.fix_expectations(streams)
    stream = streams[0]
    service = CertificationService()
    good = [service.submit(request.payload) for request in stream[0]]
    script = [
        good[0],
        ServiceError("400: malformed"),
        ServiceUnavailableError("429 budget spent"),
        ConnectionResetError("dropped"),
        *[service.submit(request.payload) for request in stream[1]],
    ]
    records = wire.drive(_FakeClient(script), stream, deadline=float("inf"))
    assert len(records) == 8
    completed = [record for record in records if wire.check_record(record)]
    assert len(records) - len(completed) == 3


def test_gates_fire_on_planted_wrong_verdicts():
    off = Tracer(False)
    cases = library.verify_cases("spanning-tree-ptr", 80, 3, off)
    for case in cases:
        library.fix_expectation(case, cases[0], 3)
    corrupted = cases[1]
    assert corrupted.expected
    verdict = corrupted.scheme.run(corrupted.config, corrupted.certificates)
    library.check_verdict(corrupted, verdict)
    planted = Verdict(accepts=verdict.accepts | verdict.rejects, rejects=frozenset())
    with pytest.raises(GateError):
        library.check_verdict(corrupted, planted)

    streams = wire.make_streams(2, 16, 1, off)
    wire.fix_expectations(streams)
    request = streams[0][0][0]
    result = CertificationService().submit(request.payload)
    assert wire.check_record(wire.Record(request, 0.0, result))
    flipped = replace(result, accepted=not result.accepted)
    with pytest.raises(GateError):
        wire.check_record(wire.Record(request, 0.0, flipped))


def test_server_ledger_gate():
    report = {
        "errors": [],
        "stats": {
            "submitted": 2,
            "cache_hits": 1,
            "cache_misses": 1,
            "replays_rejected": 0,
        },
    }
    streams = wire.make_streams(2, 16, 1, Tracer(False))
    records = [wire.Record(r, 0.0, None) for r in streams[0][0][:2]]
    wire.check_server(report, records, failed=0)
    with pytest.raises(GateError):
        wire.check_server({**report, "errors": ["boom"]}, records, failed=0)
    with pytest.raises(GateError):
        wire.check_server(report, records * 2, failed=0)


def test_coverage_gate_fires_on_an_unmeasured_layer():
    tracer = Tracer(True)
    tracer.spans = [
        Span("op", 0, None, 0.0, 1.0),
        Span("graphs.csr", 0, "op", 0.0, 0.995),
    ]
    assert harness.check_coverage(tracer, "op") == pytest.approx(0.005)
    tracer.spans[1].end = 0.5
    with pytest.raises(GateError):
        harness.check_coverage(tracer, "op")


def test_traced_counts_repeat_on_a_seed_and_move_with_it():
    names = (*harness.LEDGER_COUNTS, "wire_bytes_per_node", "cache_hit_ratio")

    def counts(seed):
        metrics = wire.service(seed, 0.05, True, n=24, groups=2).metrics
        return {name: metrics[name] for name in names}

    first = counts(1)
    assert first == counts(1)
    assert first != counts(2)
    assert first["decide.rejections"] > 0
    assert first["cache_hit_ratio"] == 0.75
    assert all(first[name] == 0 for name in harness.LEDGER_COUNTS[:3])


def test_every_workload_runs_tiny():
    pipeline = library.pipeline(1, 0, False, n=200)
    assert pipeline.attempted == len(library.SCHEMES)
    assert all(pipeline.metrics[name] > 0 for name in harness.END_TO_END)
    traced = library.pipeline(1, 0, True, n=200).metrics
    assert traced["graphs.random_tree_s"] > 0
    verify = library.verify(1, 0, False, n=300)
    assert verify.attempted == 3 * library.VERIFY_MIN_CYCLES * len(library.SCHEMES)
    traced = library.verify(1, 0, True, n=300).metrics
    assert traced["core.scheme_run_s.corrupted"] > 0
    served = wire.service(4, 0.1, True, n=24, groups=2)
    assert served.failed == 0
    assert served.metrics["cache_hit_ratio"] == 0.75
    assert served.metrics["decide.rejections"] > 0
    assert served.metrics["wire_bytes_per_node"] > 0

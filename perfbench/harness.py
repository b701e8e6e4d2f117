"""Shared benchmark plumbing: metric catalogue, statistics, spans, gates.

Every workload reports the same metric names, so the result line of any
run can be compared with any other run of the same mode:

* :data:`END_TO_END` — what a user of the library or the service sees,
  measured with tracing off (``--trace 0``);
* :data:`PER_LAYER` — one number per layer or count, from a separate
  traced run (``--trace 1``).  A layer a workload never calls reads 0.

Spans are recorded by :class:`Tracer` in the benchmark's own code, around
the public calls into each layer, and kept in memory until the run ends.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.obs import metrics as obs

#: End-to-end metrics (name -> unit), reported by every workload.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (name -> unit), reported by every traced run.
PER_LAYER: dict[str, str] = {
    "graphs.random_tree_s": "s",
    "graphs.csr_s": "s",
    "core.member_configuration_s": "s",
    "core.batch_prove_s": "s",
    "core.scheme_run_s.honest": "s",
    "core.scheme_run_s.corrupted": "s",
    "service.envelope.to_bytes_s": "s",
    "service.envelope.from_bytes_s": "s",
    "service.envelope.body_hash_s": "s",
    "service.submit_s.cold": "s",
    "service.submit_s.hit": "s",
    "service.validate_s": "s",
    "service.build_s": "s",
    "service.decide_s": "s",
    "service.http_overhead_s": "s",
    "service.cold_p50_s": "s",
    "service.cold_tail_s": "s",
    "service.resubmit_p50_s": "s",
    "service.resubmit_tail_s": "s",
    "decide.batch.fallbacks": "count",
    "generate.batch.fallbacks": "count",
    "prove.batch.fallbacks": "count",
    "decide.rejections": "count",
    "wire_bytes_per_node": "B/node",
    "cache_hit_ratio": "ratio",
    "http_429": "count",
    "client_retries": "count",
    "teardown_s": "s",
    "coverage.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Counters read from the ``repro.obs`` ledger.  They must repeat
#: exactly on the same inputs; a nonzero fallback means an op left the
#: array path.
LEDGER_COUNTS = (
    "decide.batch.fallbacks",
    "generate.batch.fallbacks",
    "prove.batch.fallbacks",
    "decide.rejections",
)

#: Every tail is the sample with this many samples beyond it.
TAIL_BEYOND = 10

#: Coverage identity: the layer spans of one op must sum to its wall
#: time within this share of the wall, plus :data:`COVERAGE_SLACK_S`.
COVERAGE_TOLERANCE = 0.02
COVERAGE_SLACK_S = 0.005


class GateError(Exception):
    """A wrong verdict or a broken invariant: the run produces no numbers."""


def derive_seed(seed: int, *parts: Any) -> int:
    """A 63-bit seed for one generated input, fixed by ``seed`` and ``parts``."""
    text = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def median_total(unit_seconds: list[float]) -> float:
    """Set-up time as units x the median unit: a set-up repeated per unit.

    On a host whose cores are shared, a slow stretch of 5 to 25 s would
    otherwise land whole in one run's set-up total.
    """
    return len(unit_seconds) * median(unit_seconds)


def tail(values: Iterable[float]) -> tuple[float, float]:
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it.

    Returns ``(value, percentile)``: the sample with ten samples ranked
    above it, and the percentile of its rank.  With fewer than
    eleven samples no such percentile exists and the maximum is reported
    as percentile 100.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, from ``VmHWM`` (Linux).

    ``ru_maxrss`` would not do: exec carries the parent's high-water
    mark over into the child, so a process started by a larger one
    reports the parent's peak.  ``VmHWM`` belongs to the exec'd image.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def ledger_counts() -> dict[str, int]:
    """Process-lifetime values of :data:`LEDGER_COUNTS`."""
    return {name: obs.counter_total(name) for name in LEDGER_COUNTS}


def ledger_delta(before: dict[str, int]) -> dict[str, int]:
    after = ledger_counts()
    return {name: after[name] - before[name] for name in LEDGER_COUNTS}


def timed(tracer: "Tracer", fn: Callable[[], Any]) -> tuple[float, Any]:
    """``(seconds, result)`` for one op, inside an ``op`` span.

    The heap is collected before the clock starts, so no op inherits
    another's garbage.  ``fn`` returns only what the caller checks, so
    the op's own objects are freed inside the clock.
    """
    tracer.begin_op()
    gc.collect()
    start = time.perf_counter()
    with tracer.span("op"):
        result = fn()
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    op: int
    parent: str | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer.stack
        self.span = Span(
            name=name,
            op=tracer.op,
            parent=stack[-1].name if stack else None,
            start=0.0,
        )

    def __enter__(self) -> Span:
        self.tracer.stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self.span.end = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.spans.append(self.span)


class Tracer:
    """In-memory span recorder; disabled, every span is a shared no-op.

    Spans of one op share its ``op`` number and name their parent span,
    so a layer's self time and an op's unattributed remainder can be
    read back from :attr:`spans`.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = -1

    def span(self, name: str) -> Any:
        return _OpenSpan(self, name) if self.enabled else _NULL_SPAN

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    def seconds(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def unattributed(self, op_name: str) -> list[float]:
        """Per op: its wall time minus the spans directly inside it."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent == op_name:
                children[span.op] = children.get(span.op, 0.0) + span.seconds
        return [
            span.seconds - children.get(span.op, 0.0)
            for span in self.spans
            if span.name == op_name
        ]

    def dump(self, path: Any) -> None:
        """Write every span as one JSON line (the run's trace file)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "op": span.op,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                }
                handle.write(json.dumps(record) + "\n")


def check_coverage(tracer: Tracer, op_name: str) -> float:
    """Median unattributed seconds per op; raise if any op leaks time."""
    walls = tracer.seconds(op_name)
    remainders = tracer.unattributed(op_name)
    for wall, remainder in zip(walls, remainders):
        if abs(remainder) > COVERAGE_TOLERANCE * wall + COVERAGE_SLACK_S:
            raise GateError(
                f"coverage: {op_name} took {wall:.4f}s but its layer spans "
                f"leave {remainder:.4f}s unattributed"
            )
    return median(remainders)


def layer_medians(tracer: Tracer, names: dict[str, str]) -> dict[str, float]:
    return {metric: median(tracer.seconds(span)) for metric, span in names.items()}


class Pairs:
    """Runs each op untraced, then traced, and compares the two."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.off = Tracer(False)
        self.overheads: list[float] = []
        self.walls: list[float] = []
        self.counts: list[dict[str, int]] = []

    def run(self, label: str, op: Callable[[Tracer], Any]) -> Any:
        before = ledger_counts()
        plain, _ = timed(self.off, lambda: op(self.off))
        plain_counts = ledger_delta(before)
        before = ledger_counts()
        traced, result = timed(self.tracer, lambda: op(self.tracer))
        counts = ledger_delta(before)
        if counts != plain_counts:
            raise GateError(
                f"{label}: ledger counts differ on a repeat of the same "
                f"input: {plain_counts} then {counts}"
            )
        self.overheads.append(traced - plain)
        self.walls.append(traced)
        self.counts.append(counts)
        return result

    def counts_over(self, ops: int) -> dict[str, int]:
        total = {name: 0 for name in self.counts[0]}
        for counts in self.counts[:ops]:
            for name, value in counts.items():
                total[name] += value
        return total


# ---------------------------------------------------------------------------
# The result line.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run measured; :meth:`line` renders the result line."""

    attempted: int
    failed: int
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def line(self, trace: bool) -> str:
        catalogue = PER_LAYER if trace else END_TO_END
        missing = [name for name in catalogue if name not in self.metrics]
        if not trace and missing:
            raise GateError(f"end-to-end metrics not measured: {missing}")
        unknown = sorted(set(self.metrics) - set(catalogue))
        if unknown:
            raise GateError(f"metrics outside the catalogue: {unknown}")
        return json.dumps(
            {
                "correct": True,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics.get(name, 0), "unit": unit}
                    for name, unit in catalogue.items()
                },
            }
        )

"""Proof-size measurement and shape fitting.

The paper's results are asymptotic bounds; the reproduction checks their
*shape* empirically.  This module sweeps schemes across graph families
and sizes, records honest proof sizes in bits, and fits the measurements
against reference curves (``log n``, ``log² n``, ``n``, ``n²``) by
least-squares scaling, reporting which curve explains the data best.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.batch import batch_prove
from repro.core.scheme import ProofLabelingScheme
from repro.graphs.graph import Graph
from repro.util.rng import make_rng, spawn

__all__ = [
    "CURVES",
    "SizeRow",
    "best_curve",
    "fit_affine",
    "fit_constant",
    "proof_size_sweep",
    "size_table",
]


@dataclass(frozen=True)
class SizeRow:
    """One measurement: a scheme run on one generated instance."""

    scheme: str
    family: str
    n: int
    proof_bits: int
    mean_bits: float
    state_bits: int

    def as_tuple(self) -> tuple:
        return (self.scheme, self.family, self.n, self.proof_bits,
                round(self.mean_bits, 1), self.state_bits)


#: Reference curves for shape fitting.
CURVES: dict[str, Callable[[int], float]] = {
    "log n": lambda n: math.log2(max(2, n)),
    "log^2 n": lambda n: math.log2(max(2, n)) ** 2,
    "n": lambda n: float(n),
    "n log n": lambda n: n * math.log2(max(2, n)),
    "n^2": lambda n: float(n * n),
    "1": lambda n: 1.0,
}


def proof_size_sweep(
    scheme: ProofLabelingScheme,
    family_name: str,
    family: Callable[[int, random.Random], Graph],
    sizes: Iterable[int],
    rng: random.Random | None = None,
    samples: int = 3,
) -> list[SizeRow]:
    """Measure honest proof sizes of ``scheme`` on a graph family.

    For each requested size, ``samples`` instances are generated and the
    *maximum* proof size is reported (bounds are worst-case).
    """
    rng = rng or make_rng()
    rows: list[SizeRow] = []
    for n in sizes:
        worst = 0
        mean_acc = 0.0
        state_bits = 0
        actual_n = n
        for sample in range(samples):
            graph = family(n, spawn(rng, sample))
            actual_n = graph.n
            config = scheme.language.member_configuration(
                graph, rng=spawn(rng, 1000 + sample)
            )
            max_bits, total_bits = scheme.proof_bits(batch_prove(scheme, config))
            worst = max(worst, max_bits)
            mean_acc += total_bits / max(1, graph.n)
            state_bits = max(state_bits, config.labeling.max_state_bits())
        rows.append(
            SizeRow(
                scheme=scheme.name,
                family=family_name,
                n=actual_n,
                proof_bits=worst,
                mean_bits=mean_acc / samples,
                state_bits=state_bits,
            )
        )
    return rows


def fit_constant(
    points: Sequence[tuple[int, float]],
    curve: Callable[[int], float],
) -> tuple[float, float]:
    """Least-squares scale ``c`` for ``value ≈ c * curve(n)``.

    Returns ``(c, normalised_rmse)``; the RMSE is divided by the mean
    measured value so fits across curves are comparable.
    """
    num = sum(v * curve(n) for n, v in points)
    den = sum(curve(n) ** 2 for n, v in points)
    c = num / den if den else 0.0
    if not points:
        return 0.0, float("inf")
    mse = sum((v - c * curve(n)) ** 2 for n, v in points) / len(points)
    mean = sum(v for _, v in points) / len(points)
    return c, math.sqrt(mse) / max(1e-9, mean)


def fit_affine(
    points: Sequence[tuple[int, float]],
    curve: Callable[[int], float],
) -> tuple[float, float, float]:
    """Least-squares affine fit ``value ≈ a + b * curve(n)``.

    Returns ``(a, b, normalised_rmse)``.  The slope ``b`` is the honest
    empirical quantity for shape claims on small ranges, where constant
    framing overhead would otherwise mask the asymptotic term: for
    ``curve = log2`` it reads as "bits gained per doubling of n".
    """
    if len(points) < 2:
        return (points[0][1] if points else 0.0, 0.0, float("inf"))
    xs = [curve(n) for n, _ in points]
    ys = [v for _, v in points]
    k = len(points)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        return mean_y, 0.0, float("inf")
    b = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    a = mean_y - b * mean_x
    mse = sum((y - (a + b * x)) ** 2 for x, y in zip(xs, ys)) / k
    return a, b, math.sqrt(mse) / max(1e-9, mean_y)


def best_curve(
    points: Sequence[tuple[int, float]],
    candidates: dict[str, Callable[[int], float]] | None = None,
) -> tuple[str, float, float]:
    """The reference curve with the smallest normalised RMSE.

    Returns ``(curve_name, scale, rmse)``.
    """
    candidates = candidates or CURVES
    results = []
    for name, curve in candidates.items():
        c, rmse = fit_constant(points, curve)
        results.append((rmse, name, c))
    rmse, name, c = min(results)
    return name, c, rmse


def size_table(rows: Iterable[SizeRow]) -> str:
    """Monospace table of size measurements (benchmark report output)."""
    rows = list(rows)
    header = f"{'scheme':<28} {'family':<14} {'n':>6} {'bits':>8} {'mean':>8} {'state':>6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scheme:<28} {row.family:<14} {row.n:>6} "
            f"{row.proof_bits:>8} {row.mean_bits:>8.1f} {row.state_bits:>6}"
        )
    return "\n".join(lines)

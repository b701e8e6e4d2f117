"""Sanity-check the committed benchmark snapshots against the docs.

The experiment book (``docs/EXPERIMENTS.md``) links committed table
snapshots under ``benchmarks/results/``; nothing else stops a snapshot
from going missing or silently drifting out of schema when an
experiment gains or renames a column.  This script fails CI when:

* a ``benchmarks/results/*.txt`` file referenced by the docs does not
  exist, or exists but is not a parseable experiment table;
* a committed snapshot's header row no longer matches the column
  schema its experiment currently produces (the ``*_HEADERS``
  constants in :mod:`repro.analysis.experiments` — single-sourced with
  the experiment functions, so a schema change must regenerate the
  snapshot in the same commit);
* a committed snapshot is not referenced by the docs at all (dead
  weight the book does not explain);
* a ``BENCH_*.json`` perf-ratchet snapshot (see
  ``benchmarks/bench_metrics.py``) is missing, malformed, or thinner
  than the floor the ratchet promises (>= 8 schemes at >= 3 sizes,
  every cell a non-negative integer), or is not referenced by the docs;
* the wall-clock (``bench_wallclock.py``), certification-service
  (``bench_service.py``), or concurrency (``bench_concurrency.py``)
  ceiling snapshot is missing, malformed, or committed with cells
  above the acceptance ceilings.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/check_results.py
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

from repro.analysis.experiments import (
    ADV_HEADERS,
    ES_HEADERS,
    F4B_HEADERS,
    F4_HEADERS,
    T5_HEADERS,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "benchmarks" / "results"
DOCS = ROOT / "docs" / "EXPERIMENTS.md"

#: snapshot stem -> (title prefix, header schema of the producing experiment).
SCHEMAS: dict[str, tuple[str, tuple[str, ...]]] = {
    "adv": ("ADV", ADV_HEADERS),
    "es": ("ES", ES_HEADERS),
    "f4": ("F4", F4_HEADERS),
    "f4b": ("F4b", F4B_HEADERS),
    "t5": ("T5", T5_HEADERS),
}


#: BENCH ratchet snapshots: filename -> metric they must declare.
BENCH_SNAPSHOTS = {
    "BENCH_views.json": "views.built",
    "BENCH_messages.json": "messages.sent",
}
BENCH_SCHEMA = "bench-metrics/v1"
BENCH_MIN_SCHEMES = 8
BENCH_MIN_SIZES = 3

#: Certification-service ceiling snapshot (see ``benchmarks/bench_service.py``).
SERVICE_SNAPSHOT = "BENCH_service.json"
SERVICE_SCHEMA = "bench-service/v1"
SERVICE_METRICS = ("cached_s", "cold_s", "wire_cached_s")
#: The committed grid must reach the paper-facing size...
SERVICE_MIN_LARGEST_N = 100_000
#: ...the cold side must sit under the cold acceptance ceiling...
SERVICE_COLD_CEILING_S = 20.0
#: ...the cached side under the size-independent O(1) ceiling...
SERVICE_CACHED_CEILING_S = 0.05
#: ...and the wire resubmission (no decode, no JSON load once indexed)
#: under its own.
SERVICE_WIRE_CACHED_CEILING_S = 5.0

#: Concurrency ceiling snapshot (see ``benchmarks/bench_concurrency.py``).
CONCURRENCY_SNAPSHOT = "BENCH_concurrency.json"
CONCURRENCY_SCHEMA = "bench-concurrency/v1"
CONCURRENCY_METRICS = ("serial_s", "threaded_s")
CONCURRENCY_WORKLOADS = ("cold", "cached")
#: Every committed cell must sit under the acceptance ceiling.
CONCURRENCY_CEILING_S = 30.0

#: Wall-clock ceiling snapshots (see ``benchmarks/bench_wallclock.py``).
WALLCLOCK_SNAPSHOT = "BENCH_wallclock.json"
WALLCLOCK_SCHEMA = "bench-wallclock/v2"
WALLCLOCK_METRIC = "certify.seconds"
WALLCLOCK_MIN_SCHEMES = 3
#: The committed grid must reach the paper-facing size...
WALLCLOCK_MIN_LARGEST_N = 100_000
#: ...and every committed cell must sit under the acceptance ceiling.
WALLCLOCK_CEILING_S = 10.0
#: The v2 end-to-end sub-grid: generate + prove + decide per instance.
WALLCLOCK_E2E_METRIC = "endtoend.seconds"
#: The end-to-end grid must reach the generation-layer headline size...
WALLCLOCK_E2E_MIN_LARGEST_N = 1_000_000
#: ...under its own acceptance ceiling.
WALLCLOCK_E2E_CEILING_S = 60.0


def referenced_snapshots() -> set[str]:
    """Snapshot filenames the experiment book links to."""
    text = DOCS.read_text(encoding="utf-8")
    return set(re.findall(r"benchmarks/results/([\w.-]+\.(?:txt|json))", text))


def check_bench_snapshot(path: pathlib.Path, metric: str) -> list[str]:
    """Schema failures for one committed BENCH_*.json ratchet snapshot."""
    name = path.name
    if not path.is_file():
        return [f"{name}: missing — run `bench_metrics.py --write` and commit"]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{name}: not valid JSON ({error})"]
    failures: list[str] = []
    if data.get("schema") != BENCH_SCHEMA:
        failures.append(f"{name}: schema {data.get('schema')!r} != {BENCH_SCHEMA!r}")
    if data.get("metric") != metric:
        failures.append(f"{name}: metric {data.get('metric')!r} != {metric!r}")
    tolerance = data.get("tolerance")
    if not isinstance(tolerance, (int, float)) or not 0 < tolerance < 1:
        failures.append(f"{name}: tolerance {tolerance!r} not in (0, 1)")
    sizes = data.get("sizes")
    if not isinstance(sizes, list) or len(sizes) < BENCH_MIN_SIZES:
        failures.append(f"{name}: needs >= {BENCH_MIN_SIZES} sizes, got {sizes!r}")
        sizes = []
    schemes = data.get("schemes")
    if not isinstance(schemes, dict) or len(schemes) < BENCH_MIN_SCHEMES:
        count = len(schemes) if isinstance(schemes, dict) else schemes
        failures.append(f"{name}: needs >= {BENCH_MIN_SCHEMES} schemes, got {count!r}")
        return failures
    expected_keys = {str(n) for n in sizes}
    for scheme, cells in sorted(schemes.items()):
        if not isinstance(cells, dict) or set(cells) != expected_keys:
            failures.append(
                f"{name}: {scheme} cells {sorted(cells)} != "
                f"sizes {sorted(expected_keys)}"
            )
            continue
        for n, value in cells.items():
            if not isinstance(value, int) or value < 0:
                failures.append(
                    f"{name}: {scheme} n={n} value {value!r} is not a "
                    "non-negative integer"
                )
    return failures


def _check_wallclock_grid(
    name: str,
    label: str,
    data: dict,
    min_largest_n: int,
    ceiling_s: float,
) -> list[str]:
    """Schema failures for one wall-clock grid (certify or endtoend)."""
    failures: list[str] = []
    sizes = data.get("sizes")
    if (
        not isinstance(sizes, list)
        or not sizes
        or not all(isinstance(n, int) and n > 0 for n in sizes)
    ):
        failures.append(
            f"{name}: {label} sizes {sizes!r} is not a list of positive ints"
        )
        sizes = []
    elif max(sizes) < min_largest_n:
        failures.append(
            f"{name}: {label} largest size {max(sizes)} < the paper-facing "
            f"{min_largest_n}"
        )
    schemes = data.get("schemes")
    if not isinstance(schemes, dict) or len(schemes) < WALLCLOCK_MIN_SCHEMES:
        count = len(schemes) if isinstance(schemes, dict) else schemes
        failures.append(
            f"{name}: {label} needs >= {WALLCLOCK_MIN_SCHEMES} schemes, "
            f"got {count!r}"
        )
        return failures
    expected_keys = {str(n) for n in sizes}
    for scheme, cells in sorted(schemes.items()):
        if not isinstance(cells, dict) or set(cells) != expected_keys:
            failures.append(
                f"{name}: {label} {scheme} cells {sorted(cells)} != "
                f"sizes {sorted(expected_keys)}"
            )
            continue
        for n, value in cells.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                failures.append(
                    f"{name}: {label} {scheme} n={n} value {value!r} is not "
                    "a number"
                )
            elif not 0 < value <= ceiling_s:
                failures.append(
                    f"{name}: {label} {scheme} n={n} committed {value}s "
                    f"outside (0, {ceiling_s:.0f}s] — the acceptance "
                    "ceiling must hold at commit time"
                )
    return failures


def check_wallclock_snapshot(path: pathlib.Path) -> list[str]:
    """Schema failures for the committed wall-clock ceiling snapshot."""
    name = path.name
    if not path.is_file():
        return [f"{name}: missing — run `bench_wallclock.py --write` and commit"]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{name}: not valid JSON ({error})"]
    failures: list[str] = []
    if data.get("schema") != WALLCLOCK_SCHEMA:
        failures.append(
            f"{name}: schema {data.get('schema')!r} != {WALLCLOCK_SCHEMA!r}"
        )
    if data.get("metric") != WALLCLOCK_METRIC:
        failures.append(
            f"{name}: metric {data.get('metric')!r} != {WALLCLOCK_METRIC!r}"
        )
    failures.extend(
        _check_wallclock_grid(
            name, "certify", data, WALLCLOCK_MIN_LARGEST_N, WALLCLOCK_CEILING_S
        )
    )
    endtoend = data.get("endtoend")
    if not isinstance(endtoend, dict):
        failures.append(
            f"{name}: endtoend grid missing — the v2 schema commits the "
            "generate + prove + decide ceiling alongside certify"
        )
        return failures
    if endtoend.get("metric") != WALLCLOCK_E2E_METRIC:
        failures.append(
            f"{name}: endtoend metric {endtoend.get('metric')!r} != "
            f"{WALLCLOCK_E2E_METRIC!r}"
        )
    failures.extend(
        _check_wallclock_grid(
            name,
            "endtoend",
            endtoend,
            WALLCLOCK_E2E_MIN_LARGEST_N,
            WALLCLOCK_E2E_CEILING_S,
        )
    )
    return failures


def check_service_snapshot(path: pathlib.Path) -> list[str]:
    """Schema failures for the committed service ceiling snapshot."""
    name = path.name
    if not path.is_file():
        return [f"{name}: missing — run `bench_service.py --write` and commit"]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{name}: not valid JSON ({error})"]
    failures: list[str] = []
    if data.get("schema") != SERVICE_SCHEMA:
        failures.append(f"{name}: schema {data.get('schema')!r} != {SERVICE_SCHEMA!r}")
    sizes = data.get("sizes")
    if (
        not isinstance(sizes, list)
        or not sizes
        or not all(isinstance(n, int) and n > 0 for n in sizes)
    ):
        failures.append(f"{name}: sizes {sizes!r} is not a list of positive ints")
        sizes = []
    elif max(sizes) < SERVICE_MIN_LARGEST_N:
        failures.append(
            f"{name}: largest size {max(sizes)} < the paper-facing "
            f"{SERVICE_MIN_LARGEST_N}"
        )
    metrics = data.get("metrics")
    if not isinstance(metrics, dict) or set(metrics) != set(SERVICE_METRICS):
        keys = sorted(metrics) if isinstance(metrics, dict) else metrics
        failures.append(f"{name}: metrics {keys!r} != {sorted(SERVICE_METRICS)}")
        return failures
    ceilings = {
        "cold_s": SERVICE_COLD_CEILING_S,
        "cached_s": SERVICE_CACHED_CEILING_S,
        "wire_cached_s": SERVICE_WIRE_CACHED_CEILING_S,
    }
    expected_keys = {str(n) for n in sizes}
    for metric, cells in sorted(metrics.items()):
        if not isinstance(cells, dict) or set(cells) != expected_keys:
            failures.append(
                f"{name}: {metric} cells {sorted(cells)} != "
                f"sizes {sorted(expected_keys)}"
            )
            continue
        for n, value in cells.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                failures.append(
                    f"{name}: {metric} n={n} value {value!r} is not a number"
                )
            elif not 0 < value <= ceilings[metric]:
                failures.append(
                    f"{name}: {metric} n={n} committed {value}s outside "
                    f"(0, {ceilings[metric]:g}s] — the acceptance ceiling "
                    "must hold at commit time"
                )
    return failures


def check_concurrency_snapshot(path: pathlib.Path) -> list[str]:
    """Schema failures for the committed concurrency ceiling snapshot."""
    name = path.name
    if not path.is_file():
        return [
            f"{name}: missing — run `bench_concurrency.py --write` and commit"
        ]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{name}: not valid JSON ({error})"]
    failures: list[str] = []
    if data.get("schema") != CONCURRENCY_SCHEMA:
        failures.append(
            f"{name}: schema {data.get('schema')!r} != {CONCURRENCY_SCHEMA!r}"
        )
    threads = data.get("client_threads")
    if not isinstance(threads, int) or threads < 2:
        failures.append(
            f"{name}: client_threads {threads!r} — the threaded side must "
            "actually be concurrent (>= 2)"
        )
    metrics = data.get("metrics")
    if not isinstance(metrics, dict) or set(metrics) != set(
        CONCURRENCY_METRICS
    ):
        keys = sorted(metrics) if isinstance(metrics, dict) else metrics
        failures.append(
            f"{name}: metrics {keys!r} != {sorted(CONCURRENCY_METRICS)}"
        )
        return failures
    expected_keys = set(CONCURRENCY_WORKLOADS)
    for metric, cells in sorted(metrics.items()):
        if not isinstance(cells, dict) or set(cells) != expected_keys:
            failures.append(
                f"{name}: {metric} cells {sorted(cells)} != "
                f"workloads {sorted(expected_keys)}"
            )
            continue
        for workload, value in cells.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                failures.append(
                    f"{name}: {metric} {workload} value {value!r} is not a "
                    "number"
                )
            elif not 0 < value <= CONCURRENCY_CEILING_S:
                failures.append(
                    f"{name}: {metric} {workload} committed {value}s outside "
                    f"(0, {CONCURRENCY_CEILING_S:g}s] — the acceptance "
                    "ceiling must hold at commit time"
                )
    return failures


def parse_table(path: pathlib.Path) -> tuple[str, tuple[str, ...], int]:
    """(title, headers, data row count) of a rendered experiment table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 4:
        raise ValueError("too short to be an experiment table")
    title = lines[0]
    if not (title.startswith("== ") and title.endswith(" ==")):
        raise ValueError(f"first line is not a table title: {title!r}")
    headers = tuple(re.split(r"\s{2,}", lines[1].strip()))
    if not re.fullmatch(r"[-\s]+", lines[2]):
        raise ValueError("third line is not a header separator")
    data_rows = 0
    for line in lines[3:]:
        if line.startswith("* ") or not line.strip():
            break
        data_rows += 1
    if not data_rows:
        raise ValueError("table has no data rows")
    return title[3:-3], headers, data_rows


def main() -> int:
    failures: list[str] = []
    referenced = referenced_snapshots()
    if not referenced:
        failures.append(f"{DOCS}: no benchmarks/results/ links found")
    for name, metric in sorted(BENCH_SNAPSHOTS.items()):
        failures.extend(check_bench_snapshot(RESULTS_DIR / name, metric))
        if name not in referenced:
            failures.append(
                f"{name}: ratchet snapshot not referenced by docs/EXPERIMENTS.md"
            )
    failures.extend(check_wallclock_snapshot(RESULTS_DIR / WALLCLOCK_SNAPSHOT))
    if WALLCLOCK_SNAPSHOT not in referenced:
        failures.append(
            f"{WALLCLOCK_SNAPSHOT}: ceiling snapshot not referenced by "
            "docs/EXPERIMENTS.md"
        )
    failures.extend(check_service_snapshot(RESULTS_DIR / SERVICE_SNAPSHOT))
    if SERVICE_SNAPSHOT not in referenced:
        failures.append(
            f"{SERVICE_SNAPSHOT}: ceiling snapshot not referenced by "
            "docs/EXPERIMENTS.md"
        )
    failures.extend(
        check_concurrency_snapshot(RESULTS_DIR / CONCURRENCY_SNAPSHOT)
    )
    if CONCURRENCY_SNAPSHOT not in referenced:
        failures.append(
            f"{CONCURRENCY_SNAPSHOT}: ceiling snapshot not referenced by "
            "docs/EXPERIMENTS.md"
        )
    for name in sorted(referenced):
        path = RESULTS_DIR / name
        if name.endswith(".json"):
            if name not in BENCH_SNAPSHOTS and name not in (
                WALLCLOCK_SNAPSHOT,
                SERVICE_SNAPSHOT,
                CONCURRENCY_SNAPSHOT,
            ):
                failures.append(
                    f"{name}: JSON snapshot not registered in "
                    "benchmarks/check_results.py"
                )
            continue
        if not path.is_file():
            failures.append(f"{name}: referenced by docs/EXPERIMENTS.md but missing")
            continue
        try:
            title, headers, data_rows = parse_table(path)
        except ValueError as error:
            failures.append(f"{name}: unparseable snapshot ({error})")
            continue
        schema = SCHEMAS.get(path.stem)
        if schema is None:
            failures.append(
                f"{name}: no schema registered in benchmarks/check_results.py "
                "(add it next to the experiment's *_HEADERS constant)"
            )
            continue
        prefix, expected = schema
        if not title.startswith(prefix):
            failures.append(
                f"{name}: table title {title!r} does not start with {prefix!r}"
            )
        if headers != expected:
            failures.append(
                f"{name}: stale schema — snapshot columns {list(headers)} != "
                f"experiment columns {list(expected)}; regenerate with "
                f"`pytest benchmarks/ --benchmark-only`"
            )
    committed = {
        path.name
        for pattern in ("*.txt", "*.json")
        for path in RESULTS_DIR.glob(pattern)
    }
    for name in sorted(committed - referenced):
        failures.append(
            f"{name}: committed under benchmarks/results/ but never referenced "
            "by docs/EXPERIMENTS.md"
        )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print(
        f"ok: {len(referenced)} committed snapshots match their schemas "
        f"(incl. {len(BENCH_SNAPSHOTS)} perf-ratchet files and the "
        "wall-clock, service, and concurrency ceilings)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

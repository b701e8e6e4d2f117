"""The committed benchmark ratchets: one declaration each, one spine.

Four scripts hold the repository's measured claims against snapshots
committed under ``benchmarks/results/``:

* ``bench_metrics.py`` — the paper's verification cost in deterministic
  units (views built, messages sent) per scheme and size;
* ``bench_wallclock.py`` — the array core's certify round and whole
  pipeline wall clock at large n;
* ``bench_service.py`` — the certification service's cold submit and
  its cached resubmissions;
* ``bench_concurrency.py`` — the HTTP front end, serial vs threaded.

This module declares every snapshot once — its file, its header (schema
tag, bounds and the parameters it was measured under), its grids of
cells with each grid's bound and floors — and holds what the scripts
share: building a snapshot from the measured cells, comparing measured
with committed cells (``--check``), the static check of a committed file
(``check_results.py``) and the one command line.

A grid is ``{row: {column: value}}`` at a key path of its snapshot, and
its bound is one of two kinds:

* :class:`Tolerance` — a deterministic count fails more than 10% above
  its committed value;
* :class:`Headroom` — wall clock depends on the machine, so a cell fails
  only past an absolute ceiling, or past 4x its committed value when it
  is also slower than a noise floor.  Faster runs always pass.

Every script measures every cell of its grids, then::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --check
    PYTHONPATH=src python benchmarks/bench_wallclock.py --check --json-out measured
    PYTHONPATH=src python benchmarks/bench_wallclock.py --write
"""

from __future__ import annotations

import argparse
import copy
import json
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: ``{row: {column: value}}``, columns keyed as strings (JSON keys).
Cells = Mapping[str, Mapping[str, Any]]

#: A deterministic count may grow by at most this fraction.
TOLERANCE = 0.10
#: A wall-clock cell fails past this multiple of its committed value:
#: 4x separates "a different machine" from "the fast path fell off".
HEADROOM = 4.0


@dataclass(frozen=True)
class Tolerance:
    """Integer counts: a cell fails past ``fraction`` above its committed value."""

    fraction: float

    def exceeded(self, row: str, old: int, new: int) -> str | None:
        if new > old * (1.0 + self.fraction):
            return (
                f"regressed {old} -> {new} (+{(new / max(1, old) - 1) * 100:.1f}%, "
                f"tolerance {self.fraction * 100:.0f}%)"
            )
        return None

    def invalid(self, row: str, value: Any) -> str | None:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            return f"value {value!r} is not a non-negative integer"
        return None


@dataclass(frozen=True)
class Headroom:
    """Seconds: a cell fails past its absolute ceiling, or past
    :data:`HEADROOM` x its committed value when slower than the noise floor."""

    #: One ceiling for the grid, or one per row.
    ceiling_s: float | Mapping[str, float]
    #: Cells faster than this never fail on the ratio alone.
    noise_floor_s: float

    def ceiling(self, row: str) -> float:
        if isinstance(self.ceiling_s, Mapping):
            return self.ceiling_s[row]
        return self.ceiling_s

    def exceeded(self, row: str, old: float, new: float) -> str | None:
        ceiling = self.ceiling(row)
        if new > ceiling:
            return f"took {new:.4g}s > absolute ceiling {ceiling:g}s"
        if new > self.noise_floor_s and new > old * HEADROOM:
            return f"took {new:.4g}s > {HEADROOM:g}x the committed {old:.4g}s"
        return None

    def invalid(self, row: str, value: Any) -> str | None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"value {value!r} is not a number"
        if not 0 < value <= self.ceiling(row):
            return (
                f"committed {value}s outside (0, {self.ceiling(row):g}s] — the "
                "acceptance ceiling must hold at commit time"
            )
        return None


@dataclass(frozen=True)
class Grid:
    """The cells ``{row: {column: value}}`` at key path ``at``."""

    name: str
    at: tuple[str, ...]
    rows: tuple[str, ...]
    columns: tuple[Any, ...]
    bound: Tolerance | Headroom
    #: Floors: the fewest rows and columns, and the least largest size.
    min_rows: int = 1
    min_columns: int = 1
    min_largest: int = 0

    def keys(self) -> set[tuple[str, str]]:
        return {(row, str(column)) for row in self.rows for column in self.columns}


@dataclass(frozen=True)
class Snapshot:
    """One committed ``BENCH_*.json`` file and the script that measures it."""

    file: str
    script: str
    #: Every field but the cells; a nested dict holds a nested grid.
    header: Mapping[str, Any]
    grids: tuple[Grid, ...]
    #: Header fields with a least value.
    floors: Mapping[str, int] = field(default_factory=dict)


# -- the declarations --------------------------------------------------------

#: bench_metrics.py: catalog names x network sizes.
COST_SCHEMES = (
    "agreement",
    "leader",
    "bfs-tree",
    "spanning-tree-ptr",
    "spanning-tree-list",
    "mst",
    "coloring-echo",
    "bipartite",
    "independent-set",
    "matching",
)
COST_SIZES = (16, 32, 64)
VIEWS, MESSAGES = (
    Snapshot(
        f"BENCH_{name}.json",
        "bench_metrics.py",
        {
            "schema": "bench-metrics/v1",
            "metric": metric,
            "tolerance": TOLERANCE,
            "sizes": list(COST_SIZES),
        },
        (
            Grid(
                name,
                ("schemes",),
                COST_SCHEMES,
                COST_SIZES,
                Tolerance(TOLERANCE),
                min_rows=8,
                min_columns=3,
            ),
        ),
    )
    for name, metric in (("views", "views.built"), ("messages", "messages.sent"))
)

#: bench_wallclock.py: batch-capable schemes on random trees; a
#: verification round up to n = 10^5, the whole pipeline up to 10^6.
WALLCLOCK_SCHEMES = ("spanning-tree-ptr", "leader", "bfs-tree")
CERTIFY_SIZES = (1_000, 10_000, 100_000)
ENDTOEND_SIZES = (10_000, 100_000, 1_000_000)
CERTIFY_CEILING_S = 10.0
ENDTOEND_CEILING_S = 60.0
WALLCLOCK_NOISE_FLOOR_S = 0.5
WALLCLOCK = Snapshot(
    "BENCH_wallclock.json",
    "bench_wallclock.py",
    {
        "schema": "bench-wallclock/v2",
        "metric": "certify.seconds",
        "headroom": HEADROOM,
        "noise_floor_s": WALLCLOCK_NOISE_FLOOR_S,
        "abs_ceiling_s": CERTIFY_CEILING_S,
        "sizes": list(CERTIFY_SIZES),
        "endtoend": {
            "metric": "endtoend.seconds",
            "abs_ceiling_s": ENDTOEND_CEILING_S,
            "sizes": list(ENDTOEND_SIZES),
        },
    },
    (
        Grid(
            "certify",
            ("schemes",),
            WALLCLOCK_SCHEMES,
            CERTIFY_SIZES,
            Headroom(CERTIFY_CEILING_S, WALLCLOCK_NOISE_FLOOR_S),
            min_rows=3,
            min_largest=100_000,
        ),
        Grid(
            "endtoend",
            ("endtoend", "schemes"),
            WALLCLOCK_SCHEMES,
            ENDTOEND_SIZES,
            Headroom(ENDTOEND_CEILING_S, WALLCLOCK_NOISE_FLOOR_S),
            min_rows=3,
            min_largest=1_000_000,
        ),
    ),
)

#: bench_service.py and bench_concurrency.py share a noise floor.
SERVICE_NOISE_FLOOR_S = 0.25
#: bench_service.py: a cold submit, and resubmissions in process (the
#: O(1) claim: one ceiling at every n) and as wire bytes.
SERVICE_SIZES = (10_000, 100_000)
COLD_CEILING_S = 20.0
CACHED_CEILING_S = 0.05
WIRE_CACHED_CEILING_S = 5.0
SERVICE = Snapshot(
    "BENCH_service.json",
    "bench_service.py",
    {
        "schema": "bench-service/v1",
        "scheme": "spanning-tree-ptr",
        "headroom": HEADROOM,
        "noise_floor_s": SERVICE_NOISE_FLOOR_S,
        "cold_ceiling_s": COLD_CEILING_S,
        "cached_ceiling_s": CACHED_CEILING_S,
        "wire_cached_ceiling_s": WIRE_CACHED_CEILING_S,
        "sizes": list(SERVICE_SIZES),
    },
    (
        Grid(
            "service",
            ("metrics",),
            ("cold_s", "cached_s", "wire_cached_s"),
            SERVICE_SIZES,
            Headroom(
                {
                    "cold_s": COLD_CEILING_S,
                    "cached_s": CACHED_CEILING_S,
                    "wire_cached_s": WIRE_CACHED_CEILING_S,
                },
                SERVICE_NOISE_FLOOR_S,
            ),
            min_largest=100_000,
        ),
    ),
)

#: bench_concurrency.py: two workloads through 1 vs ``client_threads``
#: keep-alive clients; convoys and lock storms land far past the ceiling.
CONCURRENCY_WORKLOADS = ("cold", "cached")
CONCURRENCY_CEILING_S = 30.0
CONCURRENCY = Snapshot(
    "BENCH_concurrency.json",
    "bench_concurrency.py",
    {
        "schema": "bench-concurrency/v1",
        "scheme": "spanning-tree-ptr",
        "n": 64,
        "client_threads": 4,
        "cold_envelopes": 32,
        "cached_resubmits": 256,
        "headroom": HEADROOM,
        "noise_floor_s": SERVICE_NOISE_FLOOR_S,
        "ceiling_s": CONCURRENCY_CEILING_S,
        "workloads": list(CONCURRENCY_WORKLOADS),
    },
    (
        Grid(
            "concurrency",
            ("metrics",),
            ("serial_s", "threaded_s"),
            CONCURRENCY_WORKLOADS,
            Headroom(CONCURRENCY_CEILING_S, SERVICE_NOISE_FLOOR_S),
        ),
    ),
    # the threaded side must actually be concurrent
    floors={"client_threads": 2},
)

SNAPSHOTS = (VIEWS, MESSAGES, WALLCLOCK, SERVICE, CONCURRENCY)


# -- the spine ---------------------------------------------------------------


def _dig(data: Any, path: Sequence[str]) -> Any:
    for key in path:
        if not isinstance(data, Mapping):
            return None
        data = data.get(key)
    return data


def _fields(header: Mapping[str, Any], prefix: tuple[str, ...] = ()):
    """(key path, value) of every header field, nested dicts flattened."""
    for key, value in header.items():
        if isinstance(value, Mapping):
            yield from _fields(value, (*prefix, key))
        else:
            yield (*prefix, key), value


def cells(document: Any, grid: Grid) -> dict[tuple[str, str], Any]:
    """The grid's cells in a snapshot document, keyed ``(row, column)``."""
    rows = _dig(document, grid.at)
    if not isinstance(rows, Mapping):
        return {}
    return {
        (row, column): value
        for row, columns in rows.items()
        if isinstance(columns, Mapping)
        for column, value in columns.items()
    }


def build(snapshot: Snapshot, measured: Mapping[str, Cells]) -> dict[str, Any]:
    """The snapshot document: its header plus each grid's measured cells."""
    document = copy.deepcopy(dict(snapshot.header))
    for grid in snapshot.grids:
        parent = document
        for key in grid.at[:-1]:
            parent = parent.setdefault(key, {})
        parent[grid.at[-1]] = {row: dict(c) for row, c in measured[grid.name].items()}
    return document


def dumps(document: Mapping[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load(snapshot: Snapshot, path: pathlib.Path) -> tuple[Any, list[str]]:
    """(document, failures) of a committed snapshot file."""
    if not path.is_file():
        return None, [f"{path.name}: missing — run {snapshot.script} --write"]
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return None, [f"{path.name}: not valid JSON ({error})"]
    if not isinstance(document, dict):
        return None, [f"{path.name}: not a JSON object"]
    return document, []


def compare(
    snapshot: Snapshot, committed: Mapping[str, Any], measured: Mapping[str, Any]
) -> list[str]:
    """Failures of a measured document against the committed one.

    Grid drift — a committed cell not measured, or a measured cell not
    committed — fails as well: a change that alters a grid rewrites the
    snapshot in the same commit.
    """
    failures: list[str] = []
    for grid in snapshot.grids:
        label = f"{snapshot.file} {grid.name}"
        old, new = cells(committed, grid), cells(measured, grid)
        for key in sorted(old.keys() - new.keys()):
            failures.append(f"{label}: committed cell {key} no longer measured")
        for key in sorted(new.keys() - old.keys()):
            failures.append(f"{label}: new cell {key} missing from the snapshot")
        for key in sorted(old.keys() & new.keys()):
            problem = grid.bound.exceeded(key[0], old[key], new[key])
            if problem:
                failures.append(f"{label}: {key[0]} {key[1]} {problem}")
    return failures


def check_snapshot(snapshot: Snapshot, path: pathlib.Path) -> list[str]:
    """Static failures of a committed snapshot: a header that is not the
    declared one, cells off the declared grid or out of their bound, and
    grids or header fields below their floors."""
    document, failures = load(snapshot, path)
    if document is None:
        return failures
    name = path.name
    for path_, want in _fields(snapshot.header):
        got = _dig(document, path_)
        if got != want:
            failures.append(f"{name}: {'.'.join(path_)} {got!r} != {want!r}")
    for key, least in snapshot.floors.items():
        value = document.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            failures.append(f"{name}: {key} {value!r} below its floor {least}")
    for grid in snapshot.grids:
        label = f"{name} {grid.name}"
        found = cells(document, grid)
        for key in sorted(grid.keys() - found.keys()):
            failures.append(f"{label}: declared cell {key} not committed")
        for key in sorted(found.keys() - grid.keys()):
            failures.append(f"{label}: committed cell {key} not declared")
        for row, column in sorted(found.keys() & grid.keys()):
            problem = grid.bound.invalid(row, found[row, column])
            if problem:
                failures.append(f"{label}: {row} {column} {problem}")
        columns = {column for _, column in found}
        largest = max((int(c) for c in columns if c.isdigit()), default=0)
        for what, count, least in (
            ("rows", len({row for row, _ in found}), grid.min_rows),
            ("columns", len(columns), grid.min_columns),
            ("largest size", largest, grid.min_largest),
        ):
            if count < least:
                failures.append(f"{label}: {what} {count} below its floor {least}")
    return failures


def main(
    snapshots: Sequence[Snapshot],
    measure: Callable[[], Mapping[str, Cells]],
    argv: list[str] | None = None,
) -> int:
    """Measure every cell, then write the snapshots or check against them."""
    files = ", ".join(snapshot.file for snapshot in snapshots)
    parser = argparse.ArgumentParser(
        description=f"measure every cell of {files}, then write or check them"
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write", action="store_true", help="write the measured snapshots"
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="fail on a cell past its bound against the committed snapshot",
    )
    parser.add_argument(
        "--json-out",
        metavar="DIR",
        type=pathlib.Path,
        help="also write the measured snapshots into DIR",
    )
    args = parser.parse_args(argv)
    measured = measure()
    documents = [(snapshot, build(snapshot, measured)) for snapshot in snapshots]
    directories = [RESULTS_DIR] if args.write else []
    if args.json_out:
        directories.append(args.json_out)
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
        for snapshot, document in documents:
            (directory / snapshot.file).write_text(dumps(document), encoding="utf-8")
            print(f"wrote {directory / snapshot.file}")
    if args.write:
        return 0
    failures: list[str] = []
    for snapshot, document in documents:
        committed, problems = load(snapshot, RESULTS_DIR / snapshot.file)
        failures += problems or compare(snapshot, committed, document)
        for grid in snapshot.grids:
            if isinstance(grid.bound, Tolerance):
                old, new = cells(committed, grid), cells(document, grid)
                for key in sorted(old.keys() & new.keys()):
                    if new[key] < old[key]:
                        print(
                            f"note: {grid.name} {key} improved {old[key]} -> "
                            f"{new[key]}; --write ratchets it down"
                        )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        total = sum(len(grid.keys()) for s in snapshots for grid in s.grids)
        print(f"ok: {total} cells within their bounds")
    return 1 if failures else 0

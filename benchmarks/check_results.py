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
* a ``BENCH_*.json`` ratchet snapshot fails the static check of its
  declaration in :mod:`ratchet` — missing, malformed, a header other
  than the declared one, cells off the declared grid, not numbers, or
  outside their bound, a grid thinner than its floors — or is not
  referenced by the docs.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/check_results.py
"""

from __future__ import annotations

import pathlib
import re
import sys

import ratchet
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


def referenced_snapshots(docs: pathlib.Path = DOCS) -> set[str]:
    """Snapshot filenames the experiment book links to."""
    text = docs.read_text(encoding="utf-8")
    return set(re.findall(r"benchmarks/results/([\w.-]+\.(?:txt|json))", text))


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


def check(
    results_dir: pathlib.Path = RESULTS_DIR, docs: pathlib.Path = DOCS
) -> list[str]:
    """Failures of the committed snapshots under ``results_dir``."""
    failures: list[str] = []
    referenced = referenced_snapshots(docs)
    if not referenced:
        failures.append(f"{docs}: no benchmarks/results/ links found")
    declared = {snapshot.file for snapshot in ratchet.SNAPSHOTS}
    for snapshot in ratchet.SNAPSHOTS:
        failures.extend(ratchet.check_snapshot(snapshot, results_dir / snapshot.file))
        if snapshot.file not in referenced:
            failures.append(
                f"{snapshot.file}: ratchet snapshot not referenced by "
                "docs/EXPERIMENTS.md"
            )
    for name in sorted(referenced):
        path = results_dir / name
        if name.endswith(".json"):
            if name not in declared:
                failures.append(
                    f"{name}: JSON snapshot not declared in benchmarks/ratchet.py"
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
        for path in results_dir.glob(pattern)
    }
    for name in sorted(committed - referenced):
        failures.append(
            f"{name}: committed under benchmarks/results/ but never referenced "
            "by docs/EXPERIMENTS.md"
        )
    return failures


def main() -> int:
    failures = check()
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print(
        "ok: every referenced snapshot matches its schema, incl. "
        f"{len(ratchet.SNAPSHOTS)} ratchet files"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the committed benchmark ratchets (`benchmarks/ratchet.py`).

A ratchet's whole value is that it *fires*: these tests load the spine
and the cost benchmark from their files, pin the compare of every bound
kind just inside and just past its bound, grid drift both ways, every
failure path of the static check and of ``check_results.py``, the one
command line, and — the acceptance test — inject a 2x view-build
accounting regression through the ``record_view_builds`` seam and watch
the ratchet fail.  Every file they write goes under ``tmp_path``.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

from repro.obs import metrics as obs

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCHMARKS = REPO / "benchmarks"
RESULTS = BENCHMARKS / "results"


def _load(name: str):
    """A benchmarks/ module by file; ``import ratchet`` then finds it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


ratchet = _load("ratchet")
SNAPSHOTS = {snapshot.file: snapshot for snapshot in ratchet.SNAPSHOTS}


@pytest.fixture(scope="module")
def bench():
    return _load("bench_metrics")


@pytest.fixture(autouse=True)
def _clean_scopes():
    yield
    obs._reset_for_tests()


def _committed(snapshot) -> dict:
    return json.loads((RESULTS / snapshot.file).read_text(encoding="utf-8"))


def _grid(snapshot, name: str):
    return next(grid for grid in snapshot.grids if grid.name == name)


def _rows(document: dict, grid) -> dict:
    for key in grid.at:
        document = document[key]
    return document


def _with_cell(document: dict, grid, row: str, column: str, value) -> dict:
    changed = copy.deepcopy(document)
    _rows(changed, grid)[row][column] = value
    return changed


#: (snapshot, grid, row, column, bound kind) — every bound kind of
#: every ratchet, each with the committed value it is measured against.
BOUND_CASES = [
    ("BENCH_views.json", "views", "leader", "16", "tolerance"),
    ("BENCH_messages.json", "messages", "mst", "64", "tolerance"),
    ("BENCH_wallclock.json", "endtoend", "leader", "1000000", "headroom"),
    ("BENCH_wallclock.json", "certify", "leader", "1000", "noise floor"),
    ("BENCH_wallclock.json", "certify", "bfs-tree", "100000", "ceiling"),
    ("BENCH_wallclock.json", "endtoend", "bfs-tree", "10000", "ceiling"),
    ("BENCH_service.json", "service", "cold_s", "10000", "noise floor"),
    ("BENCH_service.json", "service", "cold_s", "100000", "ceiling"),
    ("BENCH_service.json", "service", "cached_s", "100000", "ceiling"),
    ("BENCH_service.json", "service", "wire_cached_s", "10000", "ceiling"),
    ("BENCH_concurrency.json", "concurrency", "serial_s", "cold", "noise floor"),
    ("BENCH_concurrency.json", "concurrency", "threaded_s", "cached", "ceiling"),
]


def _bound_limits(bound, row: str, old, kind: str):
    """(committed, just inside, just past) for one bound kind."""
    if kind == "tolerance":
        inside = int(old * (1 + bound.fraction))
        return old, inside, inside + 1
    if kind == "headroom":
        assert bound.noise_floor_s < old * ratchet.HEADROOM < bound.ceiling(row)
        return old, old * ratchet.HEADROOM, old * ratchet.HEADROOM * 1.001
    if kind == "noise floor":
        assert old * ratchet.HEADROOM < bound.noise_floor_s
        return old, bound.noise_floor_s, bound.noise_floor_s * 1.001
    # half the ceiling: the ratio trips only past twice the ceiling
    ceiling = bound.ceiling(row)
    return ceiling / 2, ceiling, ceiling * 1.001


class TestCompare:
    @pytest.mark.parametrize("file, grid_name, row, column, kind", BOUND_CASES)
    def test_just_inside_passes_and_just_past_fails(
        self, file, grid_name, row, column, kind
    ):
        snapshot = SNAPSHOTS[file]
        grid = _grid(snapshot, grid_name)
        old = _rows(_committed(snapshot), grid)[row][column]
        old, inside, past = _bound_limits(grid.bound, row, old, kind)
        committed = _with_cell(_committed(snapshot), grid, row, column, old)
        measured = _with_cell(committed, grid, row, column, inside)
        assert ratchet.compare(snapshot, committed, measured) == []
        measured = _with_cell(committed, grid, row, column, past)
        failures = ratchet.compare(snapshot, committed, measured)
        assert len(failures) == 1
        fragment = {
            "tolerance": "regressed",
            "headroom": "x the committed",
            "noise floor": "x the committed",
            "ceiling": "absolute ceiling",
        }[kind]
        assert fragment in failures[0] and f"{row} {column}" in failures[0]

    def test_faster_cells_pass(self):
        for snapshot in ratchet.SNAPSHOTS:
            committed = _committed(snapshot)
            measured = copy.deepcopy(committed)
            for grid in snapshot.grids:
                for columns in _rows(measured, grid).values():
                    for column in columns:
                        columns[column] = 0
            assert ratchet.compare(snapshot, committed, measured) == []

    @pytest.mark.parametrize("file", sorted(SNAPSHOTS))
    def test_grid_drift_fails_both_ways(self, file):
        snapshot = SNAPSHOTS[file]
        committed = _committed(snapshot)
        for grid in snapshot.grids:
            row, column = grid.rows[0], str(grid.columns[0])
            unmeasured = copy.deepcopy(committed)
            del _rows(unmeasured, grid)[row][column]
            failures = ratchet.compare(snapshot, committed, unmeasured)
            assert len(failures) == 1 and "no longer measured" in failures[0]
            extra = _with_cell(committed, grid, row, "7", 1)
            failures = ratchet.compare(snapshot, committed, extra)
            assert len(failures) == 1 and "missing from the snapshot" in failures[0]


class TestStaticCheck:
    @pytest.fixture
    def results(self, tmp_path):
        return pathlib.Path(shutil.copytree(RESULTS, tmp_path / "results"))

    def _check_with(self, results, snapshot, document) -> list[str]:
        path = results / snapshot.file
        path.write_text(ratchet.dumps(document), encoding="utf-8")
        return ratchet.check_snapshot(snapshot, path)

    @pytest.mark.parametrize("file", sorted(SNAPSHOTS))
    def test_committed_round_trips_byte_identically(self, file):
        snapshot = SNAPSHOTS[file]
        committed = _committed(snapshot)
        measured = {grid.name: _rows(committed, grid) for grid in snapshot.grids}
        text = (RESULTS / file).read_text(encoding="utf-8")
        assert ratchet.dumps(ratchet.build(snapshot, measured)) == text

    @pytest.mark.parametrize("file", sorted(SNAPSHOTS))
    def test_missing_and_invalid_json_fail(self, results, file):
        snapshot = SNAPSHOTS[file]
        path = results / file
        path.unlink()
        assert "missing" in ratchet.check_snapshot(snapshot, path)[0]
        path.write_text("{", encoding="utf-8")
        assert "not valid JSON" in ratchet.check_snapshot(snapshot, path)[0]
        path.write_text("[]", encoding="utf-8")
        assert "not a JSON object" in ratchet.check_snapshot(snapshot, path)[0]

    @pytest.mark.parametrize("file", sorted(SNAPSHOTS))
    def test_wrong_schema_tag_fails(self, results, file):
        snapshot = SNAPSHOTS[file]
        document = {**_committed(snapshot), "schema": "bench-other/v0"}
        (failure,) = self._check_with(results, snapshot, document)
        assert failure.startswith(f"{file}: schema 'bench-other/v0' != ")

    @pytest.mark.parametrize("file", sorted(SNAPSHOTS))
    @pytest.mark.parametrize("value", ["fast", None, True, -1, 0.5])
    def test_non_numeric_or_negative_cell_fails(self, results, file, value):
        snapshot = SNAPSHOTS[file]
        for grid in snapshot.grids:
            if value == 0.5 and isinstance(grid.bound, ratchet.Headroom):
                continue  # a fraction of a second is a valid wall-clock cell
            row, column = grid.rows[-1], str(grid.columns[-1])
            document = _with_cell(_committed(snapshot), grid, row, column, value)
            (failure,) = self._check_with(results, snapshot, document)
            assert f"{grid.name}: {row} {column}" in failure

    @pytest.mark.parametrize("file", sorted(SNAPSHOTS))
    def test_committed_value_above_its_ceiling_fails(self, results, file):
        snapshot = SNAPSHOTS[file]
        for grid in snapshot.grids:
            if not isinstance(grid.bound, ratchet.Headroom):
                continue
            for row in grid.rows:
                ceiling = grid.bound.ceiling(row)
                column = str(grid.columns[0])
                at = _with_cell(_committed(snapshot), grid, row, column, ceiling)
                assert self._check_with(results, snapshot, at) == []
                past = _with_cell(at, grid, row, column, ceiling * 1.001)
                (failure,) = self._check_with(results, snapshot, past)
                assert "acceptance ceiling" in failure

    @pytest.mark.parametrize(
        "file, grid_name, cut, fragment",
        [
            ("BENCH_views.json", "views", "rows", "rows 7 below its floor 8"),
            ("BENCH_messages.json", "messages", "columns", "columns 2 below"),
            ("BENCH_wallclock.json", "certify", "rows", "rows 2 below its floor 3"),
            ("BENCH_wallclock.json", "certify", "largest", "size 10000 below"),
            ("BENCH_wallclock.json", "endtoend", "largest", "size 100000 below"),
            ("BENCH_service.json", "service", "largest", "size 10000 below"),
        ],
    )
    def test_grid_below_its_floor_fails(self, results, file, grid_name, cut, fragment):
        snapshot = SNAPSHOTS[file]
        grid = _grid(snapshot, grid_name)
        document = _committed(snapshot)
        rows = _rows(document, grid)
        if cut == "rows":
            for row in grid.rows[grid.min_rows - 1 :]:
                del rows[row]
        else:
            keep = grid.min_columns - 1 if cut == "columns" else len(grid.columns) - 1
            for columns in rows.values():
                for column in grid.columns[keep:]:
                    del columns[str(column)]
        failures = self._check_with(results, snapshot, document)
        assert any(fragment in failure for failure in failures), failures

    def test_header_floor_fails(self, results):
        snapshot = ratchet.CONCURRENCY
        document = {**_committed(snapshot), "client_threads": 1}
        failures = self._check_with(results, snapshot, document)
        assert any("client_threads 1 below its floor 2" in f for f in failures)


class TestCheckResults:
    @pytest.fixture(scope="class")
    def check_results(self):
        return _load("check_results")

    @pytest.fixture
    def results(self, tmp_path):
        return pathlib.Path(shutil.copytree(RESULTS, tmp_path / "results"))

    def test_committed_results_pass(self, check_results, results):
        assert check_results.check(results) == []

    def test_unreferenced_json_snapshot_fails(self, check_results, results):
        shutil.copy(results / "BENCH_views.json", results / "BENCH_extra.json")
        (failure,) = check_results.check(results)
        assert failure.startswith("BENCH_extra.json: committed under")
        assert "never referenced by docs/EXPERIMENTS.md" in failure

    def test_referenced_undeclared_json_fails(self, check_results, results, tmp_path):
        docs = tmp_path / "EXPERIMENTS.md"
        text = (REPO / "docs" / "EXPERIMENTS.md").read_text(encoding="utf-8")
        docs.write_text(text + "\nbenchmarks/results/BENCH_extra.json\n")
        (failure,) = check_results.check(results, docs)
        assert "not declared in benchmarks/ratchet.py" in failure

    def test_ratchet_failures_reach_check_results(self, check_results, results):
        (results / "BENCH_service.json").write_text("{", encoding="utf-8")
        (failure,) = check_results.check(results)
        assert failure.startswith("BENCH_service.json: not valid JSON")


class TestCommandLine:
    def _measured(self, snapshot, change=None):
        committed = _committed(snapshot)
        cells = {grid.name: _rows(committed, grid) for grid in snapshot.grids}
        if change is not None:
            change(cells)
        return lambda: cells

    def test_check_passes_and_json_out_writes_the_measured_snapshots(
        self, tmp_path, capsys
    ):
        snapshots = (ratchet.VIEWS, ratchet.MESSAGES)
        cells = {}
        for snapshot in snapshots:
            cells.update(self._measured(snapshot)())
        code = ratchet.main(
            snapshots, lambda: cells, ["--check", "--json-out", str(tmp_path)]
        )
        assert code == 0
        assert "ok: 60 cells within their bounds" in capsys.readouterr().out
        for snapshot in snapshots:
            written = (tmp_path / snapshot.file).read_bytes()
            assert written == (RESULTS / snapshot.file).read_bytes()

    def test_check_reports_every_failing_cell(self, capsys):
        def slow(cells):
            cells["service"]["cold_s"]["10000"] = 21.0
            cells["service"]["cached_s"]["100000"] = 1.0

        measure = self._measured(ratchet.SERVICE, slow)
        assert ratchet.main((ratchet.SERVICE,), measure, ["--check"]) == 1
        err = capsys.readouterr().err
        assert err.count("FAIL BENCH_service.json service:") == 2

    @pytest.mark.parametrize("argv", [[], ["--check", "--write"], ["--reanchor"]])
    def test_one_parser_with_write_check_and_json_out(self, argv):
        with pytest.raises(SystemExit) as error:
            ratchet.main((ratchet.SERVICE,), lambda: {}, argv)
        assert error.value.code == 2


class TestCommittedSnapshots:
    def test_files_exist_and_cover_the_floor(self):
        for snapshot in ratchet.SNAPSHOTS:
            path = RESULTS / snapshot.file
            assert ratchet.check_snapshot(snapshot, path) == []

    def test_subgrid_matches_committed_exactly(self, bench):
        """Determinism: a live re-measurement reproduces the committed
        cells bit-for-bit (no tolerance needed)."""
        views = _committed(ratchet.VIEWS)
        messages = _committed(ratchet.MESSAGES)
        for name in ("leader", "bfs-tree"):
            for n in (16, 32):
                cell = bench.measure_cell(name, n)
                assert cell["views.built"] == views["schemes"][name][str(n)]
                assert cell["messages.sent"] == messages["schemes"][name][str(n)]


class TestInjectedRegression:
    def _compare_cell(self, views: int) -> list[str]:
        committed = _committed(ratchet.VIEWS)
        measured = _with_cell(committed, ratchet.VIEWS.grids[0], "leader", "16", views)
        return ratchet.compare(ratchet.VIEWS, committed, measured)

    def test_doubled_view_accounting_trips_the_ratchet(self, bench, monkeypatch):
        """Acceptance: a 2x view-build regression (injected through the
        repro.obs.metrics.record_view_builds seam) must fail --check."""
        committed = _committed(ratchet.VIEWS)["schemes"]["leader"]["16"]
        original = obs.record_view_builds
        monkeypatch.setattr(
            obs, "record_view_builds", lambda count=1: original(2 * count)
        )
        cell = bench.measure_cell("leader", 16)
        assert cell["views.built"] == 2 * committed
        (failure,) = self._compare_cell(cell["views.built"])
        assert "regressed" in failure

    def test_honest_measurement_passes(self, bench):
        cell = bench.measure_cell("leader", 16)
        assert self._compare_cell(cell["views.built"]) == []

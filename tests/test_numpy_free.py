"""numpy is a soft dependency: the library must work without it.

The script runs in a subprocess with ``sys.modules["numpy"] = None``, so
every ``import numpy`` inside it fails as on an install without numpy.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.graphs.generators import random_tree
from repro.util.rng import make_rng

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import repro
from repro.cli import main
from repro.core import catalog
from repro.graphs.generators import random_tree
from repro.util.rng import make_rng

graph = random_tree(200, make_rng(3))
scheme = catalog.get("spanning-tree-ptr").build(graph=graph, rng=make_rng(1))
config = scheme.language.member_configuration(graph, rng=make_rng(1))
verdict = scheme.run(config)
listing = io.StringIO()
with contextlib.redirect_stdout(listing):
    code = main(["list-schemes"])
print(json.dumps({
    "edges": graph.edges(),
    "accepts": verdict.all_accept,
    "backend": verdict.backend,
    "list_code": code,
    "listing": listing.getvalue().splitlines(),
}))
"""


def test_library_runs_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.splitlines()[-1])
    expected = random_tree(200, make_rng(3))
    assert [tuple(e) for e in report["edges"]] == list(expected.edges())
    assert report["accepts"] and report["backend"] == "views"
    assert report["list_code"] == 0 and report["listing"]
    assert all("batch=no" in line for line in report["listing"])

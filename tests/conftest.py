"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.graphs.generators import (
    connected_gnp,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.graphs.weighted import weighted_copy
from repro.util.rng import make_rng


@pytest.fixture
def rng():
    """A deterministic RNG, fresh per test."""
    return make_rng(0xC0FFEE)


@pytest.fixture
def small_graphs(rng):
    """A representative zoo of small connected graphs."""
    return {
        "path": path_graph(7),
        "cycle": cycle_graph(8),
        "grid": grid_graph(3, 4),
        "tree": random_tree(10, rng),
        "gnp": connected_gnp(12, 0.3, rng),
    }


@pytest.fixture
def weighted_graph(rng):
    """A small connected graph with distinct random weights."""
    return weighted_copy(connected_gnp(10, 0.35, rng), rng)


@pytest.fixture
def run_into_closed_pipe():
    """Run ``python -m repro *args`` with stdout a pipe whose reader
    closed before the first write (``| head``, ``| grep -q``).

    ``unbuffered`` sets ``PYTHONUNBUFFERED``: then the first write
    fails, otherwise only the flush does.
    """
    src = str(pathlib.Path(repro.__file__).parents[1])

    def run(*args: str, unbuffered: bool) -> subprocess.CompletedProcess:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
            PYTHONUNBUFFERED="1" if unbuffered else "",
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120,
            )
        finally:
            os.close(write_end)

    return run

"""The loop-free Prüfer decode of ``random_tree``'s bulk draws.

``_pruefer_leaves`` schedules each node at its release step or at the
steps the chained nodes leave; ``_pruefer_leaves_loop``, the classic
smallest-leaf decode that call-by-call draws still take, is the oracle.
Both must give the same leaf column on every sequence: exhaustively for
small n, on adversarial shapes, on sizes around the histogram's block
and bucket edges, and under a fuzz.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    _pruefer_leaves,
    _pruefer_leaves_loop,
)


def _assert_decodes_alike(n, sequence):
    expected = np.frombuffer(_pruefer_leaves_loop(n, list(sequence)), dtype=np.int64)
    got = _pruefer_leaves(n, np.array(sequence, dtype=np.int64).reshape(-1))
    assert got.dtype == np.int64
    assert np.array_equal(got, expected), (n, list(sequence))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_every_sequence_of_a_small_tree(n):
    for sequence in itertools.product(range(n), repeat=n - 2):
        _assert_decodes_alike(n, sequence)


@pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 65, 1000, 4099])
@pytest.mark.parametrize(
    "shape",
    [
        lambda n: [0] * (n - 2),  # a star on 0
        lambda n: [n - 1] * (n - 2),  # a star on the never-removed node
        lambda n: list(range(n - 2)),  # ascending: one long chain
        lambda n: list(range(n - 3, -1, -1)),  # descending
        lambda n: list(range(1, n - 1)),  # a path toward n - 1
        lambda n: [v % 2 for v in range(n - 2)],  # two alternating hubs
    ],
    ids=["zeros", "last", "ascending", "descending", "path", "alternating"],
)
def test_adversarial_shapes(n, shape):
    _assert_decodes_alike(n, shape(n))


# The histogram's side is ceil(sqrt(k)) for k released nodes (distinct
# draws below n - 1): sizes on both sides of a square move every block
# and bucket edge.
@pytest.mark.parametrize(
    "k", [1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 99, 100, 101, 1024, 1025]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_released_counts_around_the_grid_edges(k, seed):
    rng = random.Random(seed * 7919 + k)
    n = k + 2 + rng.randrange(k + 1)
    # Exactly k distinct draws below n - 1, plus draws of n - 1.
    values = rng.sample(range(n - 1), k)
    sequence = values + [rng.choice(values + [n - 1]) for _ in range(n - 2 - k)]
    rng.shuffle(sequence)
    _assert_decodes_alike(n, sequence)


@pytest.mark.parametrize("n", [5000, 20_000])
def test_uniform_draws(n):
    rng = random.Random(n)
    for _ in range(3):
        _assert_decodes_alike(n, [rng.randrange(n) for _ in range(n - 2)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzz(data):
    n = data.draw(st.integers(min_value=3, max_value=300), label="n")
    # A narrow value range makes repeated draws, hubs and long chains.
    top = data.draw(st.integers(min_value=1, max_value=n), label="top")
    sequence = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=top - 1),
            min_size=n - 2,
            max_size=n - 2,
        ),
        label="sequence",
    )
    _assert_decodes_alike(n, sequence)

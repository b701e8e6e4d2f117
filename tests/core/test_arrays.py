"""ArrayLabeling columns must hold Labeling states exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import ArrayLabeling, column_from_values
from repro.core.labeling import Labeling
from repro.errors import SchemeError


class TestColumnFromValues:
    def test_bools_get_bool_dtype(self):
        col = column_from_values([True, False, True], 3)
        assert col.dtype == bool

    def test_ints_get_int64_dtype(self):
        col = column_from_values([0, -7, 2**40], 3)
        assert col.dtype == np.int64

    def test_bool_int_mix_stays_object(self):
        # bool is a subclass of int; a faithful column must not coerce.
        col = column_from_values([True, 1, 0], 3)
        assert col.dtype == object
        assert col[0] is True and col[1] == 1

    def test_huge_ints_stay_object(self):
        col = column_from_values([2**80, 1], 2)
        assert col.dtype == object
        assert col[0] == 2**80

    def test_none_and_tuples_stay_object(self):
        values = [None, (1, 2), frozenset({3})]
        col = column_from_values(values, 3)
        assert col.dtype == object
        assert list(col) == values

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemeError):
            column_from_values([1, 2], 3)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "values",
        [
            [True, False, False, True],
            [0, 5, -3, 2**60],
            [None, 1, "x", (2, None)],
            [frozenset(), frozenset({0, 2}), None, 7],
        ],
        ids=["bools", "ints", "mixed", "sets"],
    )
    def test_labeling_invariance(self, values):
        n = len(values)
        arrays = ArrayLabeling(n, {"state": column_from_values(values, n)})
        assert Labeling.from_arrays(arrays) == Labeling(dict(enumerate(values)))
        for got, value in zip(arrays.values("state"), values):
            assert got == value and type(got) is type(value)

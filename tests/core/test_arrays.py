"""ArrayLabeling must be an exact columnar mirror of Labeling."""

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
        labeling = Labeling(dict(enumerate(values)))
        arrays = ArrayLabeling.from_labeling(labeling, n)
        back = arrays.to_labeling()
        assert back == labeling
        for v in range(n):
            got = arrays.value("state", v)
            assert got == values[v] and type(got) is type(values[v])

    def test_missing_node_rejected(self):
        with pytest.raises(SchemeError):
            ArrayLabeling.from_labeling({0: 1, 2: 3}, 3)

    def test_from_fields_round_trip(self):
        outputs = {0: True, 1: False}
        certs = {0: (0, None, 0), 1: (0, 0, 1)}
        arrays = ArrayLabeling.from_fields(2, {"output": outputs, "certificate": certs})
        assert set(arrays.fields) == {"output", "certificate"}
        assert arrays.to_dict("output") == outputs
        assert arrays.to_dict("certificate") == certs
        assert arrays.row(1) == {"output": False, "certificate": (0, 0, 1)}


class TestMutation:
    def test_set_same_dtype_stays_packed(self):
        arrays = ArrayLabeling.from_labeling({0: 1, 1: 2, 2: 3}, 3)
        arrays.set("state", 1, 99)
        assert arrays.column("state").dtype == np.int64
        assert arrays.value("state", 1) == 99

    def test_set_widens_to_object_on_mismatch(self):
        arrays = ArrayLabeling.from_labeling({0: 1, 1: 2, 2: 3}, 3)
        arrays.set("state", 2, None)
        assert arrays.column("state").dtype == object
        assert arrays.to_dict("state") == {0: 1, 1: 2, 2: None}
        # The untouched cells kept their exact Python types.
        assert type(arrays.value("state", 0)) is int

    def test_bool_column_widens_for_int(self):
        arrays = ArrayLabeling.from_labeling({0: True, 1: False}, 2)
        arrays.set("state", 0, 1)
        assert arrays.column("state").dtype == object
        assert arrays.value("state", 0) == 1
        assert arrays.value("state", 1) is False

    def test_update_writes_many(self):
        arrays = ArrayLabeling.from_labeling({0: 1, 1: 2, 2: 3}, 3)
        arrays.update("state", {0: 10, 2: 30})
        assert arrays.to_dict("state") == {0: 10, 1: 2, 2: 30}

    def test_equality_ignores_dtype(self):
        packed = ArrayLabeling.from_labeling({0: 1, 1: 2}, 2)
        loose = ArrayLabeling(2, {"state": column_from_values([1, "x"], 2)})
        loose.set("state", 1, 2)
        assert packed == loose

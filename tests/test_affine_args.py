"""Argument checks of the domain maps: `row_masks` and `affine_transform`.
Their vector values (row masks, matrix entries, shifts) are refused by the
one input boundary, tested in test_vectors.py."""

import numpy as np
import pytest

from bentkit.boolfun import TruthTable
from bentkit.spectral import affine_transform, row_masks

EYE = [1, 2, 4, 8]


@pytest.mark.parametrize("matrix, message", [
    ([1, 2, 4], "need 4 rows, got 3"),
    ([1, 2, 4, 8, 16], "need 4 rows, got 5"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]], "need 4 entries per row, got 3"),
])
def test_row_masks_reject_a_wrongly_shaped_matrix(matrix, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        row_masks(matrix, 4)


SHIFT_ERRORS = {-1: "shift -1 is negative", 16: "shift 16 out of range 0..15"}


@pytest.mark.parametrize("shift", sorted(SHIFT_ERRORS))
def test_affine_transform_rejects_an_out_of_range_shift(shift):
    # a numpy integer shift, refused before the rank check of a singular matrix
    with pytest.raises(ValueError, match=f"^{SHIFT_ERRORS[shift]}$"):
        affine_transform(TruthTable(4, 0x6CA0), [1, 1, 4, 8], np.int64(shift))

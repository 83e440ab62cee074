"""Argument checks of the domain maps: `row_masks` and `affine_transform`."""

import pytest

from bentkit.boolfun import TruthTable
from bentkit.spectral import affine_transform, row_masks

EYE = [1, 2, 4, 8]


@pytest.mark.parametrize("matrix, message", [
    ([1, 2, 4], "need 4 rows, got 3"),
    ([1, 2, 4, 16], "row mask 16 wider than 4 bits"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]], "need 4 entries per row, got 3"),
])
def test_row_masks_reject_a_wrongly_shaped_matrix(matrix, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        row_masks(matrix, 4)


@pytest.mark.parametrize("shift", [-1, 16])
def test_affine_transform_rejects_an_out_of_range_shift(shift):
    with pytest.raises(ValueError, match=f"^shift {shift} out of range$"):
        affine_transform(TruthTable(4, 0x6CA0), EYE, shift)

"""The one input boundary for vectors of F_2^w, `boolfun._vectors`, through
every public entry that takes vectors.

Each entry gets one bad value in a vector position: a float, -1, 2^w (the
first value past the width w) and 10^4299 (the largest int the CLI parses).
Each is refused with a ValueError whose one short message names the value
and its fault, before any elimination or table build runs.  A float was
truncated, a negative named as too wide and a matrix entry read as its low
bit before the boundary, so the float, -1 and matrix-entry cases fail on
the per-site checks it replaced.
"""

import pytest

import bentkit.analysis
import bentkit.boolfun
import bentkit.spectral
import bentkit.spreads
from bentkit import (
    GF2k,
    SpreadLine,
    TruthTable,
    affine_transform,
    dist_formula_general,
    is_orthogonal,
    ps_general,
    selection,
    subspace_indicator,
)
from bentkit.spectral import row_masks

F8 = GF2k(3)
F = TruthTable(4, 0x6CA0)
EYE = [1, 2, 4, 8]
HUGE = 10 ** 4299  # 14281 bits
MAX_MESSAGE = 100


def _eye_rows(bad):
    """The 4 x 4 identity as entry lists, with entry [0][0] replaced."""
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    rows[0][0] = bad
    return rows


def _family(bad):
    """A valid family of three 2-dim subspaces of F_2^4 but for one vector."""
    return [[bad, 2], [4, 8], [5, 10]]


def _lines(bad):
    return [SpreadLine(bad), SpreadLine(2), SpreadLine(3), SpreadLine(4)]


# entry: (the label its message names, the width w, a call with one bad value).
# line_points and line_dual read lines through selection's check; the
# spreads tests call all three with each out-of-range line.
ENTRIES = {
    "from_support": ("support point", 4, lambda v: TruthTable.from_support(4, [v])),
    "subspace_indicator": ("basis vector", 4, lambda v: subspace_indicator(4, [v, 2])),
    "row_masks-int_row": ("row mask", 4, lambda v: row_masks([v, 2, 4, 8], 4)),
    "row_masks-list_row": ("matrix entry", 1, lambda v: row_masks(_eye_rows(v), 4)),
    "is_orthogonal": ("matrix entry", 1, lambda v: is_orthogonal(_eye_rows(v), 4)),
    "affine_transform-int_row": ("row mask", 4, lambda v: affine_transform(F, [v, 2, 4, 8])),
    "affine_transform-list_row": (
        "matrix entry", 1, lambda v: affine_transform(F, _eye_rows(v))
    ),
    "affine_transform-shift": ("shift", 4, lambda v: affine_transform(F, EYE, v)),
    "ps_general": ("subspace 0: vector", 4, lambda v: ps_general(4, _family(v))),
    "dist_formula_general": (
        "subspace 0: vector", 4, lambda v: dist_formula_general(4, _family(v))
    ),
    "selection": ("line element", 3, lambda v: selection(F8, _lines(v))),
    "GF2k.mul": ("field element", 3, lambda v: F8.mul(v, 3)),
    "GF2k.pow": ("field element", 3, lambda v: F8.pow(v, 2)),
    "GF2k.inv": ("field element", 3, lambda v: F8.inv(v)),
    "GF2k.div0": ("field element", 3, lambda v: F8.div0(v, 1)),
    "GF2k.trace": ("field element", 3, lambda v: F8.trace(v)),
    "GF2k.pack": ("field element", 3, lambda v: F8.pack(v, 0)),
    "GF2k.unpack": ("packed pair", 6, lambda v: F8.unpack(v)),
    "GF2k.gram_map": ("packed pair", 6, lambda v: F8.gram_map(v)),
}


def _cases():
    for entry, (what, w, call) in ENTRIES.items():
        top = f"0..{(1 << w) - 1}"
        yield f"{entry}-float", call, 1.5, f"{what} 1.5 is not an integer"
        yield f"{entry}-negative", call, -1, f"{what} -1 is negative"
        yield f"{entry}-2^w", call, 1 << w, f"{what} {1 << w} out of range {top}"
        yield f"{entry}-10^4299", call, HUGE, f"{what} of 14281 bits out of range {top}"
    # an exponent has no width: any integer >= 0 is one
    exponent = lambda v: F8.pow(2, v)  # noqa: E731
    yield "GF2k.pow-exponent-float", exponent, 1.5, "exponent 1.5 is not an integer"
    yield "GF2k.pow-exponent-negative", exponent, -1, "exponent -1 is negative"
    yield "GF2k.pow-exponent--10^4299", exponent, -HUGE, "exponent of 14281 bits is negative"
    # inputs the per-site checks took: a str point was parsed, a matrix
    # entry 3 read as 1, and a float basis vector truncated
    for entry, value, message in [
        ("from_support", "3", "support point '3' is not an integer"),
        ("row_masks-list_row", 3, "matrix entry 3 out of range 0..1"),
        ("is_orthogonal", 3, "matrix entry 3 out of range 0..1"),
        ("affine_transform-list_row", 3, "matrix entry 3 out of range 0..1"),
        ("ps_general", 1.9, "subspace 0: vector 1.9 is not an integer"),
    ]:
        yield f"{entry}-{value!r}", ENTRIES[entry][2], value, message


CASES = list(_cases())


@pytest.fixture
def no_table_work(monkeypatch):
    """Make the one F_2 eliminator and the one table packer raise if called."""
    def tripwire(*args, **kwargs):
        raise AssertionError("an elimination or a table build ran before the range check")

    for module in (bentkit.analysis, bentkit.boolfun, bentkit.spectral, bentkit.spreads):
        for name in ("_row_reduce", "_pack_values"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, tripwire)


@pytest.mark.parametrize(
    "call, value, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_every_vector_entry_refuses_a_bad_value_first(no_table_work, call, value, message):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message
    assert len(message) <= MAX_MESSAGE

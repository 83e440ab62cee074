"""Desarguesian spreads over F_{2^k} x F_{2^k} and partial-spread bent functions.

The spread consists of the 2^k lines E_a = {(x, xa)} together with the
line at infinity {(0, y)}; any two lines meet only at the origin and the
union covers the whole plane.  Points are packed as bits(x) + 2^k*bits(y).

Every partial-spread table comes from one builder, `_selection_tables`: a
stack of selections (rows of spread columns) from one index map of the
lines it uses and one flat scatter; `ps_minus`, `ps_plus` and
`psap_from_g` are its one-row case.  The table type is read off the row
width: 2^(k-1) + 1 columns make plus tables, any other width minus ones.
Their duals are taken under the trace-form pairing (the GF2k context
itself), under which the dual of E_a is E_{a^-1}.  `ps_general` scatters
the same shapes over arbitrary "disjoint" k-dimensional subspaces of F_2^n,
with the standard pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from collections.abc import Iterable, Sequence

import numpy as np

from .boolfun import (
    TruthTable,
    _check_n,
    _independent,
    _linear_index_map,
    _pack_values,
)
from .field import GF2k


@dataclass(frozen=True, eq=True)
class SpreadLine:
    """One line of the spread: E_a for a field element a, or a = None for
    the line at infinity {(0, y)}."""

    a: int | None = None

    @property
    def is_infinity(self) -> bool:
        return self.a is None

    @classmethod
    def infinity(cls) -> "SpreadLine":
        return cls(None)

    def __str__(self) -> str:
        return "inf" if self.a is None else str(self.a)


LINE_INFINITY = SpreadLine(None)


@dataclass(frozen=True)
class SpreadSelection:
    """A duplicate-free choice of spread lines over one field in canonical
    order (finite by value, infinity last), that of its read-only spread
    columns `cols`; the constructor checks range and duplicates once."""

    ctx: GF2k
    lines: tuple[SpreadLine, ...]
    cols: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cols = np.sort(_columns(self.ctx, self.lines))
        if (cols[1:] == cols[:-1]).any():
            raise ValueError("selection contains duplicate lines")
        cols.flags.writeable = False
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "lines", tuple(_lines(self.ctx, cols)))

    @property
    def k(self) -> int:
        return self.ctx.k

    @property
    def n(self) -> int:
        return 2 * self.ctx.k

    def __contains__(self, line: SpreadLine) -> bool:
        return line in self.lines

    def __len__(self) -> int:
        return len(self.lines)


def selection(ctx: GF2k, lines: Iterable[SpreadLine]) -> SpreadSelection:
    """The selection of `lines`, in any order."""
    return SpreadSelection(ctx, tuple(lines))


def desarguesian(ctx: GF2k) -> list[SpreadLine]:
    """All 2^k + 1 lines of the Desarguesian spread."""
    return [SpreadLine(a) for a in ctx.elements()] + [LINE_INFINITY]


def _columns(ctx: GF2k, lines: Iterable[SpreadLine]) -> np.ndarray:
    """Spread columns of the lines: a for E_a, 2^k for the line at infinity.
    Every call that takes lines reads them here: their one range check."""
    cols = []
    for L in lines:
        if not (L.is_infinity or 0 <= L.a < ctx.order):
            raise ValueError(f"line element {L.a} outside GF(2^{ctx.k})")
        cols.append(ctx.order if L.is_infinity else L.a)
    return np.array(cols, dtype=np.int64)


def _lines(ctx: GF2k, cols: np.ndarray) -> list[SpreadLine]:
    """The lines in spread columns `cols` (the inverse of `_columns`)."""
    return [SpreadLine(None if c == ctx.order else c) for c in cols.tolist()]


def _line_index(ctx: GF2k, cols: np.ndarray) -> np.ndarray:
    """Packed points of the lines in spread columns `cols` as a
    (2^k, len(cols)) array: row x holds (x, xa) for E_a and (0, x) for
    infinity, so row 0 is the origin.  x -> xa is F_2-linear, so all lines
    are one batched index map of k images each, the products x^i a from one
    array multiply."""
    basis = 1 << np.arange(ctx.k, dtype=np.int64)[:, None]
    finite = basis | (ctx._mul_array(basis, cols) << ctx.k)
    return _linear_index_map(np.where(cols < ctx.order, finite, basis << ctx.k))


def line_points(ctx: GF2k, line: SpreadLine) -> frozenset[int]:
    """The 2^k packed points of a line (the origin included)."""
    return frozenset(_line_index(ctx, _columns(ctx, [line]))[:, 0].tolist())


def line_dual(ctx: GF2k, line: SpreadLine) -> SpreadLine:
    """Orthogonal complement under the trace pairing: E_a -> E_{a^-1},
    with E_0 and the infinity line swapping.  An involution."""
    return _lines(ctx, ctx.line_dual_index[_columns(ctx, [line])])[0]


def dual_selection(sel: SpreadSelection) -> SpreadSelection:
    """The selection of the dual lines: one gather, no scalar inversion."""
    return SpreadSelection(sel.ctx, tuple(_lines(sel.ctx, sel.ctx.line_dual_index[sel.cols])))


def _scatter(n: int, rows: int, index: np.ndarray, origin) -> np.ndarray:
    """(rows, 2^n) uint8 stack that is 1 at the flat positions `index` (of
    any shape), with column 0, the origin of every row, set to `origin`."""
    tables = np.zeros((rows, 1 << n), dtype=np.uint8)
    tables.reshape(-1)[index] = 1
    tables[:, 0] = origin
    return tables


def _selection_tables(ctx: GF2k, cols: np.ndarray) -> np.ndarray:
    """(B, 2^n) uint8 stack of the tables of the selections in the rows of
    `cols` (spread columns), ps_plus for 2^(k-1) + 1 columns and ps_minus
    otherwise: one index map over the columns the stack uses and one flat
    scatter.  Only a stack of several rows gathers that index per row and
    offsets it by 2^n per row; one row scatters it as it is (64 MB at n = 24)."""
    n = 2 * ctx.k
    _check_n(n)  # before any index: a field above k = 12 fails fast
    used, inverse = np.unique(cols, return_inverse=True)
    index = _line_index(ctx, used)
    if len(cols) > 1:
        index = index.T[inverse.reshape(cols.shape)]
        index += (np.arange(len(cols)) << n)[:, None, None]
    return _scatter(n, len(cols), index, cols.shape[1] == (1 << (ctx.k - 1)) + 1)


def _selection_columns(sel: SpreadSelection, plus: bool) -> np.ndarray:
    """The spread columns of a minus (2^(k-1) lines) or plus (2^(k-1) + 1)
    selection as a one-row stack."""
    want = (1 << (sel.k - 1)) + plus
    if len(sel) != want:
        name = "ps_plus" if plus else "ps_minus"
        raise ValueError(f"{name} needs {want} lines, got {len(sel)}")
    return sel.cols[None]


def _selection_table(sel: SpreadSelection, plus: bool) -> np.ndarray:
    """The one-row `_selection_tables` stack of a minus or plus selection."""
    return _selection_tables(sel.ctx, _selection_columns(sel, plus))


def ps_minus(sel: SpreadSelection) -> TruthTable:
    """Partial-spread function of the minus type: support is the union of
    2^(k-1) lines with the origin removed."""
    return TruthTable._from_packed(sel.n, _pack_values(_selection_table(sel, False)))


def ps_plus(sel: SpreadSelection) -> TruthTable:
    """Plus type: support is the union of 2^(k-1) + 1 lines, origin kept."""
    return TruthTable._from_packed(sel.n, _pack_values(_selection_table(sel, True)))


# ----------------------------------------------------------------------
# the quotient form f(x, y) = g(x / y)
# ----------------------------------------------------------------------

def psap_from_g(ctx: GF2k, g: TruthTable) -> TruthTable:
    """f(x, y) = g(x/y) with the convention x/0 = 0, for balanced g, g(0) = 0.

    This is ps_minus of the matching line selection (see selection_from_g).
    """
    return ps_minus(selection_from_g(ctx, g))


def selection_from_g(ctx: GF2k, g: TruthTable) -> SpreadSelection:
    """The lines supporting g(x/y): points with x/y = u form E_{1/u} for u != 0."""
    if g.n != ctx.k:
        raise ValueError(f"g must be on k={ctx.k} variables, got {g.n}")
    if g[0] != 0:
        raise ValueError("quotient form needs g(0) = 0")
    if not g.is_balanced():
        raise ValueError("quotient form needs a balanced g")
    supp = np.flatnonzero(g.values())
    return selection(ctx, _lines(ctx, ctx.line_dual_index[supp]))


def _unmatched_counts(ctx: GF2k, cols: np.ndarray) -> np.ndarray:
    """h for every row of selected spread columns `cols`: one gather on the
    (B, 2^k + 1) membership mask through the line-dual column map."""
    mask = np.zeros((len(cols), ctx.order + 1), dtype=bool)
    np.put_along_axis(mask, cols, True, axis=1)
    return np.count_nonzero(mask & ~mask[:, ctx.line_dual_index], axis=1)


def _unmatched_lines(sel: SpreadSelection) -> int:
    """h: how many selected lines have an unselected trace dual.

    The dual pairs are {E_0, inf} and {E_a, E_{1/a}}; E_1 is its own dual.
    Every line-counting claim about ps_minus(sel) reads this one number.
    """
    return int(_unmatched_counts(sel.ctx, _selection_columns(sel, False))[0])


def is_selfdual_selection(sel: SpreadSelection) -> bool:
    """Self-duality of ps_minus(sel): h = 0, every selected line's dual is
    selected too.  For k >= 2 this excludes E_1, since 2^(k-1) lines cannot
    be one self-dual line plus whole pairs."""
    return _unmatched_lines(sel) == 0


# ----------------------------------------------------------------------
# general (possibly non-spread) disjoint subspace families
# ----------------------------------------------------------------------

def validate_subspace_family(
    n: int, subspace_bases: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Check that each basis spans a k = n/2 dimensional subspace and that
    the spans pairwise meet only at the origin; returns the point lists."""
    return _family_points(n, subspace_bases).tolist()


def _family_points(n: int, subspace_bases: Sequence[Sequence[int]]) -> np.ndarray:
    """The validated family's spans as an (m, 2^k) array, row i holding the
    points of subspace i in `subspace_span` order (the origin first).

    Once every basis has k vectors in range, one count checks the rest: the
    span points at nonzero indices, marked in one 2^n table, are all
    distinct and all nonzero iff no basis is dependent (a dependent basis
    has a nontrivial combination equal to the origin) and no two spans
    share a nonzero point.  Only a family that fails is searched for its
    first error, in the order dependent, dimension, range, then the first
    sharing pair.
    """
    _check_n(n)
    if n % 2:
        raise ValueError(f"need even n, got {n}")
    k = n // 2
    if all(len(b) == k and all(0 <= v < 1 << n for v in b) for b in subspace_bases):
        bases = np.array(subspace_bases, dtype=np.int64).reshape(-1, k)
        spans = _linear_index_map(bases.T).T
        seen = np.zeros(1 << n, dtype=bool)
        seen[spans[:, 1:]] = True
        if not seen[0] and np.count_nonzero(seen) == spans[:, 1:].size:
            return spans
    for i, basis in enumerate(subspace_bases):
        if not _independent(basis):
            raise ValueError(f"subspace {i}: basis is linearly dependent")
        if len(basis) != k:
            raise ValueError(
                f"subspace {i}: dimension {len(basis)} != k = {k}"
            )
        for v in basis:
            if not 0 <= v < (1 << n):
                raise ValueError(f"subspace {i}: vector {v} out of range")
    # every basis passed the shape check, so the spans were built
    raise ValueError(_first_shared_point(spans[:, 1:]))


def _first_shared_point(points: np.ndarray) -> str:
    """Name the first pair i < j, in pairwise order, whose rows of nonzero
    span points meet, and their smallest shared point.  The first row with
    any shared point is i (a partner below it would come first), and j is
    its first partner."""
    values, counts = np.unique(points, return_counts=True)
    shared = np.isin(points, values[counts > 1]).any(axis=1)
    i = int(np.flatnonzero(shared)[0])
    for j in range(i + 1, len(points)):
        common = np.intersect1d(points[i], points[j])
        if common.size:
            return f"subspaces {i} and {j} share nonzero point {common[0]}"
    raise AssertionError("a shared point has no partner row")


def ps_general(n: int, subspace_bases: Sequence[Sequence[int]]) -> TruthTable:
    """Partial-spread function over arbitrary disjoint k-dim subspaces of
    F_2^n (standard pairing); minus or plus type by the family size."""
    spans = _family_points(n, subspace_bases)
    k = n // 2
    count = len(spans)
    if count not in (1 << (k - 1), (1 << (k - 1)) + 1):
        raise ValueError(
            f"family size {count} is neither 2^(k-1) = {1 << (k - 1)} nor "
            f"2^(k-1)+1 = {(1 << (k - 1)) + 1}"
        )
    return TruthTable._from_packed(n, _pack_values(_scatter(n, 1, spans, count != 1 << (k - 1))))

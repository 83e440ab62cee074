"""Theorem-level computations: metric identities, closed-form distances,
Rayleigh-quotient distributions, character sums, and exhaustive censuses.

Everything here is exact integer arithmetic.  Census enumeration order is
the lexicographic combination order, so reports are deterministic and a
re-run reproduces byte-identical output.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import NamedTuple

import numpy as np

from .boolfun import (
    TruthTable,
    _pack_values,
    _weights_array,
    reduce_basis,
    subspace_span,
    symmetric_bent,
    symmetric_value_pattern,
)
from .field import GF2k
from .golden import REFERENCE_DISTRIBUTION
from .spectral import (
    Pairing,
    _stack_distances,
    _stack_identities,
    dist_to_dual,
    rayleigh,
)
from .spreads import (
    SpreadLine,
    SpreadSelection,
    _indicator_values,
    _lines,
    _selection_index,
    _selection_tables,
    _unmatched_counts,
    _unmatched_lines,
    ps_general,
    psap_from_g,
)


# ----------------------------------------------------------------------
# metric identities
# ----------------------------------------------------------------------

class MetricIdentity(NamedTuple):
    """Distance to the dual computed three ways, plus the zero-sum residual."""

    direct: int
    form1: int
    form2: int
    corollary_residual: int

    @property
    def consistent(self) -> bool:
        return (
            self.direct == self.form1 == self.form2
            and self.corollary_residual == 0
        )


def metric_identity_check(f: TruthTable, pairing: Pairing = None) -> MetricIdentity:
    """Evaluate both closed forms of dist(f, f~) and the zero-sum corollary,
    all from the one bent spectrum of f: row 0 of a one-row
    `spectral._stack_identities`, the code path every stack of the verify
    battery takes.

    form1 rewrites the distance through the spectrum over the support of f.
    form2 is the derivative form, which collapses (the pairing map is
    symmetric) to the Rayleigh form 2^(n-1) - S / 2^(k+1); the O(4^n)
    derivative loop is kept only as a test oracle.  The residual is
    sum_u W(u) - (-1)^f(0) 2^n, zero by the inverse transform at x = 0.
    """
    return MetricIdentity(*_stack_identities(f.values()[None], pairing)[0].tolist())


# ----------------------------------------------------------------------
# closed-form distances for partial-spread functions
# ----------------------------------------------------------------------

def _dist_from_hits(n: int, hits, plus):
    """The counting form from the support hits on the dual subspaces, their
    origins left out; the plus type (a set origin) adds 2^(k+1) - 2.  Works
    on ints and on arrays of rows alike."""
    k = n // 2
    return (1 << n) - (1 << k) - 2 * hits + plus * ((1 << (k + 1)) - 2)


def _spread_dist_formula(tables: np.ndarray) -> np.ndarray:
    """The counting form of every Desarguesian partial-spread table in a
    (B, 2^n) stack.  E_a^perp = E_{1/a} is E_a with x and y swapped (E_0 and
    inf swap too), so the support hits on the dual lines are the points
    where a table and its x <-> y transpose are both 1, the origin left out."""
    n = tables.shape[1].bit_length() - 1
    grid = tables.reshape(len(tables), 1 << (n // 2), -1)
    origin = tables[:, 0].astype(np.int64)
    hits = np.count_nonzero(grid & grid.transpose(0, 2, 1), axis=(1, 2)) - origin
    return _dist_from_hits(n, hits, origin)


def _dist_formula_selection(sel: SpreadSelection, plus: bool) -> int:
    """The counting form on the scattered table of one selection."""
    vals = _indicator_values(sel.n, _selection_index(sel, plus), plus)
    return int(_spread_dist_formula(vals[None])[0])


def dist_formula_ps_minus(sel: SpreadSelection) -> int:
    """Distance to the dual of ps_minus(sel) by counting support hits on the
    dual lines; never runs a transform."""
    return _dist_formula_selection(sel, False)


def dist_formula_ps_plus(sel: SpreadSelection) -> int:
    """Same counting form for ps_plus(sel), with the origin excluded from
    each dual line."""
    return _dist_formula_selection(sel, True)


def dual_subspace_points(n: int, points: Sequence[int]) -> list[int]:
    """Annihilator of a point set under the standard dot product, origin first.

    In the fully reduced echelon basis each pivot bit is set in one vector
    only, so e_j plus the pivots of the vectors with bit j set, for every
    non-pivot bit j, is orthogonal to all of them; these span the annihilator.
    """
    basis = reduce_basis(points)
    pivots = [b.bit_length() - 1 for b in basis]
    free = [
        (1 << j) | sum(1 << p for p, b in zip(pivots, basis) if (b >> j) & 1)
        for j in range(n)
        if j not in pivots
    ]
    return subspace_span(free)


def dist_formula_general(n: int, subspace_bases: Sequence[Sequence[int]]) -> int:
    """The counting form over explicit disjoint subspaces (standard pairing);
    minus or plus type by the family size.  The annihilator of a span is the
    annihilator of its basis."""
    vals = ps_general(n, subspace_bases).values()
    # origin first in every annihilator: row 0 is left out
    duals = np.array([dual_subspace_points(n, basis)[1:] for basis in subspace_bases])
    return _dist_from_hits(n, int(vals[duals].sum(dtype=np.int64)), int(vals[0]))


# ----------------------------------------------------------------------
# Rayleigh quotients of spread selections without transforms
# ----------------------------------------------------------------------

def intersection_index(sel: SpreadSelection) -> tuple[bool, int]:
    """(E_1 selected?, number of selected lines whose dual is also selected).

    The count is 2^(k-1) - h, with h the unmatched lines of the selection.
    E_1 is its own dual, so a selection containing it always has index >= 1.
    """
    return SpreadLine(1) in sel, len(sel) - _unmatched_lines(sel)


def _nf_value(k: int, h: int) -> int:
    """N = 2^n - 4h(2^k - 1) for a minus-type selection with h unmatched lines."""
    return (1 << (2 * k)) - 4 * h * ((1 << k) - 1)


def nf_formula(sel: SpreadSelection) -> int:
    """Normalized Rayleigh quotient of ps_minus(sel) from the line bookkeeping
    alone: 2^n - 4h(2^k - 1), where h counts the selected lines whose dual
    is not selected.  The distance to the dual is then h(2^(k+1) - 2)."""
    return _nf_value(sel.k, _unmatched_lines(sel))


# ----------------------------------------------------------------------
# censuses
# ----------------------------------------------------------------------

EXHAUSTIVE_K_MAX = 4
SAMPLE_K_MAX = 7
_CENSUS_K_MAX = {"exhaustive": EXHAUSTIVE_K_MAX, "sample": SAMPLE_K_MAX}


def _census_size_check(mode: str, k: int) -> None:
    """Raise ValueError for an unknown census mode or a k above its cap.

    Callers may run it before building GF2k(k), so a capped k is reported
    as capped even where no default polynomial exists.
    """
    if mode not in _CENSUS_K_MAX:
        raise ValueError(f"unknown census mode {mode!r}")
    cap = _CENSUS_K_MAX[mode]
    if k > cap:
        raise ValueError(f"{mode} census is capped at k <= {cap}, got {k}")


@dataclass
class CensusReport:
    """Aggregate of one census run over minus-type spread selections."""

    k: int
    mode: str
    seed: int | None
    total_selections: int
    class_sizes: dict[int, int]
    selfdual_count: int
    min_nonzero_dist: int | None
    formula_mismatches: int
    spectral_checked: int

    @property
    def n(self) -> int:
        return 2 * self.k

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "mode": self.mode,
            "seed": self.seed,
            "total_selections": self.total_selections,
            "class_sizes": {str(d): c for d, c in sorted(self.class_sizes.items())},
            "selfdual_count": self.selfdual_count,
            "min_nonzero_dist": self.min_nonzero_dist,
            "formula_mismatches": self.formula_mismatches,
            "spectral_checked": self.spectral_checked,
        }


def _combinations(items: Sequence[int], r: int) -> np.ndarray:
    """Every r-subset of `items` as one row, in lexicographic order."""
    return np.array(list(itertools.combinations(items, r)), dtype=np.int64).reshape(-1, r)


def census(
    ctx: GF2k,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> CensusReport:
    """Enumerate minus-type selections and aggregate distance classes.

    Every selection gets the line formula's distance, with h for all rows
    from one gather.  Exhaustive mode (k <= 4) also computes every
    distance spectrally, in one batched transform over the stack of tables,
    and counts disagreements.  Sample mode (k <= 7) draws `samples`
    selections from a seeded PRNG and checks the first five draws and every
    25th spectrally.  A disagreeing row is classed by its spectral distance.
    """
    _census_size_check(mode, ctx.k)
    size = 1 << (ctx.k - 1)
    if mode == "exhaustive":
        seed = None
        cols = _combinations(range(ctx.order + 1), size)
        spot = np.arange(len(cols))
    else:
        if not samples or samples <= 0:
            raise ValueError("sample mode needs a positive sample count")
        seed = 0 if seed is None else seed
        rng = random.Random(seed)
        # sample() draws positions, so the spread columns (desarguesian(ctx)
        # order) give the same selections as the lines themselves
        cols = np.array(
            [rng.sample(range(ctx.order + 1), size) for _ in range(samples)],
            dtype=np.int64,
        )
        idx = np.arange(samples)
        spot = idx[(idx < 5) | (idx % 25 == 0)]

    dists = (1 << (2 * ctx.k - 1)) - _nf_value(ctx.k, _unmatched_counts(ctx, cols)) // 2
    spectral = _stack_distances(_selection_tables(ctx, cols[spot], False), ctx)
    mismatches = int(np.count_nonzero(spectral != dists[spot]))
    dists[spot] = spectral
    values, counts = np.unique(dists, return_counts=True)
    class_sizes = dict(zip(values.tolist(), counts.tolist()))
    return CensusReport(
        k=ctx.k,
        mode=mode,
        seed=seed,
        total_selections=len(cols),
        class_sizes=class_sizes,
        selfdual_count=class_sizes.get(0, 0),
        min_nonzero_dist=min((d for d in class_sizes if d), default=None),
        formula_mismatches=mismatches,
        spectral_checked=len(spot),
    )


# ----------------------------------------------------------------------
# the distribution table
# ----------------------------------------------------------------------

@dataclass
class DistributionRow:
    """All realizable Rayleigh quotients / distances for one n, ascending."""

    n: int
    nf_values: list[int]
    dist_values: list[int]
    validation: str = "formula"

    def pairs(self) -> list[tuple[int, int]]:
        """(N, dist) pairs sorted by distance ascending; N descends in step."""
        return list(zip(sorted(self.nf_values, reverse=True), sorted(self.dist_values)))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.n // 2,
            "nf_values": self.nf_values,
            "dist_values": self.dist_values,
            "validation": self.validation,
        }


def distribution_table(n: int) -> DistributionRow:
    """Every realizable (N, dist) value for minus-type Desarguesian spread
    functions on n variables: one class per unmatched-line count
    h = 0..2^(k-1).

    For n <= 6 the row is cross-validated against the exhaustive census.
    """
    if n % 2 or not 4 <= n <= 24:
        raise ValueError(f"need even n in 4..24, got {n}")
    k = n // 2
    # N rises as h falls; dist = 2^(n-1) - N/2 rises with h
    nf_values = [_nf_value(k, h) for h in range(1 << (k - 1), -1, -1)]
    dist_values = [(1 << (n - 1)) - nf // 2 for nf in reversed(nf_values)]
    row = DistributionRow(n, nf_values, dist_values)
    if n <= 6:
        realized = census(GF2k(k), mode="exhaustive")
        if set(realized.class_sizes) != set(dist_values):
            raise AssertionError(
                f"census distances {sorted(realized.class_sizes)} disagree with "
                f"the formula row {dist_values}"
            )
        row.validation = "exhaustive-census"
    return row


def anti_selfdual_check(report: CensusReport | DistributionRow) -> bool:
    """True iff nothing in the report attains the anti-self-dual extreme."""
    if isinstance(report, CensusReport):
        return (1 << report.n) not in report.class_sizes
    full = 1 << report.n
    return -full not in report.nf_values and full not in report.dist_values


# ----------------------------------------------------------------------
# self-dual counting
# ----------------------------------------------------------------------

def balanced_g_functions(k: int):
    """All balanced g on k variables with g(0) = 0 (support inside the
    nonzero elements)."""
    nonzero = range(1, 1 << k)
    for supp in itertools.combinations(nonzero, 1 << (k - 1)):
        yield TruthTable.from_support(k, supp)


def selfdual_counts(k: int) -> tuple[int, int]:
    """(spread-form count, quotient-form count) of self-dual functions.

    Both count the h = 0 selections, whose lines are all matched.  For
    k >= 2 those leave out E_1 and choose 2^(k-2) of the 2^(k-1) dual pairs;
    the quotient form lacks the pair {E_0, inf}, so it chooses among
    2^(k-1) - 1.  For k <= EXHAUSTIVE_K_MAX (4) both values are verified by
    exhaustive enumeration with the spectral oracle on every row: the
    spread form is the exhaustive census's self-dual count, and the
    quotient form transforms the selection of every balanced g.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k > EXHAUSTIVE_K_MAX:
        return _selfdual_counts(k, None, None)
    ctx = GF2k(k)
    return _selfdual_counts(k, census(ctx), _quotient_distances(ctx)[1])


def _quotient_distances(ctx: GF2k) -> tuple[np.ndarray, np.ndarray]:
    """(supports, dists) over every balanced g with g(0) = 0 on k variables,
    in balanced_g_functions order: the support of each g, and the spectral
    distance to the dual of its quotient form g(x/y) (psap_from_g), all one
    stack.  The quotient form of g selects the columns 1/u for u in supp g."""
    supports = _combinations(ctx.nonzero(), 1 << (ctx.k - 1))
    tables = _selection_tables(ctx, ctx.line_dual_index[supports], False)
    return supports, _stack_distances(tables, ctx)


def _selfdual_counts(
    k: int, report: CensusReport | None, g_dists: np.ndarray | None
) -> tuple[int, int]:
    """The binomials of selfdual_counts, checked by enumeration when
    `report`, the exhaustive census of GF2k(k), and `g_dists`, the
    quotient-form distances of `_quotient_distances`, are given."""
    spread_form = comb(1 << (k - 1), 1 << (k - 2))
    g_form = comb((1 << (k - 1)) - 1, 1 << (k - 2))
    if report is not None:
        found_spread = report.selfdual_count
        found_g = int(np.count_nonzero(g_dists == 0))
        if (found_spread, found_g) != (spread_form, g_form):
            raise AssertionError(
                f"enumeration found ({found_spread}, {found_g}), "
                f"binomials give ({spread_form}, {g_form})"
            )
    return spread_form, g_form


# ----------------------------------------------------------------------
# character sums
# ----------------------------------------------------------------------

@dataclass
class CharSumReport:
    """The character sum K = sum_u (-1)^(g(u) + g(1/u)) next to the actual
    normalized Rayleigh quotient of the quotient-form function it predicts.

    The sum is reported both over nonzero u and with the u = 0 term included
    (the convention 1/0 = 0 makes that term +1).  Two closed forms for the
    quotient are evaluated: `stated_formula_value` is the literature form
    2^k + 2^(k-1) K, which fails the desk check already at k = 2, so it is
    recorded with a match flag instead of being asserted (both K variants
    are tried); `derived_formula_value` is the relation this library
    establishes exhaustively at desk scale and does assert:
    N = 2^n - (2^k - 1)^2 + (2^k - 1) K_nonzero.
    """

    k: int
    g_hex: str
    K_nonzero: int
    K_withzero: int
    N_f_actual: int
    stated_formula_value: int
    stated_formula_value_withzero: int
    derived_formula_value: int

    @property
    def derived_matches(self) -> bool:
        return self.derived_formula_value == self.N_f_actual

    @property
    def stated_formula_matches(self) -> bool:
        return self.N_f_actual in (
            self.stated_formula_value,
            self.stated_formula_value_withzero,
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "g": self.g_hex,
            "K_nonzero": self.K_nonzero,
            "K_withzero": self.K_withzero,
            "N_actual": self.N_f_actual,
            "stated_formula": self.stated_formula_value,
            "stated_formula_withzero": self.stated_formula_value_withzero,
            "stated_formula_matches": self.stated_formula_matches,
            "derived_formula": self.derived_formula_value,
            "derived_formula_matches": self.derived_matches,
        }


def kloosterman_sum(ctx: GF2k, g: TruthTable) -> tuple[int, int]:
    """(K over nonzero u, K with the u = 0 term) for any g on k variables.

    With g the absolute trace this is the classical binary Kloosterman sum.
    """
    if g.n != ctx.k:
        raise ValueError(f"g must be on k={ctx.k} variables, got {g.n}")
    k_nonzero = int(_kloosterman_nonzero(ctx, g.values()))
    return k_nonzero, k_nonzero + 1  # u = 0 contributes (-1)^(g(0)+g(0)) = +1


def _kloosterman_nonzero(ctx: GF2k, v: np.ndarray) -> np.ndarray:
    """K over nonzero u of every 0/1 table on the last axis of `v`: one
    gather through the inverse table."""
    inverse = ctx.line_dual_index[1:ctx.order]
    flips = np.count_nonzero(v[..., 1:] != v[..., inverse], axis=-1)
    return ctx.order - 1 - 2 * flips


def _charsum_report(g: TruthTable, k_nz: int, n_actual: int) -> CharSumReport:
    """The report of g from K over nonzero u and the actual N of g(x/y)."""
    k = g.n
    k_wz = k_nz + 1
    return CharSumReport(
        k=k,
        g_hex=g.to_hex(),
        K_nonzero=k_nz,
        K_withzero=k_wz,
        N_f_actual=n_actual,
        stated_formula_value=(1 << k) + (1 << (k - 1)) * k_nz,
        stated_formula_value_withzero=(1 << k) + (1 << (k - 1)) * k_wz,
        derived_formula_value=(1 << (2 * k))
        - ((1 << k) - 1) ** 2
        + ((1 << k) - 1) * k_nz,
    )


def rayleigh_vs_charsum(ctx: GF2k, g: TruthTable) -> CharSumReport:
    """Compare the actual Rayleigh quotient of the quotient-form function
    against both the stated character-sum formula and the derived one."""
    f = psap_from_g(ctx, g)  # validates g
    _, n_actual = rayleigh(f, pairing=ctx)
    return _charsum_report(g, kloosterman_sum(ctx, g)[0], n_actual)


# ----------------------------------------------------------------------
# symmetric bent functions
# ----------------------------------------------------------------------

@dataclass
class SymmetricRecord:
    """One symmetric bent function checked against its closed-form dual and
    the Rayleigh case table."""

    n: int
    eps1: int
    eps2: int
    dual_formula_ok: bool
    nf_actual: int
    nf_predicted: int
    nf_prediction_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "dual_formula_ok": self.dual_formula_ok,
            "N_actual": self.nf_actual,
            "N_predicted": self.nf_predicted,
            "N_prediction_ok": self.nf_prediction_ok,
        }


def _symmetric_dual_formula(n: int, c: Sequence[int]) -> np.ndarray:
    """The 0/1 table of the closed-form dual of a symmetric bent function
    with weight-value list c: both n/2-parity branches, including the
    full-weight special case."""
    w = _weights_array(n).astype(np.int64)
    carr = np.asarray(c, dtype=np.int64)
    if (n // 2) % 2 == 0:
        vals = (w + carr[w] + n // 4) & 1
    else:
        shifted = carr[np.minimum(w + 1, n)]
        vals = (w + shifted + n // 4) & 1
        vals[-1] = (n + 1 + c[1] + n // 4) & 1  # the single weight-n point
    return vals


def _symmetric_nf_prediction(n: int, c: Sequence[int]) -> int:
    if (n // 2) % 2 == 0:
        return 0
    floor_odd = (n // 4) & 1
    if (not floor_odd and c[0] == c[1]) or (floor_odd and c[0] != c[1]):
        return 1 << n
    return -(1 << n)


def symmetric_report(n: int) -> list[SymmetricRecord]:
    """Check all four symmetric bent functions on n variables against the
    closed-form dual and the Rayleigh case table, as stated.  The four are
    one stack: one transform, with every check of the single path per row;
    N = 2^n - 2 dist, and the true dual is the sign bits of the spectrum."""
    if n % 2 or not 4 <= n <= 12:
        raise ValueError(f"need even n in 4..12, got {n}")
    eps = list(itertools.product((0, 1), repeat=2))
    tables = np.array([symmetric_bent(n, e1, e2).values() for e1, e2 in eps])
    true_duals = np.empty(tables.shape, dtype=bool)
    dists = _stack_distances(tables, None, true_duals)
    records = []
    for (eps1, eps2), d, true_dual in zip(eps, dists.tolist(), true_duals):
        c = symmetric_value_pattern(n, eps1, eps2)
        formula_dual = _symmetric_dual_formula(n, c)
        n_actual = (1 << n) - 2 * d
        n_pred = _symmetric_nf_prediction(n, c)
        records.append(
            SymmetricRecord(
                n=n,
                eps1=eps1,
                eps2=eps2,
                dual_formula_ok=np.array_equal(formula_dual, true_dual),
                nf_actual=n_actual,
                nf_predicted=n_pred,
                nf_prediction_ok=n_actual == n_pred,
            )
        )
    return records


# ----------------------------------------------------------------------
# the full verification battery (used by the CLI `verify` subcommand)
# ----------------------------------------------------------------------

@dataclass
class SuiteCheck:
    name: str
    ok: bool
    detail: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _worked_example_matrices() -> tuple[list[int], list[int], int]:
    """The explicit order-4 matrices used by the transform examples: an
    orthogonal one, a non-orthogonal one, and the shift (0,1,1,1)."""
    orth = [0b0111, 0b1011, 0b1101, 0b1110]
    nonorth = [0b0001, 0b0011, 0b0111, 0b1111]
    return orth, nonorth, 0b1110


def _check_transform_examples() -> SuiteCheck:
    from .spectral import affine_transform, is_orthogonal

    # the self-dual quadratic x1x3 + x2x4
    f = TruthTable.from_function(
        4, lambda x: (x & (x >> 2) & 1) ^ ((x >> 1) & (x >> 3) & 1)
    )
    orth, nonorth, shift = _worked_example_matrices()
    got = {
        "self_dual_base": dist_to_dual(f) == 0,
        "orthogonal": is_orthogonal(orth, 4) and not is_orthogonal(nonorth, 4),
        "dist_after_orthogonal": dist_to_dual(affine_transform(f, orth)),
        "dist_after_nonorthogonal": dist_to_dual(affine_transform(f, nonorth)),
        "dist_after_shift": dist_to_dual(affine_transform(f, orth, shift)),
    }
    ok = (
        got["self_dual_base"]
        and got["orthogonal"]
        and got["dist_after_orthogonal"] == 0
        and got["dist_after_nonorthogonal"] == 8
        and got["dist_after_shift"] == 8
    )
    return SuiteCheck("affine-transform-examples", ok, got)


def _check_census(report: CensusReport) -> SuiteCheck:
    from .golden import REFERENCE_CENSUS

    total, selfdual, classes = REFERENCE_CENSUS[report.k]
    ok = (
        report.total_selections == total
        and report.selfdual_count == selfdual
        and report.class_sizes == classes
        and report.formula_mismatches == 0
    )
    return SuiteCheck(f"census-k{report.k}", ok, report.to_json_dict())


def _check_metric_identities() -> SuiteCheck:
    """Both metric identities on every row of three kinds of stack: the 126
    k = 3 spread functions (trace pairing), the four symmetric bents at each
    n = 4..12, and 25 seeded MM bents at each of n = 6, 8."""
    from .boolfun import mm_bent

    ctx3 = GF2k(3)
    cols = _combinations(range(ctx3.order + 1), 4)
    # (tables, pairing, the failure record of row i)
    stacks = [(
        _selection_tables(ctx3, cols, False),
        ctx3,
        lambda i: {"family": "spread-k3", "lines": list(map(str, _lines(ctx3, cols[i])))},
    )]
    eps = list(itertools.product((0, 1), repeat=2))
    for n in range(4, 13, 2):
        tables = np.array([symmetric_bent(n, e1, e2).values() for e1, e2 in eps])
        stacks.append(
            (tables, None, lambda i, n=n: {"family": "symmetric", "n": n, "eps": list(eps[i])})
        )
    rng = random.Random(2024)
    for n in (6, 8):
        k = n // 2
        tables = []
        for _ in range(25):
            pi = list(range(1 << k))
            rng.shuffle(pi)
            g = TruthTable(k, rng.getrandbits(1 << k))
            tables.append(mm_bent(pi, g).values())
        stacks.append((np.array(tables), None, lambda i, n=n: {"family": "mm", "n": n}))
    failures = [
        where(i)
        for tables, pairing, where in stacks
        for i, row in enumerate(_stack_identities(tables, pairing).tolist())
        if not MetricIdentity(*row).consistent
    ]
    return SuiteCheck(
        "metric-identities", not failures, {"failures": failures[:5]}
    )


def _check_distance_formulas() -> SuiteCheck:
    """The counting form against the spectral distance, row by row over
    stacks: every minus and plus selection at k = 2, 3, and 200 seeded
    minus draws at k = 4."""
    rng = random.Random(404)
    cases = [
        (k, plus, _combinations(range((1 << k) + 1), (1 << (k - 1)) + plus))
        for k in (2, 3)
        for plus in (False, True)
    ]
    cases.append((4, False, np.array([rng.sample(range(17), 8) for _ in range(200)])))
    failures = []
    for k, plus, cols in cases:
        ctx = GF2k(k)
        tables = _selection_tables(ctx, cols, plus)
        a = _spread_dist_formula(tables)
        bad = (a != _stack_distances(tables, ctx)) | (a > (1 << (2 * k)) - (1 << k))
        for i in np.flatnonzero(bad).tolist():
            lines = [str(L) for L in _lines(ctx, cols[i])]
            where = {"index": i} if k == 4 else {"lines": lines}
            failures.append({"form": "plus" if plus else "minus", "k": k, **where})
    return SuiteCheck("ps-distance-formulas", not failures, {"failures": failures[:5]})


def _check_symmetric() -> SuiteCheck:
    bad = []
    for n in range(4, 13, 2):
        for rec in symmetric_report(n):
            if not (rec.dual_formula_ok and rec.nf_prediction_ok):
                bad.append(rec.to_json_dict())
    return SuiteCheck("symmetric-propositions", not bad, {"failures": bad})


def _check_charsum(
    quotients: Sequence[tuple[GF2k, np.ndarray, np.ndarray]],
) -> SuiteCheck:
    """The derived relation on every balanced g at k = 2, 3, read off the
    quotient-form stacks `_quotient_distances` already transformed for the
    self-dual count: N = 2^n - 2 dist per row, K for every g from one
    gather."""
    bad = []
    for ctx, supports, dists in quotients:
        g_vals = np.zeros((len(supports), ctx.order), dtype=np.uint8)
        np.put_along_axis(g_vals, supports, 1, axis=1)
        k_nz = _kloosterman_nonzero(ctx, g_vals).tolist()
        for v, kn, d in zip(g_vals, k_nz, dists.tolist()):
            g = TruthTable(ctx.k, _pack_values(v))
            rep = _charsum_report(g, kn, (1 << (2 * ctx.k)) - 2 * d)
            if not rep.derived_matches:
                bad.append(rep.to_json_dict())
    return SuiteCheck("charsum-derived-relation", not bad, {"failures": bad})


def _check_distribution_golden(rows: dict[int, DistributionRow]) -> SuiteCheck:
    bad = []
    for n, (nf_ref, dist_ref) in REFERENCE_DISTRIBUTION.items():
        row = rows[n]
        if tuple(row.nf_values) != nf_ref or tuple(row.dist_values) != dist_ref:
            bad.append({"n": n})
    return SuiteCheck("distribution-reference-rows", not bad, {"failures": bad})


def _check_no_antiselfdual(
    reports: Sequence[CensusReport], rows: dict[int, DistributionRow]
) -> SuiteCheck:
    bad = []
    for n, row in rows.items():
        if not anti_selfdual_check(row):
            bad.append({"n": n})
        nz = [d for d in row.dist_values if d]
        if nz and min(nz) < 1 << (n // 2):
            bad.append({"n": n, "min_nonzero": min(nz)})
    for report in reports:
        if not anti_selfdual_check(report):
            bad.append({"census_k": report.k})
    return SuiteCheck("no-anti-self-dual", not bad, {"failures": bad})


def _check_selfdual_counts(
    reports: list[CensusReport],
    quotients: Sequence[tuple[GF2k, np.ndarray, np.ndarray]],
) -> SuiteCheck:
    try:
        k2, k3 = (_selfdual_counts(r.k, r, q[2]) for r, q in zip(reports, quotients))
        ok = k2 == (2, 1) and k3 == (6, 3)
        detail = {"k2": list(k2), "k3": list(k3)}
    except AssertionError as exc:
        ok, detail = False, {"error": str(exc)}
    return SuiteCheck("selfdual-counts", ok, detail)


def run_verification_suite() -> list[SuiteCheck]:
    """Every identity and proposition check the library asserts, in one list.

    Each exhaustive census, each quotient-form stack and each distribution
    row is built once and shared by the checks that read it.  Every check
    transforms its functions as stacks, one transform per stack.
    """
    fields = [GF2k(k) for k in (2, 3)]
    reports = [census(ctx) for ctx in fields]
    quotients = [(ctx, *_quotient_distances(ctx)) for ctx in fields]
    rows = {n: distribution_table(n) for n in range(4, 25, 2)}
    return [
        *(_check_census(report) for report in reports),
        _check_selfdual_counts(reports, quotients),
        _check_metric_identities(),
        _check_distance_formulas(),
        _check_symmetric(),
        _check_charsum(quotients),
        _check_distribution_golden(rows),
        _check_no_antiselfdual(reports, rows),
        _check_transform_examples(),
    ]

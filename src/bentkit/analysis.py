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
    _linear_index_map,
    _pack_values,
    _row_reduce,
    _weights_array,
    symmetric_bent,
    symmetric_value_pattern,
)
from .field import GF2k
from .golden import REFERENCE_CENSUS, REFERENCE_DISTRIBUTION
from .spectral import (
    Pairing,
    _stack_distances,
    _stack_identities,
    rayleigh,
)
from .spreads import (
    SpreadLine,
    SpreadSelection,
    _lines,
    _selection_table,
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


def dist_formula_ps_minus(sel: SpreadSelection) -> int:
    """Distance to the dual of ps_minus(sel) by counting support hits on the
    dual lines of its one-row table stack; never runs a transform."""
    return int(_spread_dist_formula(_selection_table(sel, False))[0])


def dist_formula_ps_plus(sel: SpreadSelection) -> int:
    """Same counting form for ps_plus(sel), with the origin excluded from
    each dual line."""
    return int(_spread_dist_formula(_selection_table(sel, True))[0])


def _annihilator_bases(n: int, point_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Row b: a basis of the annihilator of the point set point_sets[b] under
    the standard dot product, from one `_row_reduce` over all the sets at
    once; every set must have the same rank.  Its pivot vectors are in fully
    reduced echelon form, each pivot bit set in one of them only, so e_j
    plus the pivots of the vectors with bit j set, for every non-pivot bit j
    in ascending order, is orthogonal to all of them."""
    vecs = np.array(point_sets, dtype=np.int64).reshape(len(point_sets), -1)
    vecs, pivot = _row_reduce(vecs, max(n, int(vecs.max(initial=0)).bit_length()))
    basis = vecs[pivot >= 0].reshape(len(vecs), -1)
    lead = pivot[pivot >= 0].reshape(len(vecs), -1)
    j = np.arange(n)
    dual = (1 << j) | np.bitwise_or.reduce(
        ((basis[:, :, None] >> j) & 1) << lead[:, :, None], axis=1
    )
    return dual[~(lead[:, :, None] == j).any(axis=1)].reshape(len(vecs), -1)


def dual_subspace_points(n: int, points: Sequence[int]) -> list[int]:
    """Annihilator of a point set under the standard dot product, origin
    first, in `subspace_span` order of its `_annihilator_bases` basis."""
    return _linear_index_map(_annihilator_bases(n, [list(points)])[0]).tolist()


def dist_formula_general(n: int, subspace_bases: Sequence[Sequence[int]]) -> int:
    """The counting form over explicit disjoint subspaces (standard pairing);
    minus or plus type by the family size.  The annihilator of a span is the
    annihilator of its basis, and every annihilator (dimension k) is one
    column of a batched index map."""
    vals = ps_general(n, subspace_bases).values()
    duals = _linear_index_map(_annihilator_bases(n, subspace_bases).T)
    # origin first in every annihilator: row 0 is left out
    return _dist_from_hits(n, int(vals[duals[1:]].sum(dtype=np.int64)), int(vals[0]))


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
# At k = 7 a sampled census costs ~44 us and ~3.7 KB of peak RSS a draw:
# 100,000 draws took 4.4 s and peaked at 410 MB (2-core x86-64, numpy 2.4).
_SAMPLE_COUNT_MAX = 100_000


def _census_size_check(mode: str, k: int, samples: int | None = None) -> None:
    """Raise ValueError for an unknown census mode, a k above its cap, or a
    sample mode `samples` above _SAMPLE_COUNT_MAX.

    It allocates nothing, and callers may run it before building GF2k(k),
    so a capped k is reported as capped even where no default polynomial
    exists.
    """
    if mode not in _CENSUS_K_MAX:
        raise ValueError(f"unknown census mode {mode!r}")
    cap = _CENSUS_K_MAX[mode]
    if k > cap:
        raise ValueError(f"{mode} census is capped at k <= {cap}, got {k}")
    if mode == "sample" and samples is not None and samples > _SAMPLE_COUNT_MAX:
        raise ValueError(
            f"sample census is capped at {_SAMPLE_COUNT_MAX} samples, got {samples}"
        )


@dataclass
class CensusReport:
    """Aggregate of one census run over partial-spread selections."""

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


class _CensusStack(NamedTuple):
    """A census's rows `cols`, the `_stack_identities` of those it checked,
    and per row the distance it is classed by and its mismatch flag."""

    ctx: GF2k
    cols: np.ndarray
    identities: np.ndarray
    dists: np.ndarray
    mismatches: np.ndarray


def census(
    ctx: GF2k,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> CensusReport:
    """Enumerate minus-type selections and aggregate distance classes.

    Every selection gets the line formula's distance, with h for all rows
    from one gather.  Exhaustive mode (k <= 4) checks every selection
    spectrally, in one batched transform over the stack of tables; sample
    mode (k <= 7) draws `samples` (at most 100,000) from a seeded PRNG and
    checks the first five draws and every 25th.  `formula_mismatches`
    counts the checked rows where either closed form, the line formula or
    the counting form, disagrees with the spectrum; a checked row is
    classed by the spectrum.
    """
    if mode == "exhaustive":
        return _census_report(_exhaustive_census(ctx))
    _census_size_check(mode, ctx.k, samples)
    if not samples or samples <= 0:
        raise ValueError("sample mode needs a positive sample count")
    seed = 0 if seed is None else seed
    idx = np.arange(samples)
    stack = _census_stack(ctx, _minus_draws(ctx, samples, seed), (idx < 5) | (idx % 25 == 0))
    return _census_report(stack, mode=mode, seed=seed)


def _minus_draws(ctx: GF2k, count: int, seed: int) -> np.ndarray:
    """`count` minus selections drawn by Random(seed), as rows of spread
    columns (sample() draws positions, so columns and lines draw alike)."""
    rng = random.Random(seed)
    return np.array(
        [rng.sample(range(ctx.order + 1), ctx.order // 2) for _ in range(count)],
        dtype=np.int64,
    )


def _exhaustive_census(ctx: GF2k, width=None) -> _CensusStack:
    """`_census_stack` over every `width`-subset of the 2^k + 1 spread
    columns, in lexicographic order.  The default width 2^(k-1) gives the
    minus selections, among them the quotient forms (`_psap_rows`); width
    2^(k-1) + 1 gives the plus ones."""
    _census_size_check("exhaustive", ctx.k)
    subsets = itertools.combinations(range(ctx.order + 1), width or ctx.order // 2)
    return _census_stack(ctx, np.array(list(subsets), dtype=np.int64))


def _census_stack(ctx: GF2k, cols, spot=slice(None)) -> _CensusStack:
    """The census core over any stack of minus- or plus-type selections, the
    rows of spread columns `cols`, checking the rows `spot` (all by default)
    spectrally.  A checked row is a formula mismatch when the line formula
    or the counting form disagrees with its spectral distance, and is
    classed by that distance, any other row by the line formula's (a plus
    selection has the h of its complement, a minus selection)."""
    dists = (1 << (2 * ctx.k - 1)) - _nf_value(ctx.k, _unmatched_counts(ctx, cols)) // 2
    tables = _selection_tables(ctx, cols[spot])
    identities = _stack_identities(tables, ctx)
    spectral = _stack_distances(identities)
    mismatches = np.zeros(len(cols), dtype=bool)
    mismatches[spot] = (spectral != dists[spot]) | (spectral != _spread_dist_formula(tables))
    dists[spot] = spectral
    return _CensusStack(ctx, cols, identities, dists, mismatches)


def _psap_rows(stack: _CensusStack) -> np.ndarray:
    """The row mask of the quotient forms g(x/y) in a minus census."""
    # psap_from_g selects E_{1/u} for u in supp g, u != 0: never E_0 or inf
    return ~np.isin(stack.cols, (0, stack.ctx.order)).any(axis=1)


def _census_report(stack: _CensusStack, rows=slice(None), mode="exhaustive", seed=None):
    """The report of a census's rows `rows`: all, or a mask if it checked every row."""
    dists = stack.dists[rows]
    values, counts = np.unique(dists, return_counts=True)
    class_sizes = dict(zip(values.tolist(), counts.tolist()))
    return CensusReport(
        k=stack.ctx.k,
        mode=mode,
        seed=seed,
        total_selections=len(dists),
        class_sizes=class_sizes,
        selfdual_count=class_sizes.get(0, 0),
        min_nonzero_dist=min((d for d in class_sizes if d), default=None),
        formula_mismatches=int(np.count_nonzero(stack.mismatches[rows])),
        spectral_checked=len(stack.identities[rows]),
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
    return _distribution_row(n, census(GF2k(n // 2)) if n <= 6 else None)


def _distribution_row(n: int, realized: CensusReport | None) -> DistributionRow:
    """distribution_table's row, checked against the census `realized`."""
    k = n // 2
    # N rises as h falls; dist = 2^(n-1) - N/2 rises with h
    nf = _nf_value(k, np.arange(1 << (k - 1), -1, -1))
    dist_values = ((1 << (n - 1)) - nf[::-1] // 2).tolist()
    row = DistributionRow(n, nf.tolist(), dist_values)
    if realized is not None:
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

def _check_selfdual_k(k: int) -> None:
    """k must be in 2..12, the field degrees of distribution_table's n."""
    if not 2 <= k <= 12:
        raise ValueError(f"need k in 2..12, got {k}")


def balanced_g_functions(k: int):
    """All balanced g on k variables with g(0) = 0 (support inside the
    nonzero elements), as an iterator; k is checked when it is called."""
    _check_selfdual_k(k)
    supports = itertools.combinations(range(1, 1 << k), 1 << (k - 1))
    return (TruthTable.from_support(k, supp) for supp in supports)


def selfdual_counts(k: int) -> tuple[int, int]:
    """(spread-form count, quotient-form count) of self-dual functions.

    Both count the h = 0 selections, whose lines are all matched.  For
    k >= 2 those leave out E_1 and choose 2^(k-2) of the 2^(k-1) dual pairs;
    the quotient form lacks the pair {E_0, inf}, so it chooses among
    2^(k-1) - 1.  For k <= EXHAUSTIVE_K_MAX (4) both values are verified by
    one exhaustive census of every minus selection, with the line formula
    and the spectral oracle on every row; the quotient form of every
    balanced g is one of its rows (`_psap_rows`).
    """
    _check_selfdual_k(k)
    return _selfdual_counts(k, _exhaustive_census(GF2k(k)) if k <= EXHAUSTIVE_K_MAX else None)


def _selfdual_counts(k: int, stack: _CensusStack | None) -> tuple[int, int]:
    """The binomials of selfdual_counts, checked by enumeration when
    `stack`, the exhaustive census of GF2k(k), is given: its report and the
    report of its `_psap_rows`; a formula mismatch in any row fails."""
    spread_form = comb(1 << (k - 1), 1 << (k - 2))
    g_form = comb((1 << (k - 1)) - 1, 1 << (k - 2))
    if stack is not None:
        report = _census_report(stack)
        found = (report.selfdual_count, _census_report(stack, _psap_rows(stack)).selfdual_count)
        # the quotient rows are among the report's
        if found != (spread_form, g_form) or report.formula_mismatches:
            raise AssertionError(
                f"enumeration found {found} with {report.formula_mismatches} formula "
                f"mismatches, binomials give ({spread_form}, {g_form})"
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


# (eps1, eps2) of the four symmetric bents, in the order of their stack
_EPS = list(itertools.product((0, 1), repeat=2))


def symmetric_report(n: int) -> list[SymmetricRecord]:
    """Check all four symmetric bent functions on n variables against the
    closed-form dual and the Rayleigh case table, as stated.  The four are
    one stack: one transform, with every check of the spectral path per row;
    N = 2^n - 2 dist, and the true dual is the sign bits of the spectrum."""
    return _symmetric_report(n)[0]


def _symmetric_report(n: int) -> tuple[list[SymmetricRecord], np.ndarray]:
    """(records, identities): symmetric_report, with its stack's identities."""
    if n % 2 or not 4 <= n <= 12:
        raise ValueError(f"need even n in 4..12, got {n}")
    tables = np.array([symmetric_bent(n, e1, e2).values() for e1, e2 in _EPS])
    true_duals = np.empty(tables.shape, dtype=bool)
    identities = _stack_identities(tables, None, true_duals)
    dists = _stack_distances(identities)
    records = []
    for (eps1, eps2), d, true_dual in zip(_EPS, dists.tolist(), true_duals):
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
    return records, identities


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


def _check_transform_examples() -> SuiteCheck:
    from .spectral import affine_transform, is_orthogonal

    # the self-dual quadratic x1x3 + x2x4
    f = TruthTable.from_function(
        4, lambda x: (x & (x >> 2) & 1) ^ ((x >> 1) & (x >> 3) & 1)
    )
    orth = [0b0111, 0b1011, 0b1101, 0b1110]
    nonorth = [0b0001, 0b0011, 0b0111, 0b1111]
    # f, then its images under orth, nonorth and orth with the shift (0,1,1,1)
    images = [f] + [affine_transform(f, *a) for a in ((orth,), (nonorth,), (orth, 0b1110))]
    dists = _stack_distances(_stack_identities(np.array([g.values() for g in images]), None))
    base, after_orth, after_nonorth, after_shift = dists.tolist()
    got = {
        "self_dual_base": base == 0,
        "orthogonal": is_orthogonal(orth, 4) and not is_orthogonal(nonorth, 4),
        "dist_after_orthogonal": after_orth,
        "dist_after_nonorthogonal": after_nonorth,
        "dist_after_shift": after_shift,
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
    total, selfdual, classes = REFERENCE_CENSUS[report.k]
    ok = (
        report.total_selections == total
        and report.selfdual_count == selfdual
        and report.class_sizes == classes
        and report.formula_mismatches == 0
    )
    return SuiteCheck(f"census-k{report.k}", ok, report.to_json_dict())


def _check_metric_identities(spread, symmetric) -> SuiteCheck:
    """Both metric identities on every row of three kinds of stack: the 126
    k = 3 spread functions (trace pairing; the census `spread`), the four
    symmetric bents at each n = 4..12, and 25 seeded MM bents at n = 6, 8."""
    from .boolfun import mm_bent

    ctx3, cols = spread.ctx, spread.cols
    # (identities, the failure record of row i)
    stacks = [(
        spread.identities,
        lambda i: {"family": "spread-k3", "lines": list(map(str, _lines(ctx3, cols[i])))},
    )]
    for n, (_, identities) in symmetric.items():
        stacks.append(
            (identities, lambda i, n=n: {"family": "symmetric", "n": n, "eps": list(_EPS[i])})
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
        identities = _stack_identities(np.array(tables), None)
        stacks.append((identities, lambda i, n=n: {"family": "mm", "n": n}))
    failures = [
        where(i)
        for identities, where in stacks
        for i, row in enumerate(identities.tolist())
        if not MetricIdentity(*row).consistent
    ]
    return SuiteCheck(
        "metric-identities", not failures, {"failures": failures[:5]}
    )


def _check_distance_formulas(censuses) -> SuiteCheck:
    """Both closed forms against the spectral distance, as the census core
    checks them, over stacks with every row checked: every minus selection
    at k = 2, 3 (the `censuses` stacks), every plus selection at k = 2, 3,
    and 200 seeded minus draws at k = 4.  A stack fails on any formula
    mismatch its census counted, or on a distance above 2^n - 2^k."""
    stacks = []
    for minus in censuses:
        stacks += [minus, _exhaustive_census(minus.ctx, width=minus.ctx.order // 2 + 1)]
    ctx = GF2k(4)
    stacks.append(_census_stack(ctx, _minus_draws(ctx, 200, 404)))
    failures = []
    for stack in stacks:
        ctx, bad = stack.ctx, int(np.count_nonzero(stack.mismatches))
        if bad or stack.dists.max() > (1 << (2 * ctx.k)) - ctx.order:
            form = "plus" if stack.cols.shape[1] > ctx.order // 2 else "minus"
            failures.append({"form": form, "k": ctx.k, "formula_mismatches": bad})
    return SuiteCheck("ps-distance-formulas", not failures, {"failures": failures[:5]})


def _check_symmetric(symmetric) -> SuiteCheck:
    bad = []
    for records, _ in symmetric.values():
        for rec in records:
            if not (rec.dual_formula_ok and rec.nf_prediction_ok):
                bad.append(rec.to_json_dict())
    return SuiteCheck("symmetric-propositions", not bad, {"failures": bad})


def _check_charsum(censuses) -> SuiteCheck:
    """The derived relation on every balanced g at k = 2, 3, read off the
    `_psap_rows` of the exhaustive minus `censuses`: N = 2^n - 2 dist per
    row from the spectral distances, K for every g from one gather."""
    bad = []
    for stack in censuses:
        ctx, rows = stack.ctx, _psap_rows(stack)
        g_vals = np.zeros((np.count_nonzero(rows), ctx.order), dtype=np.uint8)
        # the columns 1/u give back supp g through the same involution
        np.put_along_axis(g_vals, ctx.line_dual_index[stack.cols[rows]], 1, axis=1)
        k_nz = _kloosterman_nonzero(ctx, g_vals).tolist()
        for v, kn, d in zip(g_vals, k_nz, stack.dists[rows].tolist()):
            g = TruthTable._from_packed(ctx.k, _pack_values(v))
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


def _check_selfdual_counts(censuses: list[_CensusStack]) -> SuiteCheck:
    try:
        k2, k3 = (_selfdual_counts(stack.ctx.k, stack) for stack in censuses)
        ok = k2 == (2, 1) and k3 == (6, 3)
        detail = {"k2": list(k2), "k3": list(k3)}
    except AssertionError as exc:
        ok, detail = False, {"error": str(exc)}
    return SuiteCheck("selfdual-counts", ok, detail)


def run_verification_suite() -> list[SuiteCheck]:
    """Every identity and proposition check the library asserts, in one list.

    Every function is transformed once, in a stack, one transform per
    stack.  The exhaustive census stacks, the symmetric stacks and the
    distribution rows are built once and shared by the checks that read
    them; the quotient forms are a row mask of the census stacks.
    """
    censuses = [_exhaustive_census(GF2k(k)) for k in (2, 3)]
    reports = [_census_report(stack) for stack in censuses]
    realized = {4: reports[0], 6: reports[1]}
    rows = {n: _distribution_row(n, realized.get(n)) for n in range(4, 25, 2)}
    symmetric = {n: _symmetric_report(n) for n in range(4, 13, 2)}
    return [
        *(_check_census(report) for report in reports),
        _check_selfdual_counts(censuses),
        _check_metric_identities(censuses[1], symmetric),
        _check_distance_formulas(censuses),
        _check_symmetric(symmetric),
        _check_charsum(censuses),
        _check_distribution_golden(rows),
        _check_no_antiselfdual(reports, rows),
        _check_transform_examples(),
    ]

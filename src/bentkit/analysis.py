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
    _bent_quantities,
    _bent_spectrum,
    _dual_from_spectrum,
    _rayleigh_sum,
    dist_to_dual,
    hamming_dist,
    rayleigh,
)
from .spreads import (
    SpreadLine,
    SpreadSelection,
    _indicator_values,
    _selection_index,
    _unmatched_lines,
    desarguesian,
    ps_general,
    ps_minus,
    ps_plus,
    psap_from_g,
    selection,
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


def _exact_div(a: int, b: int, what: str) -> int:
    if a % b:
        raise AssertionError(f"{what} = {a} is not divisible by {b}")
    return a // b


def metric_identity_check(f: TruthTable, pairing: Pairing = None) -> MetricIdentity:
    """Evaluate both closed forms of dist(f, f~) and the zero-sum corollary,
    all from the one bent spectrum of f.

    form1 rewrites the distance through the spectrum over the support of f.
    form2 is the derivative form: the spectra of all directional derivatives,
    split over the isotropic/anisotropic halves of the domain.  The pairing
    map P is symmetric, so those derivative sums collapse to
    sum_x (-1)^(f(x) + <x, x>) W(x), the split cancels, and form2 is
    2^(n-1) - S / 2^(k+1) with S = sum_x (-1)^f(x) W(x) the Rayleigh sum.
    The O(4^n) derivative loop is kept only as a test oracle.  The residual
    2 * (support sum) + S - (-1)^f(0) 2^n is sum_u W(u) - (-1)^f(0) 2^n,
    zero by the inverse transform at x = 0, so it still checks the transform.
    """
    n, k = f.n, f.n // 2
    spec = _bent_spectrum(f, pairing)
    direct = hamming_dist(f, _dual_from_spectrum(spec))
    sign0 = -1 if f[0] else 1

    supp_sum = int(spec.values[f.values().astype(bool)].sum(dtype=np.int64))
    form1 = (
        (1 << (n - 1))
        - sign0 * (1 << (k - 1))
        + _exact_div(supp_sum, 1 << k, "support spectrum sum")
    )
    s = _rayleigh_sum(f, spec)
    form2 = (1 << (n - 1)) - _exact_div(s, 1 << (k + 1), "Rayleigh sum")
    residual = 2 * supp_sum + s - sign0 * (1 << n)
    return MetricIdentity(direct, form1, form2, residual)


# ----------------------------------------------------------------------
# closed-form distances for partial-spread functions
# ----------------------------------------------------------------------

def _dist_formula(vals: np.ndarray, dual_index: np.ndarray) -> int:
    """The counting form: support hits of a partial-spread table `vals` (0/1
    per point) on the dual subspaces, a (2^k, m) index array whose origin row
    0 is skipped.  A set origin marks the plus type; the minus type never
    contains the origin."""
    n = vals.size.bit_length() - 1
    k = n // 2
    hits = int(vals[dual_index[1:]].sum(dtype=np.int64))
    if vals[0]:
        return (1 << n) + (1 << k) - 2 - 2 * hits
    return (1 << n) - (1 << k) - 2 * hits


def _dist_formula_selection(sel: SpreadSelection, plus: bool) -> int:
    """The counting form on one build of the selection's line index, read
    from the scattered table itself.  E_a^perp = E_{1/a} is E_a with x and y
    swapped (E_0 and inf swap too), so the dual lines are the selected lines
    transposed; row 0 stays the origin."""
    idx = _selection_index(sel, plus)
    vals = _indicator_values(sel.n, idx, plus)
    x = idx & sel.ctx.mask  # swap x and y in place: idx is not read again
    x <<= sel.k
    idx >>= sel.k
    idx |= x
    return _dist_formula(vals, idx)


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
    f = ps_general(n, subspace_bases)
    duals = [dual_subspace_points(n, basis) for basis in subspace_bases]
    return _dist_formula(f.values(), np.array(duals, dtype=np.int64).T)


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

EXHAUSTIVE_K_MAX = 3
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


def _census_selections(ctx: GF2k, mode: str, samples: int | None, seed: int | None):
    """Yield (selection, spot_check) pairs in a deterministic order."""
    size = 1 << (ctx.k - 1)
    lines = desarguesian(ctx)
    if mode == "exhaustive":
        for combo in itertools.combinations(lines, size):
            yield selection(ctx, combo), True
    else:
        rng = random.Random(seed)
        for idx in range(samples):
            combo = rng.sample(lines, size)
            yield selection(ctx, combo), idx < 5 or idx % 25 == 0


def census(
    ctx: GF2k,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
) -> CensusReport:
    """Enumerate minus-type selections and aggregate distance classes.

    Exhaustive mode (k <= 3) computes every distance twice, by the line
    formula and by the spectral dual, and counts disagreements.  Sample mode
    (k <= 7) draws `samples` selections from a seeded PRNG and spectrally
    spot-checks a deterministic subset.
    """
    _census_size_check(mode, ctx.k)
    if mode == "exhaustive":
        seed = None
    else:
        if not samples or samples <= 0:
            raise ValueError("sample mode needs a positive sample count")
        seed = 0 if seed is None else seed

    class_sizes: dict[int, int] = {}
    mismatches = 0
    checked = 0
    total = 0
    for sel, spot in _census_selections(ctx, mode, samples, seed):
        total += 1
        d_formula = (1 << (sel.n - 1)) - nf_formula(sel) // 2
        d = d_formula
        if spot:
            d_spectral = dist_to_dual(ps_minus(sel), pairing=ctx)
            checked += 1
            if d_spectral != d_formula:
                mismatches += 1
                d = d_spectral
        class_sizes[d] = class_sizes.get(d, 0) + 1

    nonzero = [d for d in class_sizes if d > 0]
    return CensusReport(
        k=ctx.k,
        mode=mode,
        seed=seed,
        total_selections=total,
        class_sizes=dict(sorted(class_sizes.items())),
        selfdual_count=class_sizes.get(0, 0),
        min_nonzero_dist=min(nonzero) if nonzero else None,
        formula_mismatches=mismatches,
        spectral_checked=checked,
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
    2^(k-1) - 1.  For k <= EXHAUSTIVE_K_MAX both values are verified by
    exhaustive enumeration with the spectral oracle: the spread form is the
    exhaustive census's self-dual count, which transforms every selection.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return _selfdual_counts(k, census(GF2k(k)) if k <= EXHAUSTIVE_K_MAX else None)


def _selfdual_counts(k: int, report: CensusReport | None) -> tuple[int, int]:
    """The binomials of selfdual_counts, checked by enumeration when
    `report`, the exhaustive census of GF2k(k), is given."""
    spread_form = comb(1 << (k - 1), 1 << (k - 2))
    g_form = comb((1 << (k - 1)) - 1, 1 << (k - 2))
    if report is not None:
        ctx = GF2k(k)
        found_spread = report.selfdual_count
        found_g = sum(
            dist_to_dual(psap_from_g(ctx, g), pairing=ctx) == 0
            for g in balanced_g_functions(k)
        )
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
    k_nonzero = sum(
        -1 if g[u] ^ g[ctx.inv(u)] else 1 for u in ctx.nonzero()
    )
    return k_nonzero, k_nonzero + 1  # u = 0 contributes (-1)^(g(0)+g(0)) = +1


def rayleigh_vs_charsum(ctx: GF2k, g: TruthTable) -> CharSumReport:
    """Compare the actual Rayleigh quotient of the quotient-form function
    against both the stated character-sum formula and the derived one."""
    f = psap_from_g(ctx, g)  # validates g
    _, n_actual = rayleigh(f, pairing=ctx)
    k_nz, k_wz = kloosterman_sum(ctx, g)
    k = ctx.k
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


def _symmetric_dual_formula(n: int, c: Sequence[int]) -> TruthTable:
    """The closed-form dual of a symmetric bent function with weight-value
    list c: both n/2-parity branches, including the full-weight special case."""
    w = _weights_array(n).astype(np.int64)
    carr = np.asarray(c, dtype=np.int64)
    if (n // 2) % 2 == 0:
        vals = (w + carr[w] + n // 4) & 1
    else:
        shifted = carr[np.minimum(w + 1, n)]
        vals = (w + shifted + n // 4) & 1
        vals[-1] = (n + 1 + c[1] + n // 4) & 1  # the single weight-n point
    return TruthTable(n, _pack_values(vals.astype(np.uint8)))


def _symmetric_nf_prediction(n: int, c: Sequence[int]) -> int:
    if (n // 2) % 2 == 0:
        return 0
    floor_odd = (n // 4) & 1
    if (not floor_odd and c[0] == c[1]) or (floor_odd and c[0] != c[1]):
        return 1 << n
    return -(1 << n)


def symmetric_report(n: int) -> list[SymmetricRecord]:
    """Check all four symmetric bent functions on n variables against the
    closed-form dual and the Rayleigh case table, as stated."""
    if n % 2 or not 4 <= n <= 12:
        raise ValueError(f"need even n in 4..12, got {n}")
    records = []
    for eps1, eps2 in itertools.product((0, 1), repeat=2):
        f = symmetric_bent(n, eps1, eps2)
        c = symmetric_value_pattern(n, eps1, eps2)
        spec = _bent_spectrum(f, None)
        true_dual = _dual_from_spectrum(spec)
        formula_dual = _symmetric_dual_formula(n, c)
        _, n_actual, _ = _bent_quantities(f, spec)
        n_pred = _symmetric_nf_prediction(n, c)
        records.append(
            SymmetricRecord(
                n=n,
                eps1=eps1,
                eps2=eps2,
                dual_formula_ok=formula_dual == true_dual,
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
    failures = []
    ctx3 = GF2k(3)
    for combo in itertools.combinations(desarguesian(ctx3), 4):
        sel = selection(ctx3, combo)
        res = metric_identity_check(ps_minus(sel), pairing=ctx3)
        if not res.consistent:
            failures.append({"family": "spread-k3", "lines": [str(L) for L in sel.lines]})
    for n in range(4, 13, 2):
        for eps1, eps2 in itertools.product((0, 1), repeat=2):
            res = metric_identity_check(symmetric_bent(n, eps1, eps2))
            if not res.consistent:
                failures.append({"family": "symmetric", "n": n, "eps": [eps1, eps2]})
    rng = random.Random(2024)
    from .boolfun import mm_bent

    for n in (6, 8):
        k = n // 2
        for _ in range(25):
            pi = list(range(1 << k))
            rng.shuffle(pi)
            g = TruthTable(k, rng.getrandbits(1 << k))
            res = metric_identity_check(mm_bent(pi, g))
            if not res.consistent:
                failures.append({"family": "mm", "n": n})
    return SuiteCheck(
        "metric-identities", not failures, {"failures": failures[:5]}
    )


def _check_distance_formulas() -> SuiteCheck:
    failures = []
    for k in (2, 3):
        ctx = GF2k(k)
        lines = desarguesian(ctx)
        for combo in itertools.combinations(lines, 1 << (k - 1)):
            sel = selection(ctx, combo)
            a = dist_formula_ps_minus(sel)
            b = dist_to_dual(ps_minus(sel), pairing=ctx)
            if a != b or a > (1 << sel.n) - (1 << k):
                failures.append({"form": "minus", "k": k, "lines": [str(L) for L in sel.lines]})
        for combo in itertools.combinations(lines, (1 << (k - 1)) + 1):
            sel = selection(ctx, combo)
            a = dist_formula_ps_plus(sel)
            b = dist_to_dual(ps_plus(sel), pairing=ctx)
            if a != b or a > (1 << sel.n) - (1 << k):
                failures.append({"form": "plus", "k": k, "lines": [str(L) for L in sel.lines]})
    ctx4 = GF2k(4)
    lines4 = desarguesian(ctx4)
    rng = random.Random(404)
    for idx in range(200):
        sel = selection(ctx4, rng.sample(lines4, 8))
        a = dist_formula_ps_minus(sel)
        b = dist_to_dual(ps_minus(sel), pairing=ctx4)
        if a != b or a > (1 << 8) - (1 << 4):
            failures.append({"form": "minus", "k": 4, "index": idx})
    return SuiteCheck("ps-distance-formulas", not failures, {"failures": failures[:5]})


def _check_symmetric() -> SuiteCheck:
    bad = []
    for n in range(4, 13, 2):
        for rec in symmetric_report(n):
            if not (rec.dual_formula_ok and rec.nf_prediction_ok):
                bad.append(rec.to_json_dict())
    return SuiteCheck("symmetric-propositions", not bad, {"failures": bad})


def _check_charsum() -> SuiteCheck:
    bad = []
    for k in (2, 3):
        ctx = GF2k(k)
        for g in balanced_g_functions(k):
            rep = rayleigh_vs_charsum(ctx, g)
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


def _check_selfdual_counts(reports: list[CensusReport]) -> SuiteCheck:
    try:
        k2, k3 = (_selfdual_counts(r.k, r) for r in reports)
        ok = k2 == (2, 1) and k3 == (6, 3)
        detail = {"k2": list(k2), "k3": list(k3)}
    except AssertionError as exc:
        ok, detail = False, {"error": str(exc)}
    return SuiteCheck("selfdual-counts", ok, detail)


def run_verification_suite() -> list[SuiteCheck]:
    """Every identity and proposition check the library asserts, in one list.

    Each exhaustive census and each distribution row is built once and
    shared by the checks that read it.
    """
    reports = [census(GF2k(k)) for k in (2, 3)]
    rows = {n: distribution_table(n) for n in range(4, 25, 2)}
    return [
        *(_check_census(report) for report in reports),
        _check_selfdual_counts(reports),
        _check_metric_identities(),
        _check_distance_formulas(),
        _check_symmetric(),
        _check_charsum(),
        _check_distribution_golden(rows),
        _check_no_antiselfdual(reports, rows),
        _check_transform_examples(),
    ]

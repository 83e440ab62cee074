import itertools
import random

import pytest

from bentkit.analysis import (
    CensusReport,
    anti_selfdual_check,
    balanced_g_functions,
    census,
    dist_formula_general,
    dist_formula_ps_minus,
    dist_formula_ps_plus,
    distribution_table,
    dual_subspace_points,
    intersection_index,
    kloosterman_sum,
    metric_identity_check,
    nf_formula,
    rayleigh_vs_charsum,
    selfdual_counts,
    symmetric_report,
)
from bentkit.boolfun import TruthTable, mm_bent, symmetric_bent
from bentkit.field import GF2k
from bentkit.golden import REFERENCE_CENSUS, REFERENCE_DISTRIBUTION
from bentkit.spectral import dist_to_dual, rayleigh
from bentkit.spreads import (
    LINE_INFINITY,
    SpreadLine,
    desarguesian,
    ps_minus,
    ps_plus,
    psap_from_g,
    selection,
)

F4 = GF2k(2)
F8 = GF2k(3)

E1 = [0b0001, 0b0100]
E2 = [0b0010, 0b1000]
E3 = [0b0011, 0b1101]
E4 = [0b0110, 0b1001]
E5 = [0b0111, 0b1011]

X1X3_X2X4 = TruthTable.from_function(
    4, lambda x: (x & (x >> 2) & 1) ^ ((x >> 1) & (x >> 3) & 1)
)


def all_selections(ctx, size):
    for combo in itertools.combinations(desarguesian(ctx), size):
        yield selection(ctx, combo)


# ----------------------------------------------------------------------
# metric identities
# ----------------------------------------------------------------------

def test_metric_identity_on_self_dual_example():
    res = metric_identity_check(X1X3_X2X4)
    assert res == (0, 0, 0, 0)
    assert res.consistent


def test_metric_identity_all_spread_functions_k3():
    for sel in all_selections(F8, 4):
        res = metric_identity_check(ps_minus(sel), pairing=F8)
        assert res.consistent
        assert res.direct == dist_to_dual(ps_minus(sel), pairing=F8)


def test_metric_identity_random_mm_n6():
    rng = random.Random(31)
    for _ in range(20):
        pi = list(range(8))
        rng.shuffle(pi)
        f = mm_bent(pi, TruthTable(3, rng.getrandbits(8)))
        assert metric_identity_check(f).consistent


def test_metric_identity_symmetric_sample():
    for n in (4, 6, 8):
        for e1, e2 in itertools.product((0, 1), repeat=2):
            assert metric_identity_check(symmetric_bent(n, e1, e2)).consistent


def test_metric_identity_rejects_non_bent():
    from bentkit.spectral import NotBentError

    with pytest.raises(NotBentError):
        metric_identity_check(TruthTable(4, 1))


# ----------------------------------------------------------------------
# closed-form distances
# ----------------------------------------------------------------------

def test_dist_formula_selfdual_selection():
    assert dist_formula_ps_minus(selection(F4, [SpreadLine(2), SpreadLine(3)])) == 0


def test_dist_formulas_match_spectra_exhaustively():
    for ctx in (F4, F8):
        k, n = ctx.k, 2 * ctx.k
        bound = (1 << n) - (1 << k)
        for sel in all_selections(ctx, 1 << (k - 1)):
            d = dist_formula_ps_minus(sel)
            assert d == dist_to_dual(ps_minus(sel), pairing=ctx)
            assert d <= bound
        for sel in all_selections(ctx, (1 << (k - 1)) + 1):
            d = dist_formula_ps_plus(sel)
            assert d == dist_to_dual(ps_plus(sel), pairing=ctx)
            assert d <= bound


def test_dist_formulas_match_spectra_sampled_k4():
    rng = random.Random(404)
    ctx = GF2k(4)
    lines = desarguesian(ctx)
    for _ in range(200):
        sel = selection(ctx, rng.sample(lines, 8))
        assert dist_formula_ps_minus(sel) == dist_to_dual(ps_minus(sel), pairing=ctx)
    for _ in range(50):
        sel = selection(ctx, rng.sample(lines, 9))
        assert dist_formula_ps_plus(sel) == dist_to_dual(ps_plus(sel), pairing=ctx)


def test_dist_formula_triple_equality_sampled_k5():
    # counting form = spectral dual distance = 2^(n-1) - N/2 from line bookkeeping
    rng = random.Random(505)
    ctx = GF2k(5)
    lines = desarguesian(ctx)
    for _ in range(200):
        sel = selection(ctx, rng.sample(lines, 16))
        d_count = dist_formula_ps_minus(sel)
        d_nf = (1 << (sel.n - 1)) - nf_formula(sel) // 2
        assert d_count == d_nf == dist_to_dual(ps_minus(sel), pairing=ctx)


def test_dist_formula_general_on_example_family():
    assert dist_formula_general(4, [E1, E2]) == 0
    assert dist_formula_general(4, [E3, E4]) == 6
    assert dist_formula_general(4, [E1, E3]) == 12
    assert dist_formula_general(4, [E1, E2, E4]) == 0
    assert dist_formula_general(4, [E1, E2, E3]) == 6
    assert dist_formula_general(4, [E1, E3, E4]) == 12


def test_dual_subspace_points_matches_known_duality():
    span3 = sorted(dual_subspace_points(4, [0b0011, 0b1101]))
    from bentkit.boolfun import subspace_span

    assert span3 == sorted(subspace_span(E5))  # E3 and E5 are dual
    assert sorted(dual_subspace_points(4, E4)) == sorted(subspace_span(E4))


# ----------------------------------------------------------------------
# intersection index and the closed-form Rayleigh quotient
# ----------------------------------------------------------------------

def test_intersection_index_examples():
    has_e1, i = intersection_index(selection(F4, [SpreadLine(0), SpreadLine(2)]))
    assert (has_e1, i) == (False, 0)
    has_e1, i = intersection_index(selection(F4, [SpreadLine(1), SpreadLine(0)]))
    assert (has_e1, i) == (True, 1)
    has_e1, i = intersection_index(selection(F4, [SpreadLine(2), SpreadLine(3)]))
    assert (has_e1, i) == (False, 2)  # self-dual: i = 2^(k-1)


def test_nf_formula_specific_values():
    # n=4, i=0, no E_1 -> -8
    assert nf_formula(selection(F4, [SpreadLine(0), SpreadLine(2)])) == -8
    # self-dual -> 2^n
    assert nf_formula(selection(F4, [SpreadLine(2), SpreadLine(3)])) == 16
    # n=6, i=1: 64 - 4*3*7 = -20
    sel = selection(F8, [SpreadLine(1), SpreadLine(0), SpreadLine(2), SpreadLine(4)])
    has_e1, i = intersection_index(sel)
    assert (has_e1, i) == (True, 1)
    assert nf_formula(sel) == -20


def test_nf_formula_matches_rayleigh_exhaustively():
    for ctx in (F4, F8):
        for sel in all_selections(ctx, 1 << (ctx.k - 1)):
            _, n_f = rayleigh(ps_minus(sel), pairing=ctx)
            assert nf_formula(sel) == n_f


# ----------------------------------------------------------------------
# censuses
# ----------------------------------------------------------------------

def test_census_k2_exact():
    rep = census(F4)
    total, selfdual, classes = REFERENCE_CENSUS[2]
    assert rep.total_selections == total
    assert rep.selfdual_count == selfdual
    assert rep.class_sizes == classes
    assert rep.formula_mismatches == 0
    assert rep.spectral_checked == total
    assert rep.min_nonzero_dist == 6 >= 1 << 2


def test_census_k3_exact():
    rep = census(F8)
    total, selfdual, classes = REFERENCE_CENSUS[3]
    assert rep.total_selections == total
    assert rep.selfdual_count == selfdual
    assert rep.class_sizes == classes
    assert rep.formula_mismatches == 0
    assert rep.min_nonzero_dist == 14


def test_census_class_keys_are_step_multiples():
    for k, ctx in ((2, F4), (3, F8)):
        rep = census(ctx)
        step = (1 << (k + 1)) - 2
        full = {step * m for m in range((1 << (k - 1)) + 1)}
        assert set(rep.class_sizes) == full  # every class realized
        assert sum(rep.class_sizes.values()) == rep.total_selections
        assert rep.selfdual_count == rep.class_sizes[0]


def test_census_sample_mode_deterministic():
    ctx = GF2k(4)
    a = census(ctx, mode="sample", samples=60, seed=7)
    b = census(ctx, mode="sample", samples=60, seed=7)
    assert a == b
    assert a.total_selections == 60
    assert a.seed == 7
    assert a.formula_mismatches == 0
    assert a.spectral_checked >= 5
    c = census(ctx, mode="sample", samples=60, seed=8)
    assert c.seed == 8


def test_census_mode_caps():
    with pytest.raises(ValueError):
        census(GF2k(4), mode="exhaustive")
    with pytest.raises(ValueError):
        census(GF2k(8), mode="sample", samples=5)
    with pytest.raises(ValueError):
        census(F4, mode="sample")  # missing sample count
    with pytest.raises(ValueError):
        census(F4, mode="bogus")


# ----------------------------------------------------------------------
# the distribution table
# ----------------------------------------------------------------------

def test_distribution_rows_match_reference():
    for n, (nf_ref, dist_ref) in REFERENCE_DISTRIBUTION.items():
        row = distribution_table(n)
        assert tuple(row.nf_values) == nf_ref
        assert tuple(row.dist_values) == dist_ref


def test_distribution_row_shape_and_bounds():
    for n in range(4, 25, 2):
        k = n // 2
        row = distribution_table(n)
        assert len(row.nf_values) == len(row.dist_values) == (1 << (k - 1)) + 1
        step = (1 << (k + 1)) - 2
        assert row.dist_values[0] == 0
        assert all(d % step == 0 for d in row.dist_values)
        assert max(row.dist_values) <= (1 << n) - (1 << k)
        nonzero = [d for d in row.dist_values if d]
        assert min(nonzero) >= 1 << k
        for nf, d in row.pairs():
            assert d == (1 << (n - 1)) - nf // 2


def test_distribution_row_cross_validated_at_desk_scale():
    assert distribution_table(4).validation == "exhaustive-census"
    assert distribution_table(6).validation == "exhaustive-census"
    assert distribution_table(8).validation == "formula"


def test_distribution_rejects_bad_n():
    with pytest.raises(ValueError):
        distribution_table(5)
    with pytest.raises(ValueError):
        distribution_table(2)
    with pytest.raises(ValueError):
        distribution_table(26)


# ----------------------------------------------------------------------
# self-dual counts
# ----------------------------------------------------------------------

def test_selfdual_counts_desk_scale():
    assert selfdual_counts(2) == (2, 1)  # verified internally by enumeration
    assert selfdual_counts(3) == (6, 3)


def test_selfdual_counts_binomials_only_for_larger_k():
    assert selfdual_counts(4) == (70, 35)


def test_selfdual_counts_independent_enumeration():
    # spread form at k=2: exactly the two closed selections
    found = [
        sel.lines
        for sel in all_selections(F4, 2)
        if dist_to_dual(ps_minus(sel), pairing=F4) == 0
    ]
    assert len(found) == 2
    assert (SpreadLine(0), LINE_INFINITY) in found
    assert (SpreadLine(2), SpreadLine(3)) in found
    # quotient form at k=2: only supp {w, w^2}
    gs = [
        g
        for g in balanced_g_functions(2)
        if dist_to_dual(psap_from_g(F4, g), pairing=F4) == 0
    ]
    assert len(gs) == 1 and gs[0].support() == [2, 3]


def test_balanced_g_counts():
    assert sum(1 for _ in balanced_g_functions(2)) == 3
    assert sum(1 for _ in balanced_g_functions(3)) == 35


# ----------------------------------------------------------------------
# character sums
# ----------------------------------------------------------------------

def test_kloosterman_constant_g():
    for ctx in (F4, F8):
        k_nz, k_wz = kloosterman_sum(ctx, TruthTable(ctx.k, 0))
        assert k_nz == (1 << ctx.k) - 1
        assert k_wz == k_nz + 1


def test_kloosterman_inversion_symmetric_g():
    g = TruthTable.from_support(2, [2, 3])
    assert kloosterman_sum(F4, g) == (3, 4)


def test_kloosterman_trace_matches_direct_sum():
    g = TruthTable.from_values(3, [F8.trace(u) for u in range(8)])
    direct = sum(
        (-1) ** (F8.trace(u) ^ F8.trace(F8.inv(u))) for u in range(1, 8)
    )
    k_nz, _ = kloosterman_sum(F8, g)
    assert k_nz == direct


def test_charsum_report_selfdual_example():
    rep = rayleigh_vs_charsum(F4, TruthTable.from_support(2, [2, 3]))
    assert rep.N_f_actual == 16
    assert rep.stated_formula_value == 10  # recorded mismatch, not an assertion
    assert not rep.stated_formula_matches
    assert rep.derived_formula_value == 16
    assert rep.derived_matches


def test_charsum_report_second_example():
    rep = rayleigh_vs_charsum(F4, TruthTable.from_support(2, [1, 2]))
    assert rep.K_nonzero == -1
    assert rep.N_f_actual == 4
    assert rep.derived_formula_value == 16 - 9 - 3 == 4
    assert rep.derived_matches


def test_charsum_derived_relation_exhaustive():
    for ctx in (F4, F8):
        for g in balanced_g_functions(ctx.k):
            rep = rayleigh_vs_charsum(ctx, g)
            assert rep.derived_matches
            assert rep.K_withzero == rep.K_nonzero + 1


# ----------------------------------------------------------------------
# symmetric propositions
# ----------------------------------------------------------------------

def test_symmetric_report_n4_all_zero():
    for rec in symmetric_report(4):
        assert rec.dual_formula_ok
        assert rec.nf_actual == 0 and rec.nf_prediction_ok


def test_symmetric_report_n6_cases():
    by_eps = {(r.eps1, r.eps2): r for r in symmetric_report(6)}
    assert by_eps[(1, 0)].nf_actual == 64
    assert by_eps[(1, 1)].nf_actual == 64
    assert by_eps[(0, 0)].nf_actual == -64
    assert by_eps[(0, 1)].nf_actual == -64
    assert all(r.dual_formula_ok and r.nf_prediction_ok for r in by_eps.values())


def test_symmetric_report_all_n():
    for n in range(4, 13, 2):
        for rec in symmetric_report(n):
            assert rec.dual_formula_ok, (n, rec.eps1, rec.eps2)
            assert rec.nf_prediction_ok, (n, rec.eps1, rec.eps2)


def test_symmetric_report_rejects_bad_n():
    with pytest.raises(ValueError):
        symmetric_report(5)
    with pytest.raises(ValueError):
        symmetric_report(14)


# ----------------------------------------------------------------------
# anti-self-dual exclusion
# ----------------------------------------------------------------------

def test_no_antiselfdual_in_censuses():
    assert anti_selfdual_check(census(F4))
    assert anti_selfdual_check(census(F8))


def test_no_antiselfdual_in_any_row():
    for n in range(4, 25, 2):
        assert anti_selfdual_check(distribution_table(n))


def test_n14_extreme_value():
    row = distribution_table(14)
    assert min(row.nf_values) == -16128
    assert -(1 << 14) not in row.nf_values


def test_antiselfdual_check_detects_a_planted_row():
    bad = CensusReport(
        k=2, mode="exhaustive", seed=None, total_selections=1,
        class_sizes={16: 1}, selfdual_count=0, min_nonzero_dist=16,
        formula_mismatches=0, spectral_checked=1,
    )
    assert not anti_selfdual_check(bad)

import itertools
import random

import pytest

from bentkit.boolfun import TruthTable
from bentkit.field import GF2k
from bentkit.spectral import dist_to_dual, dual, is_bent
from bentkit.spreads import (
    LINE_INFINITY,
    SpreadLine,
    desarguesian,
    dual_selection,
    is_selfdual_selection,
    line_dual,
    line_points,
    ps_general,
    ps_minus,
    ps_plus,
    psap_from_g,
    selection,
    selection_from_g,
    validate_subspace_family,
)

F4 = GF2k(2)
F8 = GF2k(3)

# the worked n=4 subspace family (point values, bitstrings read as ints)
E1 = [0b0001, 0b0100]
E2 = [0b0010, 0b1000]
E3 = [0b0011, 0b1101]
E4 = [0b0110, 0b1001]
E5 = [0b0111, 0b1011]


def all_selections(ctx, size):
    for combo in itertools.combinations(desarguesian(ctx), size):
        yield selection(ctx, combo)


def balanced_gs(k):
    for supp in itertools.combinations(range(1, 1 << k), 1 << (k - 1)):
        yield TruthTable.from_support(k, supp)


# ----------------------------------------------------------------------
# the spread itself
# ----------------------------------------------------------------------

def test_spread_size():
    assert len(desarguesian(F4)) == 5
    assert len(desarguesian(F8)) == 9


def test_spread_partitions_the_plane():
    for k in (2, 3, 4, 5):
        ctx = GF2k(k)
        lines = desarguesian(ctx)
        pts = [line_points(ctx, L) for L in lines]
        assert all(len(p) == 1 << k for p in pts)
        union = set().union(*pts)
        assert len(union) == 1 << (2 * k)
        # point-count identity (2^k + 1)(2^k - 1) + 1 = 2^2k
        assert ((1 << k) + 1) * ((1 << k) - 1) + 1 == 1 << (2 * k)


def test_lines_pairwise_meet_only_at_origin():
    for ctx in (F4, F8):
        lines = desarguesian(ctx)
        for a, b in itertools.combinations(lines, 2):
            assert line_points(ctx, a) & line_points(ctx, b) == {0}


def test_line_points_match_field_products():
    for k in range(1, 7):
        ctx = GF2k(k)
        for line in desarguesian(ctx):
            if line.is_infinity:
                want = {ctx.pack(0, y) for y in ctx.elements()}
            else:
                want = {ctx.pack(x, ctx.mul(x, line.a)) for x in ctx.elements()}
            assert line_points(ctx, line) == want


def test_line_points_examples():
    assert line_points(F4, SpreadLine(0)) == {0, 1, 2, 3}
    assert line_points(F4, LINE_INFINITY) == {0, 4, 8, 12}


# ----------------------------------------------------------------------
# line duality
# ----------------------------------------------------------------------

def test_line_dual_fixed_points_and_swap():
    assert line_dual(F4, SpreadLine(1)) == SpreadLine(1)
    assert line_dual(F4, SpreadLine(0)) == LINE_INFINITY
    assert line_dual(F4, LINE_INFINITY) == SpreadLine(0)
    assert line_dual(F4, SpreadLine(2)) == SpreadLine(3)  # w -> w^2


def test_line_dual_involution():
    for ctx in (F4, F8):
        for line in desarguesian(ctx):
            assert line_dual(ctx, line_dual(ctx, line)) == line


def annihilator(ctx, points):
    n = 2 * ctx.k
    return {
        q
        for q in range(1 << n)
        if all(
            ctx.trace_pairing(ctx.unpack(q), ctx.unpack(p)) == 0 for p in points
        )
    }


def test_line_dual_matches_trace_annihilator():
    for ctx in (F4, F8):
        for line in desarguesian(ctx):
            want = annihilator(ctx, line_points(ctx, line))
            assert set(line_points(ctx, line_dual(ctx, line))) == want


# ----------------------------------------------------------------------
# minus- and plus-type functions
# ----------------------------------------------------------------------

def test_ps_minus_shape_and_bentness_exhaustive():
    for ctx in (F4, F8):
        k, n = ctx.k, 2 * ctx.k
        count = 0
        for sel in all_selections(ctx, 1 << (k - 1)):
            f = ps_minus(sel)
            count += 1
            assert f[0] == 0
            assert f.weight() == (1 << (n - 1)) - (1 << (k - 1))
            assert is_bent(f)
        assert count == (10 if k == 2 else 126)


def test_ps_plus_shape_and_bentness_exhaustive():
    for ctx in (F4, F8):
        k, n = ctx.k, 2 * ctx.k
        for sel in all_selections(ctx, (1 << (k - 1)) + 1):
            f = ps_plus(sel)
            assert f[0] == 1
            assert f.weight() == (1 << (n - 1)) + (1 << (k - 1))
            assert is_bent(f)


def test_ps_dual_is_ps_of_dual_selection():
    for ctx in (F4, F8):
        for sel in all_selections(ctx, 1 << (ctx.k - 1)):
            assert dual(ps_minus(sel), pairing=ctx) == ps_minus(dual_selection(sel))
        for sel in all_selections(ctx, (1 << (ctx.k - 1)) + 1):
            assert dual(ps_plus(sel), pairing=ctx) == ps_plus(dual_selection(sel))


def transpose(f: TruthTable, k: int) -> TruthTable:
    """f(y, x): rows of the 2^k x 2^k grid (row y, column x) become columns."""
    grid = f.values().reshape(1 << k, 1 << k)
    return TruthTable.from_values(2 * k, grid.T.reshape(-1))


def test_trace_dual_of_spread_functions_is_the_transpose():
    # E_a^perp = E_{1/a} is E_a with x and y swapped, so dual(f)(x, y) = f(y, x)
    for k in (1, 2, 3):
        ctx = GF2k(k)
        for size, build in ((1 << (k - 1), ps_minus), ((1 << (k - 1)) + 1, ps_plus)):
            for sel in all_selections(ctx, size):
                f = build(sel)
                assert dual(f, pairing=ctx) == transpose(f, k)
    for k in (2, 3, 4):
        ctx = GF2k(k)
        for g in balanced_gs(k):
            f = psap_from_g(ctx, g)
            assert dual(f, pairing=ctx) == transpose(f, k)
    rng = random.Random(58)
    for ctx in (GF2k(5), GF2k(8)):
        lines = desarguesian(ctx)
        for _ in range(40):
            f = ps_minus(selection(ctx, rng.sample(lines, 1 << (ctx.k - 1))))
            assert dual(f, pairing=ctx) == transpose(f, ctx.k)


def test_ps_size_validation():
    sel = selection(F4, [SpreadLine(0)])
    with pytest.raises(ValueError):
        ps_minus(sel)
    with pytest.raises(ValueError):
        ps_plus(sel)
    with pytest.raises(ValueError):
        selection(F4, [SpreadLine(0), SpreadLine(0)])
    with pytest.raises(ValueError):
        selection(F4, [SpreadLine(7)])


def test_selection_canonical_order():
    sel = selection(F4, [LINE_INFINITY, SpreadLine(3), SpreadLine(0)])
    assert [str(L) for L in sel.lines] == ["0", "3", "inf"]


# ----------------------------------------------------------------------
# the quotient form
# ----------------------------------------------------------------------

def test_psap_specific_selection():
    g = TruthTable.from_support(2, [2, 3])  # supp {w, w^2}
    sel = selection_from_g(F4, g)
    assert set(sel.lines) == {SpreadLine(2), SpreadLine(3)}  # 1/w = w^2
    f = psap_from_g(F4, g)
    assert dist_to_dual(f, pairing=F4) == 0  # self-dual


def assert_quotient_form(ctx, g, f):
    """f(x, y) = g(x/y) at every point, from scalar field division."""
    for x in ctx.elements():
        for y in ctx.elements():
            assert f[ctx.pack(x, y)] == g[ctx.div0(x, y)]


def test_psap_equals_ps_minus_of_selection():
    for ctx in (F4, F8):
        for g in balanced_gs(ctx.k):
            f = psap_from_g(ctx, g)
            assert f == ps_minus(selection_from_g(ctx, g))
            assert_quotient_form(ctx, g, f)
            assert is_bent(f)
    rng = random.Random(19)
    for ctx in [GF2k(k) for k in (4, 5, 6)] + [GF2k(4, 0b11001)]:
        for _ in range(3):
            supp = rng.sample(range(1, ctx.order), ctx.order // 2)
            g = TruthTable.from_support(ctx.k, supp)
            f = psap_from_g(ctx, g)
            assert_quotient_form(ctx, g, f)
            assert is_bent(f)


def test_psap_selection_never_contains_e0_or_infinity():
    for ctx in (F4, F8):
        for g in balanced_gs(ctx.k):
            lines = set(selection_from_g(ctx, g).lines)
            assert SpreadLine(0) not in lines
            assert LINE_INFINITY not in lines
            assert len(lines) == 1 << (ctx.k - 1)


def test_psap_selfdual_iff_g_inversion_symmetric():
    for ctx in (F4, F8):
        for g in balanced_gs(ctx.k):
            symmetric = g[1] == 0 and all(
                g[u] == g[ctx.inv(u)] for u in ctx.nonzero()
            )
            selfdual = dist_to_dual(psap_from_g(ctx, g), pairing=ctx) == 0
            assert symmetric == selfdual


def test_psap_input_validation():
    with pytest.raises(ValueError):
        psap_from_g(F4, TruthTable.from_support(2, [0, 1]))  # g(0) = 1
    with pytest.raises(ValueError):
        psap_from_g(F4, TruthTable.from_support(2, [1]))  # unbalanced
    with pytest.raises(ValueError):
        psap_from_g(F4, TruthTable.from_support(3, [1, 2, 3, 4]))  # wrong arity


# ----------------------------------------------------------------------
# self-dual selections
# ----------------------------------------------------------------------

def test_selfdual_selection_examples():
    assert is_selfdual_selection(selection(F4, [SpreadLine(0), LINE_INFINITY]))
    assert is_selfdual_selection(selection(F4, [SpreadLine(2), SpreadLine(3)]))
    assert not is_selfdual_selection(selection(F4, [SpreadLine(1), SpreadLine(0)]))


def test_selection_with_unity_line_never_selfdual():
    for ctx in (F4, F8):
        for sel in all_selections(ctx, 1 << (ctx.k - 1)):
            if SpreadLine(1) in sel.lines:
                assert not is_selfdual_selection(sel)


def test_selfdual_selection_agrees_with_spectral_distance():
    for ctx in (GF2k(1), F4, F8):
        for sel in all_selections(ctx, 1 << (ctx.k - 1)):
            spectral = dist_to_dual(ps_minus(sel), pairing=ctx) == 0
            assert is_selfdual_selection(sel) == spectral


# ----------------------------------------------------------------------
# general subspace families
# ----------------------------------------------------------------------

def test_example_family_duality_structure():
    spans = validate_subspace_family(4, [E1, E2, E3, E4, E5])
    assert len(set().union(*map(set, spans))) == 16  # a full spread


def test_ps_general_examples():
    f1 = ps_general(4, [E1, E2])
    assert dist_to_dual(f1) == 0
    f2 = ps_general(4, [E3, E4])
    assert dist_to_dual(f2) == 6
    f3 = ps_general(4, [E1, E3])
    assert dist_to_dual(f3) == 12
    g1 = ps_general(4, [E1, E2, E4])
    assert dist_to_dual(g1) == 0
    g2 = ps_general(4, [E1, E2, E3])
    assert dist_to_dual(g2) == 6
    g3 = ps_general(4, [E1, E3, E4])
    assert dist_to_dual(g3) == 12


def test_ps_general_zero_point_convention():
    assert ps_general(4, [E1, E2])[0] == 0  # minus type
    assert ps_general(4, [E1, E2, E3])[0] == 1  # plus type


def test_ps_general_validation_errors():
    with pytest.raises(ValueError, match="share nonzero point"):
        ps_general(4, [E1, [0b0001, 0b0010]])
    with pytest.raises(ValueError, match="dimension"):
        ps_general(4, [E1, [0b0010]])
    with pytest.raises(ValueError, match="dependent"):
        ps_general(4, [[1, 2], [3, 12, 15]])
    with pytest.raises(ValueError, match="family size"):
        ps_general(4, [E1, E2, E3, E4])

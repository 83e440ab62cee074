import itertools
import random
import tracemalloc

import pytest

from bentkit.analysis import dist_formula_general, dist_formula_ps_minus
from bentkit.boolfun import TruthTable, subspace_span
from bentkit.field import DEFAULT_POLYS, GF2k
from bentkit.spectral import dist_to_dual, dual, is_bent
from bentkit.spreads import (
    LINE_INFINITY,
    SpreadLine,
    SpreadSelection,
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
from oracles import (
    field_mul_oracle,
    inv_oracle,
    reduce_basis,
    spread_table_reference,
    trace_oracle,
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
                want = {y << k for y in ctx.elements()}
            else:
                want = {x | field_mul_oracle(x, line.a, ctx.poly) << k for x in ctx.elements()}
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


@pytest.mark.parametrize("k", sorted(DEFAULT_POLYS))
def test_line_dual_and_dual_selection_match_scalar_inversion(k):
    # E_a -> E_{1/a} by the extended Euclidean inverse, E_0 <-> inf
    ctx = GF2k(k)

    def scalar_dual(line):
        if line.is_infinity:
            return SpreadLine(0)
        return LINE_INFINITY if line.a == 0 else SpreadLine(inv_oracle(line.a, ctx.poly))

    lines = desarguesian(ctx)
    want = {L: scalar_dual(L) for L in lines}
    assert [line_dual(ctx, L) for L in lines] == list(want.values())
    rng = random.Random(k)
    for _ in range(5):
        sel = selection(ctx, rng.sample(lines, rng.randint(0, len(lines))))
        assert dual_selection(sel) == selection(ctx, map(want.get, sel.lines))
    with pytest.raises(ValueError, match="outside"):
        line_dual(ctx, SpreadLine(ctx.order))


def annihilator(ctx, points):
    """The points q with Tr(q0 p0) + Tr(q1 p1) = 0 for every p in `points`,
    from the field oracles."""
    k = ctx.k

    def pairing(q, p):
        return sum(
            trace_oracle(field_mul_oracle(q >> s & ctx.mask, p >> s & ctx.mask, ctx.poly), ctx.poly)
            for s in (0, k)
        ) & 1

    return {q for q in range(1 << (2 * k)) if all(pairing(q, p) == 0 for p in points)}


def test_line_dual_matches_trace_annihilator():
    for ctx in (F4, F8):
        for line in desarguesian(ctx):
            want = annihilator(ctx, line_points(ctx, line))
            assert set(line_points(ctx, line_dual(ctx, line))) == want


# ----------------------------------------------------------------------
# minus- and plus-type functions
# ----------------------------------------------------------------------

def matches_reference(f, sel, plus):
    """f against the pointwise scalar spread-table reference of sel."""
    cols = [sel.ctx.order if L.is_infinity else L.a for L in sel.lines]
    return (f.values() == spread_table_reference(sel.ctx, cols, plus)).all()


def test_ps_minus_shape_and_bentness_exhaustive():
    for ctx in (F4, F8):
        k, n = ctx.k, 2 * ctx.k
        count = 0
        for sel in all_selections(ctx, 1 << (k - 1)):
            f = ps_minus(sel)
            assert matches_reference(f, sel, False)
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
            assert matches_reference(f, sel, True)
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


@pytest.mark.parametrize("a", [8, 99, -1])
def test_out_of_range_lines_fail_in_every_call(a):
    # one range check for every call that reads lines; a hand-built
    # selection that never went through selection() fails in its constructor
    bad = SpreadLine(a)
    for call in (
        lambda: line_points(F8, bad),
        lambda: line_dual(F8, bad),
        lambda: selection(F8, [bad, bad]),  # the range check comes first
        lambda: SpreadSelection(F8, (bad, SpreadLine(1), SpreadLine(2), SpreadLine(3))),
    ):
        with pytest.raises(ValueError, match=rf"^line element {a} outside GF\(2\^3\)$"):
            call()


def test_hand_built_selections_are_checked_and_canonical():
    # a repeated line would give a table that is not bent
    with pytest.raises(ValueError, match="^selection contains duplicate lines$"):
        SpreadSelection(F8, (SpreadLine(1), SpreadLine(1), SpreadLine(2), SpreadLine(3)))
    lines = (LINE_INFINITY, SpreadLine(5), SpreadLine(2), SpreadLine(3))
    sel = SpreadSelection(F8, lines)
    assert sel == selection(F8, lines) == selection(F8, reversed(lines))
    assert [str(L) for L in sel.lines] == ["2", "3", "5", "inf"]
    assert sel.cols.tolist() == [2, 3, 5, 8]
    with pytest.raises(ValueError):
        sel.cols[0] = 1
    assert hash(sel) == hash(selection(F8, lines))


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
    """f(x, y) = g(x/y) at every point, x/0 = 0, from the field oracles."""
    for x in ctx.elements():
        for y in ctx.elements():
            quotient = field_mul_oracle(x, inv_oracle(y, ctx.poly), ctx.poly) if y else 0
            assert f[x | y << ctx.k] == g[quotient]


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
                g[u] == g[inv_oracle(u, ctx.poly)] for u in ctx.nonzero()
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


@pytest.mark.parametrize(
    "bases, message",
    [
        # a dependent basis of k vectors before a basis of the wrong dimension
        ([[3, 3], [2]], "subspace 0: basis is linearly dependent"),
        ([E1, [1, 2, 3]], "subspace 1: basis is linearly dependent"),
        ([E1, [0b0010]], "subspace 1: dimension 1 != k = 2"),
        # shape and range pass; the distinctness count fails on the dependent
        # basis, which is named before the pair that shares a point
        ([E1, [0b0001, 0b0010], [0b1000, 0b1000]], "subspace 2: basis is linearly dependent"),
        ([E1, [0b0001, 0b0010], E2], "subspaces 0 and 1 share nonzero point 1"),
        ([[0, 1], E2], "subspace 0: basis is linearly dependent"),
        ([E1, [2, 16]], "subspace 1: vector 16 out of range"),
        ([E1, [2, -8]], "subspace 1: vector -8 out of range"),
        ([[1 << 63, 1], E2], f"subspace 0: vector {1 << 63} out of range"),
        ([E1, [2, 1 << 70]], f"subspace 1: vector {1 << 70} out of range"),
        ([[1 << 70, 1 << 70], [2]], "subspace 0: basis is linearly dependent"),
    ],
)
def test_family_errors_keep_the_per_subspace_order(bases, message):
    for check in (validate_subspace_family, ps_general):
        with pytest.raises(ValueError) as exc:
            check(4, bases)
        assert str(exc.value) == message


@pytest.mark.parametrize("bases", [[[0]], [[0], [1]], [[1], [0]]])
def test_a_zero_basis_at_n2_is_dependent(bases):
    # at k = 1 the span of [0] is [0, 0]: no nonzero point repeats, and only
    # the origin at a nonzero index shows the dependence
    i = bases.index([0])
    for check in (validate_subspace_family, ps_general, dist_formula_general):
        with pytest.raises(ValueError) as exc:
            check(2, bases)
        assert str(exc.value) == f"subspace {i}: basis is linearly dependent"


def _pairwise_first_share(bases):
    """The pairwise intersection loop over the spans: the message for the
    first pair i < j that shares a nonzero point, or None."""
    spans = [set(subspace_span(b)) for b in bases]
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            shared = (spans[i] & spans[j]) - {0}
            if shared:
                return f"subspaces {i} and {j} share nonzero point {min(shared)}"
    return None


def test_family_disjointness_matches_the_pairwise_loop():
    # seeded families: field-spread lines (pairwise disjoint) in random
    # order, some of them replaced by random subspaces that may overlap
    rng = random.Random(77)
    outcomes = set()
    for _ in range(300):
        k = rng.choice((2, 3, 4))
        n, ctx = 2 * k, GF2k(k)
        bases = [[(1 << i) | (field_mul_oracle(1 << i, a, ctx.poly) << k) for i in range(k)]
                 for a in ctx.elements()] + [[1 << (k + i) for i in range(k)]]
        rng.shuffle(bases)
        bases = bases[:rng.randint(2, len(bases))]
        for _ in range(rng.choice((0, 1, 1, 2))):
            basis = []
            while len(basis) < k:
                v = rng.randrange(1, 1 << n)
                if len(reduce_basis(basis + [v])) > len(basis):
                    basis.append(v)
            bases[rng.randrange(len(bases))] = basis
        want = _pairwise_first_share(bases)
        outcomes.add(want is None)
        if want is None:
            assert validate_subspace_family(n, bases) == [subspace_span(b) for b in bases]
        else:
            with pytest.raises(ValueError) as exc:
                validate_subspace_family(n, bases)
            assert str(exc.value) == want
    assert outcomes == {True, False}


def test_ps_general_runs_a_half_field_spread_at_k10():
    ctx = GF2k(10)
    bases = [[(1 << i) | (field_mul_oracle(1 << i, a, ctx.poly) << 10) for i in range(10)]
             for a in range(512)]
    f = ps_general(20, bases)
    assert f.weight() == 512 * 1023 and f[0] == 0


def test_spread_tables_above_k12_fail_before_any_table():
    # GF(2^13) exists, but n = 26 is out of range: each builder raises
    # before the 2^26-point table and its line index (~350 MB) are made
    ctx = GF2k(13, 0x201B)
    sel = selection(ctx, [SpreadLine(a) for a in range(1 << 12)])
    g = TruthTable.from_support(13, range(1, (1 << 12) + 1))
    for build in (
        lambda: ps_minus(sel),
        lambda: psap_from_g(ctx, g),
        lambda: dist_formula_ps_minus(sel),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^variable count must be in 2\.\.24, got 26$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

import functools
import itertools
import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bentkit.analysis
import bentkit.cli
from bentkit.analysis import (
    CensusReport,
    _spread_dist_formula,
    _census_report,
    _check_charsum,
    _check_selfdual_counts,
    _exhaustive_census,
    _psap_rows,
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
    run_verification_suite,
    selfdual_counts,
    symmetric_report,
)
from bentkit.boolfun import (
    TruthTable,
    mm_bent,
    subspace_span,
    symmetric_bent,
)
from bentkit.field import GF2k
from bentkit.golden import REFERENCE_CENSUS, REFERENCE_DISTRIBUTION
from bentkit.spectral import (
    NotBentError,
    _exact_div,
    _stack_distances,
    _stack_identities,
    _transform_input,
    dist_to_dual,
    rayleigh,
    wht,
)
from bentkit.spreads import (
    LINE_INFINITY,
    SpreadLine,
    _selection_tables,
    _unmatched_counts,
    desarguesian,
    is_selfdual_selection,
    line_points,
    ps_general,
    ps_minus,
    ps_plus,
    psap_from_g,
    selection,
    selection_from_g,
)
from oracles import (
    field_mul_oracle,
    gram_map_oracle,
    inv_oracle,
    reduce_basis,
    reference_spectrum,
    spread_table_reference,
    trace_oracle,
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
# form2 by the derivative route: the O(4^n) oracle for the Rayleigh form
# ----------------------------------------------------------------------

def _derivative_sums(f, pairing):
    """Sum the spectra of all 2^n directional derivatives D_u f at their
    paired point Pu, over the whole domain and over its anisotropic half
    {x : <x, x> = 1}.  Returns (total, anisotropic sum, anisotropic mask).

    The paired point comes pointwise from `gram_map_oracle` and parities from
    int.bit_count, independent of the spectral layer's grid re-index."""
    fv = f.values()
    xs = np.arange(f.size, dtype=np.int64)
    par = np.array([x.bit_count() & 1 for x in range(f.size)], dtype=np.uint8)
    if pairing is None:
        aniso = par.astype(bool)  # odd-weight points
    else:
        tr = np.array([trace_oracle(a, pairing.poly) for a in range(pairing.order)], dtype=np.uint8)
        aniso = (tr[xs & pairing.mask] ^ tr[xs >> pairing.k]).astype(bool)

    deriv_total = 0
    deriv_aniso = 0
    for u in range(f.size):
        dv = fv ^ fv[xs ^ u]
        pu = u if pairing is None else gram_map_oracle(pairing, u)
        chi = par[xs & pu]
        s = 1 - 2 * (dv ^ chi).astype(np.int64)
        deriv_total += int(s.sum())
        deriv_aniso += int(s[aniso].sum())
    return deriv_total, deriv_aniso, aniso


def _form2_by_derivatives(f, pairing, sums=None):
    """(form2, corollary residual) of f by the derivative route."""
    n, k = f.n, f.n // 2
    deriv_total, deriv_aniso, _ = sums or _derivative_sums(f, pairing)
    spec = reference_spectrum(f, pairing)
    supp_sum = int(spec[f.values().astype(bool)].sum())
    sign0 = -1 if f[0] else 1
    form2 = (
        (1 << (n - 1))
        - _exact_div(deriv_total, 1 << (k + 1), "derivative spectrum sum")
        + _exact_div(deriv_aniso, 1 << k, "restricted derivative sum")
    )
    residual = 2 * supp_sum + deriv_total - 2 * deriv_aniso - sign0 * (1 << n)
    return form2, residual


def _derivative_oracle_corpus():
    """(f, pairing): every k = 3 ps- and ps+ under the trace pairing, every
    symmetric bent at n = 4..10, and seeded MM bents at n = 4..10 under the
    standard and the trace pairing."""
    for size in (4, 5):
        for sel in all_selections(F8, size):
            yield (ps_minus if size == 4 else ps_plus)(sel), F8
    for n in range(4, 11, 2):
        for e1, e2 in itertools.product((0, 1), repeat=2):
            yield symmetric_bent(n, e1, e2), None
    rng = random.Random(4242)
    for n in range(4, 11, 2):
        k = n // 2
        for pairing in (None, GF2k(k)):
            for _ in range(3):
                pi = list(range(1 << k))
                rng.shuffle(pi)
                yield mm_bent(pi, TruthTable(k, rng.getrandbits(1 << k))), pairing


def test_form2_and_residual_match_the_derivative_oracle():
    plus_type = 0
    for f, pairing in _derivative_oracle_corpus():
        res = metric_identity_check(f, pairing)
        sums = _derivative_sums(f, pairing)
        assert (res.form2, res.corollary_residual) == _form2_by_derivatives(
            f, pairing, sums
        )
        assert res.consistent
        plus_type += f[0]

        # The collapse: with P symmetric, the derivative sums are
        # sum_x (-1)^(f(x) + q(x)) W(x) with q(x) = <x, x>, so the
        # anisotropic one is -sum_{q(x) = 1} (-1)^f(x) W(x).
        deriv_total, deriv_aniso, aniso = sums
        if pairing is None:
            q = np.array([x.bit_count() & 1 for x in range(f.size)], dtype=bool)
        else:
            # <x, x> = Tr(x0 x0) + Tr(x1 x1) for x = (x0, x1)
            sq = [trace_oracle(field_mul_oracle(a, a, pairing.poly), pairing.poly)
                  for a in range(pairing.order)]
            q = np.array(
                [sq[x & pairing.mask] ^ sq[x >> pairing.k] for x in range(f.size)],
                dtype=bool,
            )
        assert np.array_equal(q, aniso)
        signed = (1 - 2 * f.values().astype(np.int64)) * reference_spectrum(f, pairing)
        assert deriv_total == int(np.where(q, -signed, signed).sum())
        assert deriv_aniso == -int(signed[q].sum())
    assert plus_type  # the residual's (-1)^f(0) term is exercised


# ----------------------------------------------------------------------
# the metric-identity stack, row by row
# ----------------------------------------------------------------------

def _identity_stacks():
    """(functions, pairing) stacks: every k = 3 ps- and ps+ function under
    the trace pairing, the four symmetric bents at each n = 4..12, and the
    verify battery's seeded MM bents at n = 6, 8 under both pairings."""
    for size, build in ((4, ps_minus), (5, ps_plus)):
        yield [build(sel) for sel in all_selections(F8, size)], F8
    for n in range(4, 13, 2):
        yield [symmetric_bent(n, e1, e2) for e1, e2 in itertools.product((0, 1), repeat=2)], None
    rng = random.Random(2024)
    for n in (6, 8):
        k = n // 2
        fs = []
        for _ in range(25):
            pi = list(range(1 << k))
            rng.shuffle(pi)
            fs.append(mm_bent(pi, TruthTable(k, rng.getrandbits(1 << k))))
        yield fs, None
        yield fs, GF2k(k)


def test_stack_identities_match_the_int64_reference_row_by_row():
    # The sign bits of the int64 reference spectrum are the dual, the
    # Hamming distance to them is the distance every form must give, and
    # the residual is zero; form2 and the residual also match the
    # derivative oracle.
    rows_checked = 0
    for fs, pairing in _identity_stacks():
        tables = np.array([f.values() for f in fs])
        duals = np.empty(tables.shape, dtype=bool)
        stacked = _stack_identities(tables, pairing, duals)
        for f, t, row, d in zip(fs, tables, stacked.tolist(), duals):
            ref_dual = reference_spectrum(f, pairing) < 0
            dist = int(np.count_nonzero(t != ref_dual))
            assert row == [dist, dist, dist, 0]
            assert np.array_equal(d, ref_dual)
            assert (row[2], row[3]) == _form2_by_derivatives(f, pairing)
            rows_checked += 1
    assert rows_checked == 126 + 126 + 20 + 100


def _k3_minus_tables():
    return _selection_tables(F8, np.array(list(itertools.combinations(range(9), 4))))


def test_stack_identities_are_the_same_in_chunks(monkeypatch):
    tables = _k3_minus_tables()
    whole_duals = np.empty(tables.shape, dtype=bool)
    whole = _stack_identities(tables, F8, whole_duals)
    calls = []
    fwht = bentkit.spectral._fwht

    def counting_fwht(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    monkeypatch.setattr(bentkit.spectral, "_STACK", 5 << 6)  # 5 rows of n = 6
    duals = np.empty(tables.shape, dtype=bool)
    assert np.array_equal(_stack_identities(tables, F8, duals), whole)
    assert np.array_equal(duals, whole_duals)
    assert calls == [(5, 64)] * 25 + [(1, 64)]


def test_stack_identities_name_the_planted_row_and_its_first_bad_point(monkeypatch):
    tables = _k3_minus_tables()
    tables[101, 2] ^= 1  # a later bad row in the same chunk
    tables[100, 37] ^= 1
    flipped = TruthTable.from_values(6, tables[100])
    spec = wht(flipped, F8).values
    u = int(np.flatnonzero(np.abs(spec) != 8)[0])
    later = wht(TruthTable.from_values(6, tables[101]), F8).values
    assert later[u] != spec[u]  # the witness tells the two rows apart
    with pytest.raises(NotBentError) as single:
        metric_identity_check(flipped, F8)
    assert (single.value.u, single.value.value) == (u, int(spec[u]))
    for stack in (1 << 24, 8 << 6):  # one chunk, or the rows in the 13th of 16
        monkeypatch.setattr(bentkit.spectral, "_STACK", stack)
        with pytest.raises(NotBentError) as exc:
            _stack_identities(tables, F8)
        assert (exc.value.u, exc.value.value) == (u, int(spec[u]))


def _spectra_of(spec):
    """A stand-in for the checked-spectrum core that yields `spec` as the
    one chunk, unchecked."""
    return lambda tables, pairing, bent=True: iter([(0, tables, spec)])


@pytest.mark.parametrize("in_support, what, step, divisor", [
    (True, "support spectrum sum", 1, 4),
    (False, "Rayleigh sum", 4, 8),
])
def test_stack_identities_assert_each_rows_divisions(
    monkeypatch, in_support, what, step, divisor
):
    # a flat spectrum always divides; a spectrum that slipped past the core's
    # checks with one entry off in row 1 must still trip that row's division
    f = X1X3_X2X4.values()
    tables = np.array([f, f, f])
    spec = np.array([wht(X1X3_X2X4).values] * 3, dtype=np.int64)
    u = int(np.flatnonzero(f == in_support)[0])
    spec[1, u] += step
    weights = f if in_support else 1 - 2 * f.astype(np.int64)  # support sum, or S
    value = int((weights * spec[1]).sum())
    monkeypatch.setattr(bentkit.spectral, "_spectra", _spectra_of(spec))
    message = f"^{what} = {value} is not divisible by {divisor}$"
    with pytest.raises(AssertionError, match=message):
        _stack_identities(tables, None)


def _broken_spectrum():
    """Two rows of the spectrum of X1X3_X2X4, the second with W off by
    2^(k+1) at one point outside the support, which passes both divisions."""
    spec = np.array([wht(X1X3_X2X4).values] * 2, dtype=np.int64)
    spec[1, int(np.flatnonzero(X1X3_X2X4.values() == 0)[0])] += 8
    return spec


def test_stack_identities_read_a_broken_spectrum_into_form2_and_the_residual(monkeypatch):
    # form2 and the residual must show the broken row, direct and form1 not
    f = X1X3_X2X4.values()
    monkeypatch.setattr(bentkit.spectral, "_spectra", _spectra_of(_broken_spectrum()))
    good, bad = _stack_identities(np.array([f, f]), None).tolist()
    assert good == [0, 0, 0, 0]
    assert bad == [0, 0, -1, 8]
    assert not bentkit.analysis.MetricIdentity(*bad).consistent


def test_distances_name_the_row_whose_spectral_distance_misses_the_direct_one(monkeypatch):
    # the broken spectrum fed past the core: the one spectral-vs-direct
    # assertion names the row, in a stack and in the one-row case
    f = X1X3_X2X4.values()
    spec = _broken_spectrum()
    message = "^row {}: spectral distance -1 != direct distance 0$"
    monkeypatch.setattr(bentkit.spectral, "_spectra", _spectra_of(spec))
    with pytest.raises(AssertionError, match=message.format(1)):
        _stack_distances(_stack_identities(np.array([f, f]), None))
    monkeypatch.setattr(bentkit.spectral, "_spectra", _spectra_of(spec[1:]))
    for call in (dist_to_dual, rayleigh, bentkit.spectral.duality_class):
        with pytest.raises(AssertionError, match=message.format(0)):
            call(X1X3_X2X4)


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


def _field_spread_bases(ctx):
    """Bases of the 2^k + 1 Desarguesian lines, infinity last."""
    k = ctx.k
    return [[(1 << i) | (field_mul_oracle(1 << i, a, ctx.poly) << k) for i in range(k)]
            for a in ctx.elements()] + [[1 << (k + i) for i in range(k)]]


def _image(images, v):
    """v under the linear map sending point 2^i to images[i]."""
    out = 0
    for i, image in enumerate(images):
        if v >> i & 1:
            out ^= image
    return out


def test_dist_formula_general_matches_the_spectral_distance():
    # seeded disjoint families: field-spread lines through a random invertible
    # linear map of F_2^n, so the dual lines are no longer field lines, of
    # both minus and plus size; the n = 20 half field spread
    rng = random.Random(1414)
    cases = []
    for n in (6, 8, 10, 12):
        k = n // 2
        for plus in (False, True):
            for _ in range(3):
                images = []
                while len(images) < n:
                    v = rng.randrange(1, 1 << n)
                    if len(reduce_basis(images + [v])) > len(images):
                        images.append(v)
                lines = rng.sample(_field_spread_bases(GF2k(k)), (1 << (k - 1)) + plus)
                moved = [[_image(images, v) for v in basis] for basis in lines]
                cases.append((n, moved))
    cases.append((20, _field_spread_bases(GF2k(10))[:512]))
    dists = set()
    for n, bases in cases:
        d = dist_formula_general(n, bases)
        assert d == dist_to_dual(ps_general(n, bases))
        dists.add(d)
    assert len(dists) > 10


def annihilator_scan(n, points):
    """Annihilator under the standard dot product, by brute force over F_2^n."""
    return [
        y
        for y in range(1 << n)
        if all(((y & p).bit_count() & 1) == 0 for p in points)
    ]


def test_dual_subspace_points_matches_brute_force_scan():
    rng = random.Random(679)
    for n in range(4, 11):
        cases = [[], [0], list(range(1 << n))]
        for _ in range(8):
            dim = rng.randint(1, n)
            basis = reduce_basis(rng.randrange(1, 1 << n) for _ in range(dim))
            cases += [basis, subspace_span(basis)]
        for points in cases:
            got = dual_subspace_points(n, points)
            assert sorted(got) == annihilator_scan(n, points)
            assert got[0] == 0


def _annihilator_per_basis(n, points):
    """The annihilator basis one set at a time: `reduce_basis`, then e_j plus
    the pivots of the vectors with bit j set, for each non-pivot bit j."""
    basis = reduce_basis(points)
    pivots = [b.bit_length() - 1 for b in basis]
    return [
        (1 << j) | sum(1 << p for p, b in zip(pivots, basis) if (b >> j) & 1)
        for j in range(n)
        if j not in pivots
    ]


@pytest.mark.parametrize("n", range(4, 25))
def test_batched_annihilators_match_the_per_basis_route(n):
    # seeded families of equal-rank point sets: independent vectors, then
    # sums of them and zeros mixed in, in a shuffled order
    rng = random.Random(1000 + n)
    for dim in sorted({0, 1, n // 2, n - 1, n, rng.randint(1, n)}):
        family = []
        for _ in range(12):
            basis = []
            while len(basis) < dim:
                v = rng.randrange(1, 1 << n)
                if len(reduce_basis(basis + [v])) > len(basis):
                    basis.append(v)
            points = basis + [0, 0, 0]
            if dim:  # two of the zeros become sums of basis vectors
                points[-2:] = [
                    functools.reduce(lambda a, b: a ^ b, rng.sample(basis, rng.randint(1, dim)))
                    for _ in range(2)
                ]
            rng.shuffle(points)
            family.append(points)
        got = bentkit.analysis._annihilator_bases(n, family)
        assert got.shape == (len(family), n - dim)
        for points, row in zip(family, got.tolist()):
            assert row == _annihilator_per_basis(n, points)
        # the one-set case behind dual_subspace_points (its span has 2^(n - dim) points)
        if n - dim <= 16:
            want = bentkit.boolfun._linear_index_map(_annihilator_per_basis(n, family[0]))
            assert dual_subspace_points(n, family[0]) == want.tolist()


def test_dual_subspace_points_matches_known_duality():
    span3 = sorted(dual_subspace_points(4, [0b0011, 0b1101]))
    from bentkit.boolfun import subspace_span

    assert span3 == sorted(subspace_span(E5))  # E3 and E5 are dual
    assert sorted(dual_subspace_points(4, E4)) == sorted(subspace_span(E4))
    # the annihilator of a span is the annihilator of any basis of it
    rng = random.Random(678)
    for n in (6, 7, 8):
        for _ in range(10):
            dim = rng.randint(1, n)
            basis = reduce_basis(rng.randrange(1, 1 << n) for _ in range(dim))
            assert dual_subspace_points(n, basis) == dual_subspace_points(
                n, subspace_span(basis)
            )


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


def test_every_selection_reader_gives_the_one_size_message():
    sel = selection(F8, [SpreadLine(0), SpreadLine(1), LINE_INFINITY])
    for read in (ps_minus, dist_formula_ps_minus, nf_formula, intersection_index,
                 is_selfdual_selection):
        with pytest.raises(ValueError, match=r"^ps_minus needs 4 lines, got 3$"):
            read(sel)
    for read in (ps_plus, dist_formula_ps_plus):
        with pytest.raises(ValueError, match=r"^ps_plus needs 5 lines, got 3$"):
            read(sel)


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


def test_counting_formula_matches_spectra_at_k7_to_9():
    rng = random.Random(97)
    for k in (7, 8, 9):
        ctx = GF2k(k)
        lines = desarguesian(ctx)
        for size, build, formula in (
            (1 << (k - 1), ps_minus, dist_formula_ps_minus),
            ((1 << (k - 1)) + 1, ps_plus, dist_formula_ps_plus),
        ):
            sel = selection(ctx, rng.sample(lines, size))
            assert formula(sel) == dist_to_dual(build(sel), pairing=ctx)


@functools.cache
def trace_dual_by_annihilator(k: int) -> dict:
    """Each spread line of GF2k(k) mapped to the spread line whose points are
    the trace annihilator of its points; the pairing comes from the field
    oracles."""
    ctx = GF2k(k)
    tr = np.array(
        [[trace_oracle(field_mul_oracle(a, b, ctx.poly), ctx.poly) for b in ctx.elements()]
         for a in ctx.elements()],
        dtype=np.uint8,
    )
    by_points = {line_points(ctx, L): L for L in desarguesian(ctx)}
    dual_of = {}
    for pts, line in by_points.items():
        # grid row y', column x' is the packed point x' + 2^k y'
        zero = np.ones((ctx.order, ctx.order), dtype=bool)
        for p in pts:
            x, y = p & ctx.mask, p >> k
            zero &= (tr[y][:, None] ^ tr[x][None, :]) == 0
        dual_of[line] = by_points[frozenset(np.flatnonzero(zero).tolist())]
    return dual_of


@settings(deadline=None)
@given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_counting_layer_matches_spectra_on_seeded_selections(k, seed):
    ctx = GF2k(k)
    lines = random.Random(seed).sample(desarguesian(ctx), 1 << (k - 1))
    sel = selection(ctx, lines)
    f = ps_minus(sel)
    _, n_f = rayleigh(f, pairing=ctx)
    d = dist_to_dual(f, pairing=ctx)
    assert nf_formula(sel) == n_f
    assert is_selfdual_selection(sel) == (d == 0)
    assert dist_formula_ps_minus(sel) == d
    dual_of = trace_dual_by_annihilator(k)
    matched = sum(dual_of[L] in sel.lines for L in sel.lines)
    assert intersection_index(sel) == (SpreadLine(1) in sel.lines, matched)


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
    assert a.spectral_checked == 7  # draws 0-4, 25 and 50
    c = census(ctx, mode="sample", samples=60, seed=8)
    assert c.seed == 8


def _closed_form_class_sizes(k: int, big_p: int) -> dict[int, int]:
    """Class sizes of the 2^(k-1)-line selections among E_1 and P dual
    pairs: with e = [E_1 selected] and p = (2^(k-1) - e - h)/2 whole pairs,
    h unmatched lines occur in C(P, p) C(P - p, h) 2^h selections, at
    distance h (2^(k+1) - 2).  PS- has P = 2^(k-1); the quotient forms lack
    the pair {E_0, inf}, so P = 2^(k-1) - 1."""
    size = 1 << (k - 1)
    sizes = {}
    for h in range(big_p + 1):
        e = (size - h) % 2
        p = (size - e - h) // 2
        sizes[h * ((1 << (k + 1)) - 2)] = comb(big_p, p) * comb(big_p - p, h) * 2**h
    return sizes


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exhaustive_class_sizes_match_the_closed_form(k):
    rep = census(GF2k(k))
    assert rep.class_sizes == _closed_form_class_sizes(k, 1 << (k - 1))
    assert rep.formula_mismatches == 0
    assert rep.spectral_checked == rep.total_selections == comb((1 << k) + 1, 1 << (k - 1))
    if k == 4:
        assert rep.class_sizes == {
            0: 70, 30: 560, 60: 2240, 90: 4480, 120: 6720,
            150: 5376, 180: 3584, 210: 1024, 240: 256,
        }


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_plus_census_has_the_minus_class_sizes(k):
    # the complement of a minus selection is a plus selection with the same
    # h, so the plus census, every row checked, has the minus classes
    ctx = GF2k(k)
    stack = _exhaustive_census(ctx, width=(1 << (k - 1)) + 1)
    rep = _census_report(stack)
    assert (_selection_tables(ctx, stack.cols)[:, 0] == 1).all()  # plus tables keep the origin
    assert rep.class_sizes == census(ctx).class_sizes
    assert rep.formula_mismatches == 0
    assert rep.spectral_checked == rep.total_selections == comb((1 << k) + 1, (1 << (k - 1)) + 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_rows_match_the_single_function_path(data):
    # stacks of hypothesis-drawn selections against ps_minus / ps_plus,
    # dist_to_dual and the counting forms, one selection at a time; the
    # tables of both paths against the pointwise scalar reference
    k = data.draw(st.integers(2, 5), label="k")
    plus = data.draw(st.booleans(), label="plus")
    ctx = GF2k(k)
    size = (1 << (k - 1)) + plus
    line = st.integers(0, ctx.order)
    rows = data.draw(st.lists(
        st.lists(line, min_size=size, max_size=size, unique=True),
        min_size=1, max_size=5,
    ), label="rows")
    cols = np.array(rows, dtype=np.int64)
    tables = _selection_tables(ctx, cols)
    dists = _stack_distances(_stack_identities(tables, ctx))
    formula = _spread_dist_formula(tables)
    build, counting = (ps_plus, dist_formula_ps_plus) if plus else (ps_minus, dist_formula_ps_minus)
    for row, table, d, d_formula in zip(rows, tables, dists, formula):
        sel = selection(ctx, [SpreadLine(None if c == ctx.order else c) for c in row])
        f = build(sel)
        assert np.array_equal(f.values(), table)
        ref = spread_table_reference(ctx, row, plus)
        assert np.array_equal(table, ref) and np.array_equal(f.values(), ref)
        assert d == d_formula == dist_to_dual(f, pairing=ctx) == counting(sel)
    # a plus selection has the h of its complement, a minus selection
    h = _unmatched_counts(ctx, cols)
    assert (dists == h * ((1 << (k + 1)) - 2)).all()


def test_census_fails_on_a_planted_bit_flip(monkeypatch):
    # a flipped bit in one row of the census stack is an error, never a class
    build = bentkit.analysis._selection_tables

    def planted(ctx, cols):
        tables = build(ctx, cols)
        tables[len(tables) // 2, 5] ^= 1
        return tables

    monkeypatch.setattr(bentkit.analysis, "_selection_tables", planted)
    for mode, samples in (("exhaustive", None), ("sample", 40)):
        with pytest.raises(NotBentError):
            census(F8, mode=mode, samples=samples)


def test_census_mode_caps():
    with pytest.raises(ValueError):
        census(GF2k(5), mode="exhaustive")
    with pytest.raises(ValueError):
        census(GF2k(8), mode="sample", samples=5)
    with pytest.raises(ValueError):
        census(F4, mode="sample")  # missing sample count
    with pytest.raises(ValueError):
        census(F4, mode="bogus")


def test_sample_count_cap_is_checked_before_any_allocation():
    # 10^11 draws would need an 800 GB index array: a MemoryError, not this
    for k, samples in ((4, 10**11), (2, bentkit.analysis._SAMPLE_COUNT_MAX + 1)):
        with pytest.raises(ValueError, match="sample census is capped at 100000 samples"):
            census(GF2k(k), mode="sample", samples=samples)
    bentkit.analysis._census_size_check("sample", 7, bentkit.analysis._SAMPLE_COUNT_MAX)
    # exhaustive mode reads no sample count
    assert census(F4, mode="exhaustive", samples=10**11).total_selections == 10


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


@pytest.mark.parametrize("k", [-1, 0, 1, 13, 10**6])
def test_selfdual_k_outside_2_to_12_fails_fast(k):
    for fn in (selfdual_counts, balanced_g_functions):
        with pytest.raises(ValueError, match=f"need k in 2..12, got {k}"):
            fn(k)


def test_selfdual_counts_at_k12_are_the_binomials():
    assert selfdual_counts(12) == (comb(2048, 1024), comb(2047, 1024))
    assert next(iter(balanced_g_functions(12))).support() == list(range(1, 2049))


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


def test_kloosterman_needs_g_on_k_variables():
    with pytest.raises(ValueError, match="^g must be on k=3 variables, got 2$"):
        kloosterman_sum(F8, TruthTable(2, 0))


def test_kloosterman_inversion_symmetric_g():
    g = TruthTable.from_support(2, [2, 3])
    assert kloosterman_sum(F4, g) == (3, 4)


def test_kloosterman_trace_matches_direct_sum():
    tr = [trace_oracle(u, F8.poly) for u in range(8)]
    g = TruthTable.from_values(3, tr)
    direct = sum((-1) ** (tr[u] ^ tr[inv_oracle(u, F8.poly)]) for u in range(1, 8))
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


def test_quotient_stack_matches_the_single_function_path():
    # the rows the verify battery reads N from, the quotient-form rows of the
    # minus census, are one row per balanced g: each masked row is psap_from_g
    # of exactly one g, and every g has its row
    for ctx in (F4, F8):
        stack = _exhaustive_census(ctx)
        rows = _psap_rows(stack)
        cols, dists = stack.cols[rows], stack.dists[rows]
        assert (dists == _stack_distances(stack.identities[rows])).all()
        gs = {tuple(g.support()): g for g in balanced_g_functions(ctx.k)}
        # the columns 1/u give back supp g
        supports = [tuple(sorted(c)) for c in ctx.line_dual_index[cols].tolist()]
        assert sorted(supports) == sorted(gs)
        tables = _selection_tables(ctx, cols)
        for supp, table, d in zip(supports, tables, dists.tolist()):
            g = gs[supp]
            f = psap_from_g(ctx, g)
            assert np.array_equal(table, f.values())
            assert d == dist_to_dual(f, pairing=ctx)
            assert rayleigh_vs_charsum(ctx, g).N_f_actual == (1 << (2 * ctx.k)) - 2 * d


@pytest.mark.parametrize("k", [2, 3, 4])
def test_psap_rows_class_sizes_match_the_closed_form(k):
    # the quotient forms are the minus selections that avoid E_0 and inf
    stack = _exhaustive_census(GF2k(k))
    rep = _census_report(stack, _psap_rows(stack))
    assert rep.class_sizes == _closed_form_class_sizes(k, (1 << (k - 1)) - 1)
    assert rep.formula_mismatches == 0
    assert rep.spectral_checked == rep.total_selections == comb((1 << k) - 1, 1 << (k - 1))
    assert rep.selfdual_count == selfdual_counts(k)[1]
    assert rep.class_sizes == [
        {0: 1, 6: 2},
        {0: 3, 14: 12, 28: 12, 42: 8},
        {0: 35, 30: 280, 60: 840, 90: 1680, 120: 1680, 150: 1344, 180: 448, 210: 128},
    ][k - 2]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_selfdual_counts_transform_one_census(monkeypatch, k):
    # both counts are read off the one minus census: one transform of its
    # C(2^k + 1, 2^(k-1)) tables
    calls = []
    fwht = bentkit.spectral._fwht

    def counting_fwht(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    selfdual_counts(k)
    assert calls == [(comb((1 << k) + 1, 1 << (k - 1)), 1 << (2 * k))]


def test_selfdual_counts_fail_on_a_planted_quotient_mismatch(monkeypatch):
    # one flipped bit in the unmatched-line count of one quotient row of the
    # k = 3 minus census: the line formula disagrees with the spectrum on a
    # row that the census, the self-dual counts and the distance check share
    counts = bentkit.analysis._unmatched_counts

    def planted(ctx, cols):
        h = counts(ctx, cols)
        if ctx.k == 3 and cols.shape[1] == 4:  # the k = 3 minus census only
            h[np.flatnonzero(~np.isin(cols, (0, ctx.order)).any(axis=1))[1]] ^= 1
        return h

    monkeypatch.setattr(bentkit.analysis, "_unmatched_counts", planted)
    stack = _exhaustive_census(F8)
    assert _census_report(stack, _psap_rows(stack)).formula_mismatches == 1
    assert _census_report(stack).formula_mismatches == 1
    with pytest.raises(AssertionError, match="1 formula mismatches"):
        selfdual_counts(3)
    checks = {c.name: c for c in run_verification_suite()}
    assert [name for name, c in checks.items() if not c.ok] == [
        "census-k3", "selfdual-counts", "ps-distance-formulas"
    ]
    assert "1 formula mismatches" in checks["selfdual-counts"].detail["error"]


def _failing_checks():
    """The verification battery's failing checks, by name."""
    return {c.name: c for c in run_verification_suite() if not c.ok}


def test_symmetric_propositions_fail_on_a_planted_prediction(monkeypatch):
    # the Rayleigh case table one off at n = 6 only: the four n = 6 records fail
    want = [
        {**rec.to_json_dict(), "N_predicted": rec.nf_predicted + 1, "N_prediction_ok": False}
        for rec in symmetric_report(6)
    ]
    predict = bentkit.analysis._symmetric_nf_prediction
    monkeypatch.setattr(
        bentkit.analysis, "_symmetric_nf_prediction", lambda n, c: predict(n, c) + (n == 6)
    )
    failing = _failing_checks()
    assert list(failing) == ["symmetric-propositions"]
    assert failing["symmetric-propositions"].detail == {"failures": want}


def test_distribution_reference_rows_fail_on_a_planted_reference(monkeypatch):
    reference = dict(REFERENCE_DISTRIBUTION)
    nf, dist = reference[10]
    reference[10] = (nf, (*dist[:-1], dist[-1] + 2))
    monkeypatch.setattr(bentkit.analysis, "REFERENCE_DISTRIBUTION", reference)
    failing = _failing_checks()
    assert list(failing) == ["distribution-reference-rows"]
    assert failing["distribution-reference-rows"].detail == {"failures": [{"n": 10}]}


def test_no_anti_self_dual_fails_on_a_planted_extreme(monkeypatch):
    # every n = 6 report, the distribution row and the k = 3 census, is said
    # to reach the anti-self-dual extreme
    check = bentkit.analysis.anti_selfdual_check
    monkeypatch.setattr(
        bentkit.analysis, "anti_selfdual_check", lambda report: check(report) and report.n != 6
    )
    failing = _failing_checks()
    assert list(failing) == ["no-anti-self-dual"]
    assert failing["no-anti-self-dual"].detail == {"failures": [{"n": 6}, {"census_k": 3}]}


def test_no_anti_self_dual_names_a_row_below_the_least_nonzero_distance():
    # a nonzero distance below 2^(n/2) is its own failure record
    row = bentkit.analysis.DistributionRow(8, [256, 240], [0, 8])
    check = bentkit.analysis._check_no_antiselfdual([], {8: row})
    assert not check.ok
    assert check.detail == {"failures": [{"n": 8, "min_nonzero": 8}]}


def test_selfdual_check_reads_both_census_records():
    # the spread-form count reads every row of the census, the quotient-form
    # count its quotient rows; a mismatch flag on any row fails
    censuses = [_exhaustive_census(ctx) for ctx in (F4, F8)]
    assert _check_selfdual_counts(censuses).detail == {"k2": [2, 1], "k3": [6, 3]}
    stack = censuses[1]
    quotient = np.flatnonzero(_psap_rows(stack) & (stack.dists > 0))
    spread_only = np.flatnonzero(~_psap_rows(stack) & (stack.dists > 0))

    def planted(field, rows, value):
        values = getattr(stack, field).copy()
        values[rows] = value
        return stack._replace(**{field: values})

    for wrong, found in (
        (planted("dists", quotient[0], 0), "(7, 4) with 0"),
        (planted("dists", spread_only[0], 0), "(7, 3) with 0"),
        (planted("mismatches", quotient[:2], True), "(6, 3) with 2"),
    ):
        check = _check_selfdual_counts([censuses[0], wrong])
        assert not check.ok
        assert check.detail == {"error": f"enumeration found {found} formula "
                                         "mismatches, binomials give (6, 3)"}


def test_charsum_check_reports_each_planted_row():
    ctx = F8
    stack = _exhaustive_census(ctx)
    assert _check_charsum([stack]).ok
    gs = list(balanced_g_functions(3))
    planted = {gs[i].to_hex(): gs[i] for i in (4, 20)}
    # the census row of g is its selection, the lines E_{1/u} for u in supp g
    rows = [(stack.cols == selection_from_g(ctx, g).cols).all(axis=1) for g in planted.values()]
    wrong = stack.dists.copy()
    wrong[np.logical_or(*rows)] += 2
    check = _check_charsum([stack._replace(dists=wrong)])
    assert not check.ok
    failures = check.detail["failures"]
    assert sorted(f["g"] for f in failures) == sorted(planted)
    for f in failures:
        rep = rayleigh_vs_charsum(ctx, planted[f["g"]])
        assert f == {**rep.to_json_dict(), "N_actual": rep.N_f_actual - 4,
                     "derived_formula_matches": False}


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


def test_symmetric_report_flags_a_wrong_dual_formula(monkeypatch):
    formula = bentkit.analysis._symmetric_dual_formula

    def off_by_one_bit(n, c):
        vals = formula(n, c)
        vals[3] ^= 1
        return vals

    monkeypatch.setattr(bentkit.analysis, "_symmetric_dual_formula", off_by_one_bit)
    assert not any(r.dual_formula_ok for r in symmetric_report(8))


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


# ----------------------------------------------------------------------
# the verification battery
# ----------------------------------------------------------------------

def test_verification_suite_runs_each_census_once(monkeypatch):
    # every minus selection at k = 2 and at k = 3 is one stack, transformed
    # once and read by the census, self-dual, metric-identity,
    # distance-formula, character-sum and distribution checks
    census_inputs, minus_rows = {}, set()
    for ctx in (F4, F8):
        cols = np.array(list(itertools.combinations(range(ctx.order + 1), ctx.order // 2)))
        a = _transform_input(_selection_tables(ctx, cols), ctx)
        census_inputs[ctx.k] = (a.shape, a.tobytes())
        minus_rows |= {row.tobytes() for row in a}
    inputs, other_rows = [], set()
    fwht = bentkit.spectral._fwht

    def recording_fwht(a):
        inputs.append((a.shape, a.tobytes()))
        if inputs[-1] not in census_inputs.values():
            other_rows.update(row.tobytes() for row in a)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", recording_fwht)
    checks = run_verification_suite()
    assert [c.name for c in checks] == [
        "census-k2",
        "census-k3",
        "selfdual-counts",
        "metric-identities",
        "ps-distance-formulas",
        "symmetric-propositions",
        "charsum-derived-relation",
        "distribution-reference-rows",
        "no-anti-self-dual",
        "affine-transform-examples",
    ]
    assert all(c.ok for c in checks)
    assert {k: inputs.count(stack) for k, stack in census_inputs.items()} == {2: 1, 3: 1}
    # no other transformed stack holds a k = 2 or k = 3 minus table: the
    # quotient forms among them are read off the census rows
    assert not other_rows & minus_rows


def test_every_verify_spread_stack_is_a_census_stack(monkeypatch):
    # (k, shape, inside the census core?) of every spread stack verify
    # builds: the minus censuses at k = 2, 3, then every plus selection at
    # k = 2, 3 and the 200 k = 4 draws
    core, build = bentkit.analysis._census_stack, bentkit.analysis._selection_tables
    depth, stacks = [], []

    def census_stack(*args, **kwargs):
        depth.append(1)
        try:
            return core(*args, **kwargs)
        finally:
            depth.pop()

    def selection_tables(ctx, cols):
        stacks.append((ctx.k, cols.shape, bool(depth)))
        return build(ctx, cols)

    monkeypatch.setattr(bentkit.analysis, "_census_stack", census_stack)
    monkeypatch.setattr(bentkit.analysis, "_selection_tables", selection_tables)
    assert all(c.ok for c in run_verification_suite())
    assert stacks == [
        (2, (10, 2), True), (3, (126, 4), True),
        (2, (10, 3), True), (3, (126, 5), True), (4, (200, 8), True),
    ]


@pytest.mark.parametrize("where, failure", [
    (lambda ctx, cols: cols.shape[1] > 1 << (ctx.k - 1), {"form": "plus", "k": 3}),
    (lambda ctx, cols: ctx.k == 4, {"form": "minus", "k": 4}),
], ids=["plus-row", "k4-draw"])
def test_distance_check_fails_on_a_planted_line_formula_flip(monkeypatch, where, failure):
    # one flipped bit in h of one row: in one plus row at k = 3, or in one
    # of the k = 4 draws; the line formula then disagrees with the spectrum
    counts = bentkit.analysis._unmatched_counts

    def planted(ctx, cols):
        h = counts(ctx, cols)
        if ctx.k > 2 and where(ctx, cols):
            h[7] ^= 1
        return h

    monkeypatch.setattr(bentkit.analysis, "_unmatched_counts", planted)
    checks = {c.name: c for c in run_verification_suite()}
    assert [name for name, c in checks.items() if not c.ok] == ["ps-distance-formulas"]
    assert checks["ps-distance-formulas"].detail == {
        "failures": [{**failure, "formula_mismatches": 1}]
    }


def _plant_counting_form_flip(monkeypatch, where, row=7):
    # one row's counting form off by 2 in the census stacks `where` picks
    formula = bentkit.analysis._spread_dist_formula

    def planted(tables):
        dists = formula(tables)
        if where(tables):
            dists[row] += 2
        return dists

    monkeypatch.setattr(bentkit.analysis, "_spread_dist_formula", planted)


# the first quotient-form row of the k = 3 minus census: E_1, E_2, E_3, E_4
_PSAP_ROW_K3 = list(itertools.combinations(range(9), 4)).index((1, 2, 3, 4))


@pytest.mark.parametrize("where, row, failing", [
    (
        lambda t: len(t) == 126 and not t[0, 0], 7,
        ["census-k3", "selfdual-counts", "ps-distance-formulas"],
    ),
    (lambda t: len(t) == 126 and t[0, 0], 7, ["ps-distance-formulas"]),
    (
        lambda t: len(t) == 126 and not t[0, 0], _PSAP_ROW_K3,
        ["census-k3", "selfdual-counts", "ps-distance-formulas"],
    ),
    (lambda t: len(t) == 200, 7, ["ps-distance-formulas"]),
], ids=["minus-k3", "plus-k3", "quotient-k3", "k4-draw"])
def test_a_counting_form_flip_fails_the_checks_that_read_its_stack(
    monkeypatch, where, row, failing
):
    # the census core checks the counting form on every row it transforms,
    # so exactly the checks that read the planted stack's rows fail; a
    # quotient-form row is a row of the minus census
    _plant_counting_form_flip(monkeypatch, where, row)
    assert [c.name for c in run_verification_suite() if not c.ok] == failing


def test_census_counts_a_counting_form_flip(monkeypatch, capsys):
    _plant_counting_form_flip(monkeypatch, lambda t: len(t) > 7)
    assert census(F8).formula_mismatches == 1
    assert census(GF2k(5), "sample", samples=300, seed=9).formula_mismatches == 1
    assert bentkit.cli.main(["census", "--k", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["formula_mismatches"] == 1


def test_verification_suite_transforms_stacks(monkeypatch):
    # one transform per stack: census (k = 2, 3), symmetric (n = 4..12),
    # MM (n = 6, 8), plus-type (k = 2, 3) and k = 4 draw stacks, and the
    # four worked examples as one stack
    calls = []
    fwht = bentkit.spectral._fwht

    def counting_fwht(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    assert all(c.ok for c in run_verification_suite())
    assert len(calls) <= 13

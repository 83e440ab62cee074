import functools
import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bentkit.analysis
from bentkit.analysis import (
    CensusReport,
    _spread_dist_formula,
    _check_charsum,
    _quotient_distances,
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
    reduce_basis,
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
    dist_to_dual,
    dual,
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
# form2 by the derivative route: the O(4^n) oracle for the Rayleigh form
# ----------------------------------------------------------------------

def _derivative_sums(f, pairing):
    """Sum the spectra of all 2^n directional derivatives D_u f at their
    paired point Pu, over the whole domain and over its anisotropic half
    {x : <x, x> = 1}.  Returns (total, anisotropic sum, anisotropic mask).

    The paired point comes pointwise from `gram_map` and parities from
    int.bit_count, independent of the spectral layer's grid re-index."""
    fv = f.values()
    xs = np.arange(f.size, dtype=np.int64)
    par = np.array([x.bit_count() & 1 for x in range(f.size)], dtype=np.uint8)
    if pairing is None:
        aniso = par.astype(bool)  # odd-weight points
    else:
        tr = np.array([pairing.trace(a) for a in pairing.elements()], dtype=np.uint8)
        aniso = (tr[xs & pairing.mask] ^ tr[xs >> pairing.k]).astype(bool)

    deriv_total = 0
    deriv_aniso = 0
    for u in range(f.size):
        dv = fv ^ fv[xs ^ u]
        pu = u if pairing is None else pairing.gram_map(u)
        chi = par[xs & pu]
        s = 1 - 2 * (dv ^ chi).astype(np.int64)
        deriv_total += int(s.sum())
        deriv_aniso += int(s[aniso].sum())
    return deriv_total, deriv_aniso, aniso


def _form2_by_derivatives(f, pairing, sums=None):
    """(form2, corollary residual) of f by the derivative route."""
    n, k = f.n, f.n // 2
    deriv_total, deriv_aniso, _ = sums or _derivative_sums(f, pairing)
    spec = wht(f, pairing)
    supp_sum = int(spec.values[f.values().astype(bool)].sum(dtype=np.int64))
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
            q = np.array(
                [pairing.trace_pairing(pairing.unpack(x), pairing.unpack(x))
                 for x in range(f.size)],
                dtype=bool,
            )
        assert np.array_equal(q, aniso)
        signed = (1 - 2 * f.values().astype(np.int64)) * wht(f, pairing).values
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


def test_stack_identities_match_the_single_paths_row_by_row():
    rows_checked = 0
    for fs, pairing in _identity_stacks():
        tables = np.array([f.values() for f in fs])
        duals = np.empty(tables.shape, dtype=bool)
        stacked = _stack_identities(tables, pairing, duals)
        for f, row, d in zip(fs, stacked.tolist(), duals):
            res = metric_identity_check(f, pairing)
            assert tuple(row) == res and res.consistent
            assert res.direct == dist_to_dual(f, pairing)
            assert np.array_equal(d, dual(f, pairing).values())
            assert (res.form2, res.corollary_residual) == _form2_by_derivatives(f, pairing)
            rows_checked += 1
    assert rows_checked == 126 + 126 + 20 + 100


def _k3_minus_tables():
    return _selection_tables(F8, np.array(list(itertools.combinations(range(9), 4))), False)


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
    return lambda tables, pairing: iter([(0, tables, spec)])


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
    monkeypatch.setattr(bentkit.spectral, "_stack_spectra", _spectra_of(spec))
    message = f"^{what} = {value} is not divisible by {divisor}$"
    with pytest.raises(AssertionError, match=message):
        _stack_identities(tables, None)


def test_stack_identities_read_a_broken_spectrum_into_form2_and_the_residual(monkeypatch):
    # W off by 2^(k+1) at one point outside the support passes both
    # divisions; form2 and the residual must show it, direct and form1 not
    f = X1X3_X2X4.values()
    spec = np.array([wht(X1X3_X2X4).values] * 2, dtype=np.int64)
    spec[1, int(np.flatnonzero(f == 0)[0])] += 8
    monkeypatch.setattr(bentkit.spectral, "_stack_spectra", _spectra_of(spec))
    good, bad = _stack_identities(np.array([f, f]), None).tolist()
    assert good == [0, 0, 0, 0]
    assert bad == [0, 0, -1, 8]
    assert not bentkit.analysis.MetricIdentity(*bad).consistent


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
    the trace annihilator of its points; uses only ctx.mul and ctx.trace."""
    ctx = GF2k(k)
    tr = np.array(
        [[ctx.trace(ctx.mul(a, b)) for b in ctx.elements()] for a in ctx.elements()],
        dtype=np.uint8,
    )
    by_points = {line_points(ctx, L): L for L in desarguesian(ctx)}
    dual_of = {}
    for pts, line in by_points.items():
        # grid row y', column x' is the packed point x' + 2^k y'
        zero = np.ones((ctx.order, ctx.order), dtype=bool)
        for p in pts:
            x, y = ctx.unpack(p)
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


def _closed_form_class_sizes(k: int) -> dict[int, int]:
    """PS- class sizes: with P = 2^(k-1) dual pairs, e = [E_1 selected] and
    p = (P - e - h)/2 whole pairs, h unmatched lines occur in
    C(P, p) C(P - p, h) 2^h selections, at distance h (2^(k+1) - 2)."""
    big_p = 1 << (k - 1)
    sizes = {}
    for h in range(big_p + 1):
        e = (big_p - h) % 2
        p = (big_p - e - h) // 2
        sizes[h * ((1 << (k + 1)) - 2)] = comb(big_p, p) * comb(big_p - p, h) * 2**h
    return sizes


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exhaustive_class_sizes_match_the_closed_form(k):
    rep = census(GF2k(k))
    assert rep.class_sizes == _closed_form_class_sizes(k)
    assert rep.formula_mismatches == 0
    assert rep.spectral_checked == rep.total_selections == comb((1 << k) + 1, 1 << (k - 1))
    if k == 4:
        assert rep.class_sizes == {
            0: 70, 30: 560, 60: 2240, 90: 4480, 120: 6720,
            150: 5376, 180: 3584, 210: 1024, 240: 256,
        }


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_rows_match_the_single_function_path(data):
    # stacks of hypothesis-drawn selections against ps_minus / ps_plus,
    # dist_to_dual and the counting forms, one selection at a time
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
    tables = _selection_tables(ctx, cols, plus)
    dists = _stack_distances(tables, ctx)
    formula = _spread_dist_formula(tables)
    build, counting = (ps_plus, dist_formula_ps_plus) if plus else (ps_minus, dist_formula_ps_minus)
    for row, table, d, d_formula in zip(rows, tables, dists, formula):
        sel = selection(ctx, [SpreadLine(None if c == ctx.order else c) for c in row])
        f = build(sel)
        assert np.array_equal(f.values(), table)
        assert d == d_formula == dist_to_dual(f, pairing=ctx) == counting(sel)
    if not plus:
        h = _unmatched_counts(ctx, cols)
        step = (1 << (k + 1)) - 2
        assert (dists == h * step).all()


def test_census_fails_on_a_planted_bit_flip(monkeypatch):
    # a flipped bit in one row of the census stack is an error, never a class
    build = bentkit.analysis._selection_tables

    def planted(ctx, cols, plus):
        tables = build(ctx, cols, plus)
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


def test_quotient_stack_matches_the_single_function_path():
    # the stack the verify battery reads N from: one row per balanced g
    for ctx in (F4, F8):
        supports, dists = _quotient_distances(ctx)
        gs = list(balanced_g_functions(ctx.k))
        assert supports.tolist() == [g.support() for g in gs]
        for g, d in zip(gs, dists.tolist()):
            assert d == dist_to_dual(psap_from_g(ctx, g), pairing=ctx)
            assert rayleigh_vs_charsum(ctx, g).N_f_actual == (1 << (2 * ctx.k)) - 2 * d


def test_charsum_check_reports_each_planted_row():
    ctx = F8
    supports, dists = _quotient_distances(ctx)
    assert _check_charsum([(ctx, supports, dists)]).ok
    wrong = dists.copy()
    wrong[[4, 20]] += 2
    check = _check_charsum([(ctx, supports, wrong)])
    gs = list(balanced_g_functions(3))
    assert not check.ok
    assert [f["g"] for f in check.detail["failures"]] == [gs[4].to_hex(), gs[20].to_hex()]
    for f, i in zip(check.detail["failures"], (4, 20)):
        rep = rayleigh_vs_charsum(ctx, gs[i])
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
    calls = []
    real_census = bentkit.analysis.census

    def counting_census(ctx, *args, **kwargs):
        calls.append(ctx.k)
        return real_census(ctx, *args, **kwargs)

    monkeypatch.setattr(bentkit.analysis, "census", counting_census)
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
    # the two exhaustive reports, and one per row cross-validated at n = 4, 6
    assert len(calls) <= 4


def test_verification_suite_transforms_stacks(monkeypatch):
    # one transform per stack: census, quotient-form, metric-identity,
    # distance-formula and symmetric stacks, plus the four worked examples
    calls = []
    fwht = bentkit.spectral._fwht

    def counting_fwht(a):
        calls.append(a.shape)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    assert all(c.ok for c in run_verification_suite())
    assert len(calls) <= 32

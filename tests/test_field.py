import numpy as np
import pytest
from hypothesis import given, strategies as st

from bentkit.field import (
    DEFAULT_POLYS,
    GF2k,
    ReduciblePolynomialError,
    poly_str,
    reducible_factor,
)
from oracles import poly_mod_oracle, reference as ref


F8 = GF2k(3)


# ----------------------------------------------------------------------
# construction and irreducibility
# ----------------------------------------------------------------------

def is_irreducible_oracle(poly: int) -> bool:
    """Trial division by every smaller polynomial of positive degree."""
    deg = poly.bit_length() - 1
    for d in range(1, deg):
        for cand in range(1 << d, 1 << (d + 1)):
            if poly_mod_oracle(poly, cand) == 0:
                return False
    return True

def test_default_polys_are_irreducible():
    for k, poly in DEFAULT_POLYS.items():
        assert poly.bit_length() - 1 == k
        assert is_irreducible_oracle(poly)
        GF2k(k)  # constructs without complaint


def test_explicit_polys_match_oracle():
    assert GF2k(2, 0b111).poly == 0b111
    assert GF2k(3, 0b1011).poly == 0b1011


def test_reducible_poly_rejected_with_factor():
    with pytest.raises(ReduciblePolynomialError) as err:
        GF2k(2, 0b110)  # x^2 + x = x(x + 1)
    assert err.value.factor == 0b10
    assert "x" in str(err.value)


def test_construction_validates_degree_and_range():
    with pytest.raises(ValueError):
        GF2k(0)
    with pytest.raises(ValueError):
        GF2k(17)
    with pytest.raises(ValueError):
        GF2k(3, 0b111)  # degree 2, not 3
    with pytest.raises(ValueError):
        GF2k(13)  # no default polynomial


def test_negative_polynomial_mask_is_rejected():
    # -19 has bit_length 5, so only an explicit sign check keeps it out of
    # the trial division, which never terminates on a negative mask.
    with pytest.raises(ValueError, match="non-negative"):
        GF2k(4, -19)


def test_reducible_factor_agrees_with_oracle_for_degree_4():
    for poly in range(1 << 4, 1 << 5):
        assert (reducible_factor(poly) is None) == is_irreducible_oracle(poly)


def test_poly_str():
    assert poly_str(0b1011) == "x^3 + x + 1"
    assert poly_str(0b10) == "x"


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def test_mul_against_long_division_oracle():
    for k in (2, 3):
        ctx = GF2k(k)
        for a in ctx.elements():
            for b in ctx.elements():
                assert ctx.mul(a, b) == ref.gf_mul(a, b, k, ctx.poly)


def test_mul_identity_and_specific_products():
    F4, F8 = GF2k(2), GF2k(3)
    for a in F4.elements():
        assert F4.mul(1, a) == a
    assert F4.mul(0b10, 0b10) == 0b11  # w^2 = w + 1
    assert F8.mul(0b010, 0b101) == 0b001  # x(x^2+1) = 1 mod x^3+x+1


def test_inverse_exhaustive_k_up_to_8():
    for k in range(1, 9):
        ctx = GF2k(k)
        for a in range(1, ctx.order):
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_inverse_specific_values_and_zero_error():
    F4, F8 = GF2k(2), GF2k(3)
    inv4 = ref.gf_inv_table(ref.gf_mul_table(2, F4.poly))
    inv8 = ref.gf_inv_table(ref.gf_mul_table(3, F8.poly))
    assert F4.inv(1) == 1
    assert F4.inv(0b10) == 0b11 == inv4[0b10]
    assert F8.inv(0b010) == 0b101 == inv8[0b010]
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)


@given(st.data())
def test_array_mul_and_inverse_match_the_scalar_oracle(data):
    # the whole-field arrays against the reference product; an inverse is
    # the one element whose reference product with x is 1 (the reference's
    # whole multiplication table is 128 MB at k = 12)
    k = data.draw(st.integers(1, 12), label="k")
    ctx = GF2k(k)
    a = data.draw(st.lists(st.integers(0, ctx.mask), min_size=1, max_size=16))
    b = data.draw(st.lists(st.integers(0, ctx.mask), min_size=len(a), max_size=len(a)))
    assert ctx._mul_array(a, b).tolist() == [
        ref.gf_mul(x, y, k, ctx.poly) for x, y in zip(a, b)
    ]
    index = ctx.line_dual_index
    for x in a:
        if x:
            inv = int(index[x])
            assert inv in range(ctx.order) and ref.gf_mul(x, inv, k, ctx.poly) == 1


@pytest.mark.parametrize("k", sorted(DEFAULT_POLYS))
def test_line_dual_index_is_a_lazy_read_only_involution(k):
    ctx = GF2k(k)
    assert "line_dual_index" not in vars(ctx)  # not built by the constructor
    index = ctx.line_dual_index
    assert index is ctx.line_dual_index
    assert len(index) == ctx.order + 1
    assert (index[0], index[ctx.order], index[1]) == (ctx.order, 0, 1)
    assert np.array_equal(index[index], np.arange(ctx.order + 1))
    with pytest.raises(ValueError):
        index[0] = 0


@pytest.mark.parametrize("k", range(1, 6))
def test_pow_matches_repeated_oracle_products(k):
    # the square-and-multiply loop, for every a and every e < 3 * 2^k (past
    # the multiplicative order, so exponents wrap); k = 6 would take seconds,
    # as every scalar mul runs the k-step array product
    ctx = GF2k(k)
    for a in range(ctx.order):
        want = 1
        for e in range(3 << k):
            assert ctx.pow(a, e) == want, (a, e)
            want = ref.gf_mul(want, a, k, ctx.poly)


def test_division_convention():
    F4 = GF2k(2)
    assert F4.div0(1, 0) == 0
    for a in range(1, F4.order):
        assert F4.div0(a, a) == 1
    assert F4.div0(1, 0b10) == 0b11


# ----------------------------------------------------------------------
# trace and the trace form
# ----------------------------------------------------------------------

def test_trace_matches_conjugate_sum_oracle():
    for k in (2, 3, 4, 5):
        ctx = GF2k(k)
        for a in ctx.elements():
            assert ctx.trace(a) == ref.gf_trace(a, k, ctx.poly)


@pytest.mark.parametrize("k, poly", sorted(DEFAULT_POLYS.items()))
def test_trace_table_built_by_linearity_matches_conjugate_sum(k, poly):
    ctx = GF2k(k, poly)
    assert [ctx.trace(a) for a in ctx.elements()] == [
        ref.gf_trace(a, k, poly) for a in ctx.elements()
    ]
    assert all(type(ctx.trace(a)) is int for a in ctx.elements())


def test_trace_specific_values():
    assert GF2k(2).trace(0) == 0
    assert GF2k(2).trace(0b10) == 1  # w + w^2 = 1
    assert GF2k(3).trace(1) == 1  # 1 + 1 + 1


def test_trace_frobenius_invariance_and_balance():
    for k in range(1, 9):
        ctx = GF2k(k)
        zeros = 0
        for a in ctx.elements():
            assert ctx.trace(ctx.mul(a, a)) == ctx.trace(a)
            zeros += ctx.trace(a) == 0
        assert zeros == 1 << (k - 1)


def trace_form(ctx, p, q):
    """Tr(xx') + Tr(yy') for p = (x, y), q = (x', y'), from the field's mul
    and trace."""
    return ctx.trace(ctx.mul(p[0], q[0])) ^ ctx.trace(ctx.mul(p[1], q[1]))


def test_trace_pairing_symmetric_bilinear_nondegenerate():
    for k in (2, 3):
        ctx = GF2k(k)
        pts = [(x, y) for x in ctx.elements() for y in ctx.elements()]
        assert all(trace_form(ctx, (0, 0), q) == 0 for q in pts)
        for p in pts:
            for q in pts:
                assert trace_form(ctx, p, q) == trace_form(ctx, q, p)
        # nondegenerate: every nonzero point pairs to 1 with someone
        for p in pts:
            if p == (0, 0):
                continue
            assert any(trace_form(ctx, p, q) == 1 for q in pts)


def test_trace_pairing_example():
    F4 = GF2k(2)
    assert trace_form(F4, (1, 0b10), (0b10, 1)) == 0  # Tr(w) + Tr(w) = 0


# ----------------------------------------------------------------------
# Gram matrix and the index map
# ----------------------------------------------------------------------

def test_gram_k2():
    F4 = GF2k(2)
    gram = [[(F4.gram_rows[i] >> j) & 1 for j in range(2)] for i in range(2)]
    assert gram == [[0, 1], [1, 1]]


def gram_map_inv(ctx, u):
    """The inverse of gram_map, read off gram_inv_index on both halves."""
    x, y = ctx.unpack(u)
    return ctx.pack(int(ctx.gram_inv_index[x]), int(ctx.gram_inv_index[y]))


def test_gram_map_realizes_trace_pairing():
    # against the reference trace form, which bentkit does not compute
    for k in (2, 3):
        ctx = GF2k(k)
        n = 2 * k
        for p in range(1 << n):
            for q in range(1 << n):
                dot = (p & ctx.gram_map(q)).bit_count() & 1
                (x, y), (x2, y2) = ctx.unpack(p), ctx.unpack(q)
                assert dot == (
                    ref.gf_trace(ref.gf_mul(x, x2, k, ctx.poly), k, ctx.poly)
                    ^ ref.gf_trace(ref.gf_mul(y, y2, k, ctx.poly), k, ctx.poly)
                )


def test_gram_map_linear_and_invertible():
    for k in range(1, 7):
        ctx = GF2k(k)
        n = 2 * k
        assert ctx.gram_map(0) == 0
        seen = set()
        for u in range(1 << n):
            v = ctx.gram_map(u)
            assert gram_map_inv(ctx, v) == u
            seen.add(v)
        assert len(seen) == 1 << n


@pytest.mark.parametrize("k", sorted(DEFAULT_POLYS))
def test_gram_index_and_its_inverse_are_read_only_inverse_permutations(k):
    ctx = GF2k(k)
    g, g_inv = ctx.gram_index, ctx.gram_inv_index
    assert np.array_equal(g[g_inv], np.arange(ctx.order))
    assert np.array_equal(g_inv[g], np.arange(ctx.order))
    for index in (g, g_inv):
        with pytest.raises(ValueError):
            index[0] = 0


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_gram_map_and_its_inverse_match_the_pointwise_oracle(k):
    ctx = GF2k(k)
    perm = ref.pairing_perm(k, ctx.poly)
    inverse = np.argsort(perm)
    for u in range(1 << (2 * k)):
        assert ctx.gram_map(u) == perm[u]
        assert gram_map_inv(ctx, u) == inverse[u]


# ----------------------------------------------------------------------
# bad field elements
# ----------------------------------------------------------------------

# GF(8): elements 0..7, packed pairs 0..63.  Each scalar method at -1 and
# at its first value out of range, in each argument it takes, with the
# message of the first bad argument.
NEG, BIG = "field element -1 is negative", "field element 8 out of range 0..7"
BAD_CALLS = [
    ("mul", (1, -1), NEG), ("mul", (-1, 1), NEG), ("mul", (8, 3), BIG), ("mul", (3, 8), BIG),
    ("pow", (2, -1), "exponent -1 is negative"), ("pow", (-1, 2), NEG),
    ("pow", (8, 2), BIG), ("pow", (8, 0), BIG),
    ("inv", (-1,), NEG), ("inv", (-3,), "field element -3 is negative"), ("inv", (8,), BIG),
    ("div0", (1, -2), "field element -2 is negative"), ("div0", (-1, 1), NEG),
    ("div0", (8, 1), BIG), ("div0", (8, 0), BIG), ("div0", (1, 8), BIG),
    ("trace", (-1,), NEG), ("trace", (8,), BIG),
    ("pack", (-1, 0), NEG), ("pack", (0, 8), BIG),
    ("unpack", (-1,), "packed pair -1 is negative"),
    ("unpack", (64,), "packed pair 64 out of range 0..63"),
    ("gram_map", (-1,), "packed pair -1 is negative"),
    ("gram_map", (64,), "packed pair 64 out of range 0..63"),
]


@pytest.mark.parametrize(
    "method, args, message", BAD_CALLS, ids=[f"{m}{a}" for m, a, _ in BAD_CALLS]
)
def test_out_of_range_arguments_raise_value_error(method, args, message):
    with pytest.raises(ValueError) as exc:
        getattr(F8, method)(*args)
    assert str(exc.value) == message


def test_largest_in_range_arguments_are_accepted():
    assert F8.mul(7, 7) == ref.gf_mul(7, 7, 3, F8.poly)
    inv8 = ref.gf_inv_table(ref.gf_mul_table(3, F8.poly))
    assert F8.pow(7, 0) == 1 and F8.inv(7) == inv8[7]
    assert F8.div0(7, 0) == 0 and F8.trace(7) == ref.gf_trace(7, 3, F8.poly)
    assert F8.unpack(63) == (7, 7) and F8.pack(7, 7) == 63
    assert gram_map_inv(F8, F8.gram_map(63)) == 63


def test_context_equality_and_repr():
    assert GF2k(2) == GF2k(2, 0b111)
    assert GF2k(2) != GF2k(3)
    assert "x^2" in repr(GF2k(2))

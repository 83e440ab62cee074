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
from oracles import (
    field_mul_oracle,
    gram_map_oracle,
    inv_oracle,
    poly_mod_oracle,
    trace_oracle,
)


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
                assert ctx.mul(a, b) == field_mul_oracle(a, b, ctx.poly)


def test_mul_identity_and_specific_products():
    F4, F8 = GF2k(2), GF2k(3)
    for a in F4.elements():
        assert F4.mul(1, a) == a
    assert F4.mul(0b10, 0b10) == 0b11  # w^2 = w + 1
    assert F8.mul(0b010, 0b101) == 0b001  # x(x^2+1) = 1 mod x^3+x+1


def test_inverse_exhaustive_k_up_to_8():
    for k in range(1, 9):
        ctx = GF2k(k)
        for a in ctx.nonzero():
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_inverse_specific_values_and_zero_error():
    F4, F8 = GF2k(2), GF2k(3)
    assert F4.inv(1) == 1
    assert F4.inv(0b10) == 0b11 == inv_oracle(0b10, F4.poly)
    assert F8.inv(0b010) == 0b101 == inv_oracle(0b010, F8.poly)
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)


@given(st.data())
def test_array_mul_and_inverse_match_the_scalar_oracle(data):
    # the whole-field arrays against the schoolbook product and the
    # extended Euclidean inverse
    k = data.draw(st.integers(1, 12), label="k")
    ctx = GF2k(k)
    a = data.draw(st.lists(st.integers(0, ctx.mask), min_size=1, max_size=16))
    b = data.draw(st.lists(st.integers(0, ctx.mask), min_size=len(a), max_size=len(a)))
    assert ctx._mul_array(a, b).tolist() == [
        field_mul_oracle(x, y, ctx.poly) for x, y in zip(a, b)
    ]
    index = ctx.line_dual_index
    for x in a:
        if x:
            assert index[x] == inv_oracle(x, ctx.poly)


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


def test_division_convention():
    F4 = GF2k(2)
    assert F4.div0(1, 0) == 0
    for a in F4.nonzero():
        assert F4.div0(a, a) == 1
    assert F4.div0(1, 0b10) == 0b11


# ----------------------------------------------------------------------
# trace and the trace form
# ----------------------------------------------------------------------

def test_trace_matches_conjugate_sum_oracle():
    for k in (2, 3, 4, 5):
        ctx = GF2k(k)
        for a in ctx.elements():
            assert ctx.trace(a) == trace_oracle(a, ctx.poly)


@pytest.mark.parametrize("k, poly", sorted(DEFAULT_POLYS.items()))
def test_trace_table_built_by_linearity_matches_conjugate_sum(k, poly):
    ctx = GF2k(k, poly)
    assert [ctx.trace(a) for a in ctx.elements()] == [
        trace_oracle(a, poly) for a in ctx.elements()
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


def test_trace_pairing_symmetric_bilinear_nondegenerate():
    for k in (2, 3):
        ctx = GF2k(k)
        pts = [(x, y) for x in ctx.elements() for y in ctx.elements()]
        assert all(ctx.trace_pairing((0, 0), q) == 0 for q in pts)
        for p in pts:
            for q in pts:
                assert ctx.trace_pairing(p, q) == ctx.trace_pairing(q, p)
        # nondegenerate: every nonzero point pairs to 1 with someone
        for p in pts:
            if p == (0, 0):
                continue
            assert any(ctx.trace_pairing(p, q) == 1 for q in pts)


def test_trace_pairing_example():
    F4 = GF2k(2)
    assert F4.trace_pairing((1, 0b10), (0b10, 1)) == 0  # Tr(w) + Tr(w) = 0


# ----------------------------------------------------------------------
# Gram matrix and the index map
# ----------------------------------------------------------------------

def test_gram_k2():
    F4 = GF2k(2)
    gram = [[(F4.gram_rows[i] >> j) & 1 for j in range(2)] for i in range(2)]
    assert gram == [[0, 1], [1, 1]]


def test_gram_map_realizes_trace_pairing():
    for k in (2, 3):
        ctx = GF2k(k)
        n = 2 * k
        for p in range(1 << n):
            for q in range(1 << n):
                dot = (p & ctx.gram_map(q)).bit_count() & 1
                assert dot == ctx.trace_pairing(ctx.unpack(p), ctx.unpack(q))


def test_gram_map_linear_and_invertible():
    for k in range(1, 7):
        ctx = GF2k(k)
        n = 2 * k
        assert ctx.gram_map(0) == 0
        seen = set()
        for u in range(1 << n):
            v = ctx.gram_map(u)
            assert ctx.gram_map_inv(v) == u
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
    for u in range(1 << (2 * k)):
        assert ctx.gram_map(u) == gram_map_oracle(ctx, u)
        assert ctx.gram_map_inv(u) == gram_map_oracle(ctx, u, inverse=True)


# ----------------------------------------------------------------------
# bad field elements
# ----------------------------------------------------------------------

# GF(8): elements 0..7, packed pairs 0..63.  Each scalar method at -1 and
# at its first value out of range, in each argument it takes.
BAD_CALLS = [
    ("mul", (1, -1)), ("mul", (-1, 1)), ("mul", (8, 3)), ("mul", (3, 8)),
    ("pow", (2, -1)), ("pow", (-1, 2)), ("pow", (8, 2)), ("pow", (8, 0)),
    ("inv", (-1,)), ("inv", (-3,)), ("inv", (8,)),
    ("div0", (1, -2)), ("div0", (-1, 1)), ("div0", (8, 1)), ("div0", (8, 0)),
    ("div0", (1, 8)),
    ("trace", (-1,)), ("trace", (8,)),
    ("trace_pairing", ((1, 2), (3, -1))), ("trace_pairing", ((8, 0), (1, 1))),
    ("pack", (-1, 0)), ("pack", (0, 8)),
    ("unpack", (-1,)), ("unpack", (64,)),
    ("gram_map", (-1,)), ("gram_map", (64,)),
    ("gram_map_inv", (-1,)), ("gram_map_inv", (64,)),
]


@pytest.mark.parametrize("method, args", BAD_CALLS, ids=[f"{m}{a}" for m, a in BAD_CALLS])
def test_out_of_range_arguments_raise_value_error(method, args):
    with pytest.raises(ValueError, match=r"is not (in 0\.\.(7|63)|an exponent)"):
        getattr(F8, method)(*args)


def test_largest_in_range_arguments_are_accepted():
    assert F8.mul(7, 7) == field_mul_oracle(7, 7, F8.poly)
    assert F8.pow(7, 0) == 1 and F8.inv(7) == inv_oracle(7, F8.poly)
    assert F8.div0(7, 0) == 0 and F8.trace(7) == trace_oracle(7, F8.poly)
    assert F8.unpack(63) == (7, 7) and F8.pack(7, 7) == 63
    assert F8.gram_map_inv(F8.gram_map(63)) == 63


def test_context_equality_and_repr():
    assert GF2k(2) == GF2k(2, 0b111)
    assert GF2k(2) != GF2k(3)
    assert "x^2" in repr(GF2k(2))

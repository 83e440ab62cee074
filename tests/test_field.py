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


# ----------------------------------------------------------------------
# independent oracles (deliberately naive)
# ----------------------------------------------------------------------

def poly_mul_oracle(a: int, b: int) -> int:
    """Schoolbook carry-less product, no reduction."""
    p = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            p ^= a << i
        i += 1
    return p


def poly_mod_oracle(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def field_mul_oracle(a: int, b: int, poly: int) -> int:
    return poly_mod_oracle(poly_mul_oracle(a, b), poly)


def is_irreducible_oracle(poly: int) -> bool:
    """Trial division by every smaller polynomial of positive degree."""
    deg = poly.bit_length() - 1
    for d in range(1, deg):
        for cand in range(1 << d, 1 << (d + 1)):
            if poly_mod_oracle(poly, cand) == 0:
                return False
    return True


def inv_oracle(ctx: GF2k, a: int) -> int:
    for b in ctx.nonzero():
        if ctx.mul(a, b) == 1:
            return b
    raise AssertionError(f"no inverse for {a}")


# ----------------------------------------------------------------------
# construction and irreducibility
# ----------------------------------------------------------------------

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
    assert F4.inv(0b10) == 0b11 == inv_oracle(F4, 0b10)
    assert F8.inv(0b010) == 0b101 == inv_oracle(F8, 0b010)
    with pytest.raises(ZeroDivisionError):
        F4.inv(0)


@given(st.data())
def test_array_mul_and_inverse_match_the_scalar_oracle(data):
    # the whole-field arrays against scalar mul / inv (through pow)
    k = data.draw(st.integers(1, 12), label="k")
    ctx = GF2k(k)
    a = data.draw(st.lists(st.integers(0, ctx.mask), min_size=1, max_size=16))
    b = data.draw(st.lists(st.integers(0, ctx.mask), min_size=len(a), max_size=len(a)))
    assert ctx._mul_array(a, b).tolist() == [ctx.mul(x, y) for x, y in zip(a, b)]
    index = ctx.line_dual_index
    for x in a:
        if x:
            assert index[x] == ctx.inv(x)


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

def trace_oracle(ctx: GF2k, a: int) -> int:
    t = 0
    x = a
    for _ in range(ctx.k):
        t ^= x
        x = ctx.mul(x, x)
    return t


def test_trace_matches_conjugate_sum_oracle():
    for k in (2, 3, 4, 5):
        ctx = GF2k(k)
        for a in ctx.elements():
            assert ctx.trace(a) == trace_oracle(ctx, a)


@pytest.mark.parametrize("k, poly", sorted(DEFAULT_POLYS.items()))
def test_trace_table_built_by_linearity_matches_conjugate_sum(k, poly):
    ctx = GF2k(k, poly)
    assert [ctx.trace(a) for a in ctx.elements()] == [
        ctx._trace_slow(a) for a in ctx.elements()
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


def test_context_equality_and_repr():
    assert GF2k(2) == GF2k(2, 0b111)
    assert GF2k(2) != GF2k(3)
    assert "x^2" in repr(GF2k(2))

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bentkit.boolfun import (
    AnfPoly,
    TruthTable,
    mm_bent,
    mm_dual,
    reduce_basis,
    subspace_indicator,
    subspace_span,
    symmetric_bent,
    symmetric_value_pattern,
)
from bentkit.spectral import dual, is_bent


def tt_x1(n: int) -> TruthTable:
    return TruthTable.from_function(n, lambda x: x & 1)


# ----------------------------------------------------------------------
# representation, weight, hex round trips
# ----------------------------------------------------------------------

def test_weight_and_balance():
    zero = TruthTable(4)
    assert zero.weight() == 0 and not zero.is_balanced()
    f = tt_x1(4)
    assert f.weight() == 8 and f.is_balanced()
    g = TruthTable.from_function(2, lambda x: (x & (x >> 1)) & 1)
    assert g.weight() == 1 and g.support() == [3]


def test_index_convention_is_little_endian():
    # f = x1 on two variables: true exactly at indices 1, 3
    f = tt_x1(2)
    assert [f[x] for x in range(4)] == [0, 1, 0, 1]


def test_hex_round_trip_and_layout():
    f = TruthTable.from_support(2, [3])  # x1x2, packed bits = 0b1000
    assert f.to_hex() == "8"
    assert TruthTable.from_hex("8") == f
    g = TruthTable.from_support(4, [0])
    assert g.to_hex() == "0001"  # index 0 in the least significant nibble
    assert TruthTable.from_hex("0001").n == 4
    rng = random.Random(5)
    for n in (2, 3, 4, 6):
        t = TruthTable(n, rng.getrandbits(1 << n))
        assert TruthTable.from_hex(t.to_hex()) == t
        assert len(t.to_hex()) == (1 << n) // 4


def test_hex_rejects_bad_lengths():
    with pytest.raises(ValueError):
        TruthTable.from_hex("abc")  # 3 digits is not a power of two
    with pytest.raises(ValueError):
        TruthTable.from_hex("ab", n=4)  # n=4 needs 4 digits


@pytest.mark.parametrize("text", ["0x6c", "6_c0", "+6ca", "-6ca", "6c a0", "6cg0"])
def test_hex_rejects_non_hex_characters(text):
    # int(text, 16) accepts the first four of these
    with pytest.raises(ValueError, match="non-hex character"):
        TruthTable.from_hex(text)


@given(st.data())
def test_hex_round_trip_and_single_bad_character_property(data):
    n = data.draw(st.integers(2, 12), label="n")
    t = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1), label="bits"))
    text = t.to_hex()
    assert TruthTable.from_hex(text) == t
    assert TruthTable.from_hex(text.upper(), n) == t
    pos = data.draw(st.integers(0, len(text) - 1), label="pos")
    bad = data.draw(
        st.characters(exclude_characters="0123456789abcdefABCDEF"), label="bad"
    )
    with pytest.raises(ValueError):
        TruthTable.from_hex(text[:pos] + bad + text[pos + 1:], n)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruthTable(1)
    with pytest.raises(ValueError):
        TruthTable(25)
    with pytest.raises(ValueError):
        TruthTable(2, 1 << 16)
    with pytest.raises(ValueError):
        TruthTable.from_support(2, [4])
    with pytest.raises(ValueError, match="support point -1"):
        TruthTable.from_support(3, [1, -1, 9])
    assert TruthTable.from_support(3, {1, 6}) == TruthTable.from_values(
        3, [0, 1, 0, 0, 0, 0, 1, 0]
    )
    assert TruthTable.from_support(3, [6, 1, 6, 1]).weight() == 2
    assert TruthTable.from_support(3, []) == TruthTable(3)
    with pytest.raises(ValueError):
        TruthTable.from_values(2, [0, 1])


@given(st.data())
def test_from_support_matches_from_values(data):
    n = data.draw(st.integers(2, 10), label="n")
    supp = data.draw(st.lists(st.integers(0, (1 << n) - 1)), label="support")
    vals = [int(x in supp) for x in range(1 << n)]
    assert TruthTable.from_support(n, supp) == TruthTable.from_values(n, vals)


def test_xor_and_complement():
    f = tt_x1(4)
    assert (f ^ f).weight() == 0
    assert f.complement().weight() == 8
    assert (f ^ f.complement()).weight() == 16


# ----------------------------------------------------------------------
# ANF
# ----------------------------------------------------------------------

def test_anf_constant_and_product():
    one = TruthTable.from_function(2, lambda x: 1)
    p = one.anf()
    assert p.monomials() == [0] and p.degree() == 0 and not p.is_zero
    prod = TruthTable.from_support(2, [3])  # x1x2
    q = prod.anf()
    assert q.monomials() == [3] and q.degree() == 2


def test_anf_zero_function_flagged():
    p = TruthTable(4).anf()
    assert p.is_zero and p.degree() == 0


def test_degree_matches_naive_max_over_monomials():
    rng = random.Random(41)
    for _ in range(20):
        f = TruthTable(6, rng.getrandbits(64))
        p = f.anf()
        naive = max(
            (a.bit_count() for a in range(64) if (p.coeffs >> a) & 1), default=0
        )
        assert p.degree() == naive == f.degree()


def test_bit_readers_match_per_bit_reads():
    rng = random.Random(43)
    for n in range(2, 13):
        for bits in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)):
            f = TruthTable(n, bits)
            p = AnfPoly(n, bits)
            per_bit = [x for x in range(1 << n) if (bits >> x) & 1]
            assert f.support() == per_bit == p.monomials()
            assert repr(p) == f"AnfPoly(n={n}, monomials={len(per_bit)})"


def test_degree_at_n20():
    p = symmetric_bent(20).anf()
    assert p.degree() == symmetric_bent(20).degree() == 2
    pairs = itertools.combinations(range(20), 2)
    assert p.monomials() == sorted((1 << i) | (1 << j) for i, j in pairs)


def test_moebius_involution_exhaustive_n4():
    # batch all 2^16 tables through the butterfly twice
    tables = np.arange(1 << 16, dtype=np.uint32)
    vals = ((tables[:, None] >> np.arange(16)[None, :]) & 1).astype(np.uint8)
    a = vals.copy()
    for _ in range(2):
        h = 1
        while h < 16:
            a = a.reshape(-1, 2, h)
            a[:, 1, :] ^= a[:, 0, :]
            a = a.reshape(len(tables), 16)
            h *= 2
    assert np.array_equal(a, vals)


@given(st.data())
def test_moebius_involution_property(data):
    n = data.draw(st.integers(2, 12), label="n")
    f = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1), label="bits"))
    assert f.anf().to_truth_table() == f
    assert TruthTable(n, f.anf().coeffs).anf().coeffs == f.bits


def test_anf_evaluation_reproduces_function():
    rng = random.Random(11)
    for n, trials in ((4, 60), (8, 10)):
        for _ in range(trials):
            f = TruthTable(n, rng.getrandbits(1 << n))
            p = f.anf()
            assert p.to_truth_table() == f
            for x in range(1 << n):
                assert p.evaluate(x) == f[x]


def affine_tables(n: int) -> set[int]:
    out = set()
    for a in range(1 << n):
        for eps in (0, 1):
            tt = 0
            for x in range(1 << n):
                tt |= (((a & x).bit_count() & 1) ^ eps) << x
            out.add(tt)
    return out


def test_degree_at_most_one_iff_affine_exhaustive_n4():
    affine = affine_tables(4)
    tables = np.arange(1 << 16, dtype=np.uint32)
    vals = ((tables[:, None] >> np.arange(16)[None, :]) & 1).astype(np.uint8)
    a = vals.copy()
    h = 1
    while h < 16:
        a = a.reshape(-1, 2, h)
        a[:, 1, :] ^= a[:, 0, :]
        a = a.reshape(-1, 16)
        h *= 2
    weights = np.array([x.bit_count() for x in range(16)])
    degs = np.max(np.where(a.astype(bool), weights[None, :], 0), axis=1)
    low = set(np.nonzero(degs <= 1)[0].tolist())
    assert low == affine


# ----------------------------------------------------------------------
# derivatives
# ----------------------------------------------------------------------

def test_derivative_at_zero_is_zero():
    rng = random.Random(3)
    f = TruthTable(4, rng.getrandbits(16))
    assert f.derivative(0).weight() == 0


def test_derivative_of_linear_is_constant():
    f = tt_x1(4)
    for u in range(16):
        d = f.derivative(u)
        assert d.weight() in (0, 16)
        assert d[0] == f[u]


def test_derivative_product_example():
    f = TruthTable.from_support(2, [3])  # x1x2
    want = TruthTable.from_function(2, lambda x: (x & 1) ^ ((x >> 1) & 1) ^ 1)
    assert f.derivative(3) == want


# ----------------------------------------------------------------------
# subspace indicators
# ----------------------------------------------------------------------

def test_indicator_of_origin_and_full_space():
    f = subspace_indicator(4, [])
    assert f.support() == [0]
    g = subspace_indicator(4, [1, 2, 4, 8])
    assert g.weight() == 16


def test_indicator_matches_example_subspace():
    f = subspace_indicator(4, [0b0001, 0b0100])
    assert set(f.support()) == {0b0000, 0b0001, 0b0100, 0b0101}


def test_indicator_rejects_dependent_basis():
    with pytest.raises(ValueError):
        subspace_indicator(4, [1, 2, 3])


def test_subspace_span_and_reduce():
    assert sorted(subspace_span([1, 4])) == [0, 1, 4, 5]
    assert len(reduce_basis([1, 2, 3])) == 2
    assert len(reduce_basis([1, 2, 4])) == 3
    rng = random.Random(5)
    for _ in range(50):
        vs = [rng.randrange(1 << 6) for _ in range(rng.randrange(1, 6))]
        basis = reduce_basis(vs)
        # fully reduced: each leading bit is set in exactly one basis vector
        for b in basis:
            pivot = 1 << (b.bit_length() - 1)
            assert sum(1 for c in basis if c & pivot) == 1
        span = {0}
        for v in vs:
            span |= {s ^ v for s in span}
        assert 2 ** len(basis) == len(span)


def test_indicator_support_size_is_power_of_dim():
    rng = random.Random(9)
    for _ in range(20):
        vecs = [rng.randrange(1, 1 << 6) for _ in range(3)]
        basis = reduce_basis(vecs)
        f = subspace_indicator(6, basis)
        assert f.weight() == 1 << len(basis)


# ----------------------------------------------------------------------
# symmetric bent functions
# ----------------------------------------------------------------------

def test_symmetric_bent_is_bent_and_distinct():
    for n in range(4, 13, 2):
        tts = {symmetric_bent(n, e1, e2).bits for e1 in (0, 1) for e2 in (0, 1)}
        assert len(tts) == 4
        for bits in tts:
            assert is_bent(TruthTable(n, bits))


def test_symmetric_bent_value_pattern():
    for n in (4, 6, 8):
        for e1, e2 in itertools.product((0, 1), repeat=2):
            c = symmetric_value_pattern(n, e1, e2)
            f = symmetric_bent(n, e1, e2)
            for k in range(n - 1):
                assert c[k + 2] == c[k] ^ 1
            for x in range(1 << n):
                assert f[x] == c[x.bit_count()]


def test_symmetric_bent_permutation_invariant():
    n = 6
    f = symmetric_bent(n, 1, 0)
    rng = random.Random(17)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        g = TruthTable.from_function(
            n,
            lambda x: f[sum(((x >> i) & 1) << perm[i] for i in range(n))],
        )
        assert g == f


def test_symmetric_bent_rejects_odd_or_tiny_n():
    with pytest.raises(ValueError):
        symmetric_bent(5)
    with pytest.raises(ValueError):
        symmetric_bent(2)


# ----------------------------------------------------------------------
# Maiorana-McFarland
# ----------------------------------------------------------------------

def test_mm_identity_permutation_is_x1x3_x2x4():
    f = mm_bent(list(range(4)), TruthTable(2, 0))
    want = TruthTable.from_function(
        4, lambda x: (x & (x >> 2) & 1) ^ ((x >> 1) & (x >> 3) & 1)
    )
    assert f == want
    assert dual(f) == f  # self-dual


def test_mm_bent_for_random_permutations():
    rng = random.Random(23)
    for k in (2, 3):
        for _ in range(10):
            pi = list(range(1 << k))
            rng.shuffle(pi)
            g = TruthTable(k, rng.getrandbits(1 << k))
            assert is_bent(mm_bent(pi, g))


def test_mm_dual_matches_spectral_dual():
    rng = random.Random(29)
    for _ in range(20):
        pi = list(range(8))
        rng.shuffle(pi)
        g = TruthTable(3, rng.getrandbits(8))
        f = mm_bent(pi, g)
        d = mm_dual(pi, g)
        assert d == dual(f)
        assert dual(d) == f  # involution


def test_mm_rejects_non_bijection():
    with pytest.raises(ValueError):
        mm_bent([0, 0, 1, 2], TruthTable(2, 0))
    with pytest.raises(ValueError):
        mm_bent([0, 1, 2], TruthTable(2, 0))
    with pytest.raises(ValueError):
        mm_bent(list(range(4)), TruthTable(3, 0))  # wrong g arity

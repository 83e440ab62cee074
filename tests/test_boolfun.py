import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bentkit.boolfun import (
    AnfPoly,
    TruthTable,
    _independent,
    _row_reduce,
    _weights_array,
    mm_bent,
    mm_dual,
    subspace_indicator,
    subspace_span,
    symmetric_bent,
    symmetric_value_pattern,
)
from bentkit.spectral import dual, hamming_dist, is_bent
from oracles import popcount_array, reduce_basis


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
    # every table at n = 2 (one digit, half a byte) and n = 3 (two digits)
    for n in (2, 3):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert len(t.to_hex()) == (1 << n) // 4
            assert TruthTable.from_hex(t.to_hex()) == t
            assert TruthTable.from_hex(t.to_hex().upper(), n) == t


def test_hex_rejects_bad_lengths():
    with pytest.raises(ValueError):
        TruthTable.from_hex("abc")  # 3 digits is not a power of two
    with pytest.raises(ValueError):
        TruthTable.from_hex("ab", n=4)  # n=4 needs 4 digits


@pytest.mark.parametrize(
    "text",
    ["0x6c", "6_c0", "+6ca", "-6ca", "6c a0", "6cg0",
     "ab cd", "ab\ncd", "ab    cd", "ab\t\t\t\tcd"],
)
def test_hex_rejects_non_hex_characters(text):
    # int(text, 16) accepts the first four of these, and bytes.fromhex the
    # whitespace between digit pairs of the last four (the 8-character ones
    # have a valid length for n = 5)
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


def _codec_cases(n):
    """(bits, other bits) pairs: every table at n = 2, 3, else two seeded ones."""
    if n <= 3:
        tables = range(1 << (1 << n))
        return [(a, (a * 7 + 3) % len(tables)) for a in tables]
    rng = random.Random(100 + n)
    return [(rng.getrandbits(1 << n), rng.getrandbits(1 << n)) for _ in range(2)]


@pytest.mark.parametrize("n", range(2, 25))
def test_packed_and_int_backed_tables_agree(n):
    # from_hex keeps the packed table it parsed, TruthTable(n, bits) starts
    # from an int; the hex and the values below are derived from the int alone
    size = 1 << n
    for bits, other_bits in _codec_cases(n):
        digits = format(bits, f"0{size // 4}x")
        packed = TruthTable.from_hex(digits)
        by_int = TruthTable(n, bits)
        other = TruthTable(n, other_bits)
        assert packed == by_int and hash(packed) == hash(by_int)
        assert packed.bits == by_int.bits == bits
        want = np.unpackbits(
            np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8),
            bitorder="little",
        )[:size]
        for t in (packed, by_int):
            assert np.array_equal(t.values(), want)
            assert t.to_hex() == digits
            assert t.weight() == bits.bit_count()
            assert (t ^ other).bits == bits ^ other_bits
            assert (t ^ other) == TruthTable(n, bits ^ other_bits)
            assert hamming_dist(t, other) == (bits ^ other_bits).bit_count()
            assert t.complement().bits == bits ^ ((1 << size) - 1)
        for x in (0, 1, size // 2 + 1, size - 1):
            assert packed[x] == by_int[x] == (bits >> x) & 1


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
    with pytest.raises(ValueError, match="support point -2 "):
        TruthTable.from_support(3, np.array([5, -2, 9]))
    # beyond int64: still the range error, not numpy's OverflowError
    with pytest.raises(ValueError, match=f"support point {2**70} "):
        TruthTable.from_support(3, [1, 2**70, -1])
    assert TruthTable.from_support(3, np.array([6, 1])) == TruthTable.from_support(3, [1, 6])
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


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_from_values_of_an_array_matches_its_element_list(n, dtype):
    # an array takes the direct cast; its list of numpy scalars the generic path
    arr = np.random.default_rng(n).integers(0, 2, 1 << n).astype(dtype)
    f = TruthTable.from_values(n, arr)
    assert f == TruthTable.from_values(n, list(arr)) == TruthTable.from_values(n, arr.tolist())
    assert TruthTable.from_values(n, arr.reshape(2, -1)) == f
    for wrong in (arr[1:], np.concatenate([arr, arr[:1]])):
        with pytest.raises(ValueError) as by_list:
            TruthTable.from_values(n, list(wrong))
        with pytest.raises(ValueError, match=f"^{by_list.value}$"):
            TruthTable.from_values(n, wrong)


@pytest.mark.parametrize(
    "values",
    [
        [1, 0, 2, 3],
        [0.5, 0, 0, 1],
        [0, -1, 0, 1],
        np.array([0, -1, 0, 1]),
        np.array([0, 256, 0, 1]),
        np.array([0.0, np.nan, 0.0, 1.0]),
        [0, 1, 0, 1 << 70],
        ["0", "1", "0", "1"],
    ],
)
def test_from_values_takes_only_0_and_1(values):
    with pytest.raises(ValueError, match="is not 0 or 1"):
        TruthTable.from_values(2, values)


def test_from_values_agrees_with_from_function():
    want = TruthTable.from_function(2, [1, 0, 0, 1].__getitem__)
    assert want.to_hex() == "9"
    for values in (
        [True, False, False, True],
        np.array([True, False, False, True]),
        [1, 0, 0, 1],
        np.array([1, 0, 0, 1], dtype=np.int64),
        np.array([1.0, 0.0, 0.0, 1.0]),
    ):
        assert TruthTable.from_values(2, values) == want


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


def test_anf_builds_no_int(monkeypatch):
    # only `bits` and `coeffs` turn the packed bits into an int
    f = symmetric_bent(12)
    g = TruthTable(12, f.bits)

    def no_int(self):
        raise AssertionError("built the table as an int")

    monkeypatch.setattr(TruthTable, "bits", property(no_int))
    monkeypatch.setattr(AnfPoly, "coeffs", property(no_int))
    p = f.anf()
    assert p.degree() == f.degree() == 2 and not p.is_zero
    assert len(p.monomials()) == 66 and repr(p) == "AnfPoly(n=12, monomials=66)"
    assert [p.evaluate(x) for x in range(64)] == [f[x] for x in range(64)]
    assert p.to_truth_table() == g
    assert TruthTable(12).anf().is_zero


def test_anf_poly_is_hashable_and_read_only():
    p, q = TruthTable(4, 0x1234).anf(), AnfPoly(4, TruthTable(4, 0x1234).anf().coeffs)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != TruthTable(4, p.coeffs) and q != AnfPoly(4, 1)
    with pytest.raises(AttributeError):
        p.coeffs = 1
    with pytest.raises(ValueError, match="coefficient table does not fit"):
        AnfPoly(2, 1 << 4)


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


def _span_by_doubling(basis):
    """The span as a list: point i is the XOR of the vectors at the set bits of i."""
    span = [0]
    for b in basis:
        span += [s ^ b for s in span]
    return span


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
        assert subspace_span(vs) == _span_by_doubling(vs)
        assert _independent(vs) == (len(basis) == len(vs))
        vecs, pivot = _row_reduce(np.array([vs]), 6)
        # the fully reduced echelon form of a span is unique
        assert sorted(vecs[pivot >= 0].tolist(), reverse=True) == basis
        assert sorted(pivot[pivot >= 0].tolist(), reverse=True) == [
            b.bit_length() - 1 for b in basis
        ]


@pytest.mark.parametrize(
    "vectors, independent",
    [
        ([], True),
        ([0], False),
        ([3, 5, 6], False),
        ([1 << 70, 1 << 70], False),
        ([1 << 70, 1], True),
        ([1 << 63, 1 << 64, (1 << 63) ^ (1 << 64)], False),
        # a negative int is its two's-complement bit string: -1 is all ones
        ([2, -8], True),
        ([-1, -1], False),
        ([-1, 1], True),
        ([-2, -3, 3], False),
        ([-(1 << 63), 1], True),
        ([-(1 << 70), (1 << 70) - 1, -1], False),
    ],
)
def test_independent_reads_any_int(vectors, independent):
    assert _independent(vectors) is independent


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


def test_weight_table_is_the_popcount():
    for n in range(1, 17):
        w = _weights_array(n)
        assert w.dtype == np.uint8
        assert np.array_equal(w, popcount_array(np.arange(1 << n)))


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


def test_mm_dual_is_the_pointwise_dual_at_k9():
    # a random pi and g on a 512 x 512 grid, against the pointwise formula
    rng = random.Random(31)
    k = 9
    pi = list(range(1 << k))
    rng.shuffle(pi)
    g = TruthTable(k, rng.getrandbits(1 << k))
    pinv = np.argsort(pi)
    x = np.arange(1 << k)[None, :]
    y = np.arange(1 << k)[:, None]
    # f~(x, y) = y . pi^-1(x) + g(pi^-1(x)) at index x + 2^k y
    want = (popcount_array(y & pinv[x]) & 1) ^ g.values()[pinv[x]]
    assert np.array_equal(mm_dual(pi, g).values(), want.reshape(-1))


def test_mm_rejects_non_bijection():
    with pytest.raises(ValueError):
        mm_bent([0, 0, 1, 2], TruthTable(2, 0))
    with pytest.raises(ValueError):
        mm_bent([0, 1, 2], TruthTable(2, 0))
    with pytest.raises(ValueError):
        mm_bent(list(range(4)), TruthTable(3, 0))  # wrong g arity

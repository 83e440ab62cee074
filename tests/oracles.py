"""References for the tests, computed without bentkit: spectra by an int64
butterfly, tables point by point, a SWAR popcount, and GF(2^k) arithmetic
by schoolbook products, long division and conjugate sums.  The field
oracles read only a context's `k` and `poly`, never its tables."""

import functools

import numpy as np

from bentkit.boolfun import TruthTable


def popcount_array(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint32 array (SWAR; values below 2^32)."""
    v = arr.astype(np.uint32)
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    return (v * 0x01010101) >> 24


def fwht_int64_reference(f: TruthTable) -> np.ndarray:
    """Out-of-place int64 butterfly over the +-1 signs of f."""
    a = np.array([1 - 2 * f[x] for x in range(f.size)], dtype=np.int64)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        a = np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1).reshape(-1)
        h *= 2
    return a


def reduce_basis(vectors) -> list[int]:
    """Row-reduce a set of point masks to a basis of their span, one vector
    at a time, in fully reduced echelon form: each vector's leading bit is
    set in no other, and the vectors come in descending order of that bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return basis


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
    """Remainder of a modulo m by long division."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def field_mul_oracle(a: int, b: int, poly: int) -> int:
    return poly_mod_oracle(poly_mul_oracle(a, b), poly)


def inv_oracle(a: int, poly: int) -> int:
    """a^-1 modulo poly by the extended Euclidean algorithm over GF(2)[x]:
    s0 a = r0 and s1 a = r1 modulo poly at every step."""
    r0, r1, s0, s1 = poly, a, 0, 1
    while r1:
        q = 0
        while r0.bit_length() >= r1.bit_length():
            shift = r0.bit_length() - r1.bit_length()
            q ^= 1 << shift
            r0 ^= r1 << shift
        r0, r1, s0, s1 = r1, r0, s1, s0 ^ poly_mul_oracle(q, s1)
    assert r0 == 1, f"{a} has no inverse modulo {poly:#x}"
    return poly_mod_oracle(s0, poly)


def trace_oracle(a: int, poly: int) -> int:
    """Absolute trace as the sum of the k conjugates a, a^2, a^4, ..."""
    t = 0
    for _ in range(poly.bit_length() - 1):
        t ^= a
        a = field_mul_oracle(a, a, poly)
    return t


@functools.cache
def _gram_tables_oracle(k: int, poly: int) -> tuple[list[int], list[int]]:
    """x -> Gx over the field and its inverse, point by point: bit i of Gx
    is the parity of x & row i, row i holding Tr(x^i x^j) at bit j."""
    rows = [
        sum(trace_oracle(field_mul_oracle(1 << i, 1 << j, poly), poly) << j for j in range(k))
        for i in range(k)
    ]
    forward = [
        sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))
        for x in range(1 << k)
    ]
    assert sorted(forward) == list(range(1 << k)), "G is singular"
    inverse = [0] * (1 << k)
    for x, gx in enumerate(forward):
        inverse[gx] = x
    return forward, inverse


def gram_map_oracle(ctx, u: int, inverse: bool = False) -> int:
    """diag(G, G), or its inverse, applied to the packed pair u."""
    table = _gram_tables_oracle(ctx.k, ctx.poly)[inverse]
    return table[u & ((1 << ctx.k) - 1)] | table[u >> ctx.k] << ctx.k


def reference_spectrum(f: TruthTable, pairing=None) -> np.ndarray:
    """The spectrum of f under `pairing` by the int64 butterfly.  The trace
    form is diag(G, G), so W_tr is the standard spectrum of
    f o diag(G, G)^-1, re-indexed here point by point through
    `gram_map_oracle`."""
    if pairing is not None:
        f = TruthTable.from_values(
            f.n, [f[gram_map_oracle(pairing, x, inverse=True)] for x in range(f.size)]
        )
    return fwht_int64_reference(f)


def spread_table_reference(ctx, cols, plus: bool) -> np.ndarray:
    """The 0/1 table of the partial-spread function on the spread columns
    `cols`, point by point: (x, x a) from `field_mul_oracle` for E_a,
    (0, y) for the line at infinity (column 2^k), and the origin set for the
    plus type only."""
    k = ctx.k
    vals = np.zeros(1 << (2 * k), dtype=np.uint8)
    for c in cols:
        for x in range(1 << k):
            vals[x << k if c == 1 << k else x | field_mul_oracle(x, c, ctx.poly) << k] = 1
    vals[0] = plus
    return vals


def restricted_sum_reference(f: TruthTable, u: int, subset: str) -> int:
    """sum of (-1)^(f(x) + u.x) over the inputs x of even (or odd) weight,
    point by point."""
    odd = subset == "odd"
    return sum(
        1 - 2 * (f[x] ^ ((x & u).bit_count() & 1))
        for x in range(f.size)
        if (x.bit_count() & 1) == odd
    )

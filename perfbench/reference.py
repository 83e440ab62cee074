"""Independent reference computations for the benchmark's correctness gate.

Nothing here imports bentkit: the field arithmetic, the trace form, the
Walsh-Hadamard transform and the hex codec are re-derived in plain Python
and numpy, so a gate that compares bentkit's output against these values is
a second route, not the code under test checking itself.

Conventions follow bentkit's documented ones: point (x, y) of
F_{2^k} x F_{2^k} sits at index x + 2^k * y, and a truth table serializes
as 2^n / 4 lowercase hex digits with f(0)..f(3) in the rightmost digit.
"""

from __future__ import annotations

import numpy as np


def gf_mul(a: int, b: int, k: int, poly: int) -> int:
    """Carry-less product in GF(2^k) modulo `poly`."""
    p = 0
    for i in range(k):
        if (b >> i) & 1:
            p ^= a << i
    for i in range(2 * k - 2, k - 1, -1):
        if (p >> i) & 1:
            p ^= poly << (i - k)
    return p


def gf_mul_table(k: int, poly: int) -> np.ndarray:
    """The full 2^k x 2^k multiplication table (use for small k only)."""
    size = 1 << k
    a = np.arange(size, dtype=np.int64)[:, None]
    prod = np.zeros((size, size), dtype=np.int64)
    for i in range(k):
        bit = (np.arange(size, dtype=np.int64)[None, :] >> i) & 1
        prod ^= bit * (a << i)
    for i in range(2 * k - 2, k - 1, -1):
        prod ^= ((prod >> i) & 1) * (poly << (i - k))
    return prod


def gf_inv_table(mul: np.ndarray) -> np.ndarray:
    """inv[a] with a * inv[a] = 1, and inv[0] = 0."""
    inv = np.zeros(mul.shape[0], dtype=np.int64)
    rows, cols = np.nonzero(mul == 1)
    inv[rows] = cols
    return inv


def gf_trace(a: int, k: int, poly: int) -> int:
    """Absolute trace a + a^2 + ... + a^(2^(k-1)), in {0, 1}."""
    t, frob = a, a
    for _ in range(k - 1):
        frob = gf_mul(frob, frob, k, poly)
        t ^= frob
    return t


def pairing_perm(k: int, poly: int) -> np.ndarray:
    """u -> diag(G, G) u on packed 2k-bit indices, G the trace-form Gram
    matrix G[i][j] = Tr(x^i x^j).  The trace-pairing spectrum is the standard
    spectrum read through this map: W_T(u) = W(Gu)."""
    rows = [
        sum(gf_trace(gf_mul(1 << i, 1 << j, k, poly), k, poly) << j for j in range(k))
        for i in range(k)
    ]
    images = rows + [r << k for r in rows]
    perm = np.zeros(1 << (2 * k), dtype=np.uint32)
    for b, img in enumerate(images):
        perm[1 << b: 2 << b] = perm[: 1 << b] ^ img
    return perm


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard spectrum of a 0/1 table under the standard dot product."""
    a = 1 - 2 * values.astype(np.int64)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        h *= 2
    return a.reshape(-1)


def parity(v: np.ndarray) -> np.ndarray:
    """Parity of the popcount of each uint32 element, as uint8."""
    v = v.astype(np.uint32)
    for s in (16, 8, 4, 2, 1):
        v = v ^ (v >> s)
    return (v & 1).astype(np.uint8)


def to_hex(values: np.ndarray) -> str:
    """bentkit's hex serialization of a 0/1 table of length 2^n, n >= 2."""
    nibbles = values.astype(np.uint8).reshape(-1, 4) @ np.array([1, 2, 4, 8], np.uint8)
    return np.frombuffer(b"0123456789abcdef", np.uint8)[nibbles[::-1]].tobytes().decode()


def mm_tables(k: int, pi: list[int], g: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Maiorana-McFarland f(x, y) = x . pi(y) + g(y) and its closed-form dual
    f~(a, b) = b . pi^-1(a) + g(pi^-1(a)) under the standard dot product."""
    p = np.asarray(pi, dtype=np.uint32)
    gv = np.asarray(g, dtype=np.uint8)
    idx = np.arange(1 << k, dtype=np.uint32)
    f = parity(idx[None, :] & p[:, None]) ^ gv[:, None]  # row y, column x
    pinv = np.empty_like(p)
    pinv[p] = idx
    d = parity(idx[:, None] & pinv[None, :]) ^ gv[pinv][None, :]  # row b, column a
    return f.reshape(-1), d.reshape(-1)


def spread_minus_table(k: int, poly: int, lines: list[int | None]) -> np.ndarray:
    """Indicator of the union of the given lines minus the origin; a line is
    a field element a for E_a = {(x, xa)} or None for {(0, y)}."""
    mul = gf_mul_table(k, poly)
    xs = np.arange(1 << k, dtype=np.int64)
    f = np.zeros(1 << (2 * k), dtype=np.uint8)
    for a in lines:
        f[xs << k if a is None else xs | (mul[:, a] << k)] = 1
    f[0] = 0
    return f


def quotient_table(k: int, poly: int, g: list[int]) -> np.ndarray:
    """f(x, y) = g(x / y) with x / 0 = 0 (inv[0] = 0 gives that row)."""
    mul = gf_mul_table(k, poly)
    inv = gf_inv_table(mul)
    gv = np.asarray(g, dtype=np.uint8)
    return gv[mul[:, inv]].T.reshape(-1)  # row y, column x


def trace_rayleigh_n(f: np.ndarray, dual_std: np.ndarray, perm: np.ndarray) -> int:
    """N = sum_x (-1)^(f(x) + f~_T(x)) where the trace-pairing dual is
    f~_T(u) = f~(Gu)."""
    return f.size - 2 * int(np.count_nonzero(f ^ dual_std[perm]))

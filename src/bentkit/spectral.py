"""Walsh-Hadamard machinery: spectra, bentness, duals, Rayleigh quotients.

Every operation takes an optional `pairing` argument selecting the inner
product on the domain:

  * ``None``        -- the standard dot product x . u (the default);
  * a ``GF2k`` ctx  -- the trace form Tr(xx') + Tr(yy') on
                       F_{2^k} x F_{2^k}, for functions on n = 2k variables.

The trace form is diag(G, G) with G the field's k x k Gram matrix.  G is
symmetric, so the trace-form spectrum W_tr(x, y) = W(Gx, Gy) is the standard
spectrum of f o diag(G, G)^-1: `wht` views the one-byte input table as a
2^k x 2^k grid (row y, column x), re-indexes rows and columns through G^-1
(the inverse permutation of the field's k-bit Gram index) and runs the one
standard transform.  Bentness never depends on the pairing while duals and
distances do.

The transform runs on the 0/1 table itself: W = 2^n [u = 0] - 2 (H f).  H is
the Kronecker factorisation H_{2^n} = H_{2^b1} x ... x H_{2^bd} with every
b <= 4, one float32 matrix product (one BLAS sgemm) per factor and block,
computed in place in the one float32 copy of the table:

  * the low <= 16 index bits block by block: a block of 2^16 entries
    (256 KiB) ping-pongs with one scratch block, each factor transforming
    the top b bits and writing them back as the bottom b bits, so the
    block's index order is restored after its factors;
  * every further <= 4 bits as one factor over column strips of the
    table, each strip computed into the scratch and written back.

The last factor multiplies by -2 H_{2^b}, and its result is cast into the
int32 view of the same buffer, so an n = 24 transform holds one 64 MB
buffer.  float32 is exact here: every product and every partial sum, in any
summation order, is an integer of magnitude <= 2^n <= 2^24 (an even one of
magnitude <= 2^25 in the last factor), and float32 holds every such integer.
Spectrum values are 32-bit signed integers.  Sums that can exceed that range
(Parseval's sum of squares, the Rayleigh sum) accumulate exactly in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .boolfun import (
    TruthTable,
    _linear_index_map,
    _pack_values,
    popcount_array,
    reduce_basis,
)
from .field import GF2k

Pairing = GF2k | None


class NotBentError(ValueError):
    """Raised when an operation needs a bent function; carries a witness point."""

    def __init__(self, n: int, u: int, value: int):
        self.u = u
        self.value = value
        super().__init__(
            f"function is not bent: |W({u})| = {abs(value)} != 2^{n // 2}"
        )


class SingularMatrixError(ValueError):
    pass


# Sylvester's H_16; H_{2^b} for b <= 4 is its top-left 2^b x 2^b corner.
_H16 = np.array(
    [[1 - 2 * ((i & j).bit_count() & 1) for j in range(16)] for i in range(16)],
    dtype=np.float32,
)
# Indexed by "is this the last factor": the last one multiplies by -2 H.
_FACTORS = (_H16, -2 * _H16)

# Entries per block of the low-bit stage, and of the one scratch buffer: 256 KiB.
_BLOCK = 1 << 16


def _fwht(a: np.ndarray) -> np.ndarray:
    """-2 (H a) for the float32 vector `a` of size 2^n, computed in place;
    returns the int32 view of a's buffer that holds it."""
    out = a.view(np.int32)
    scratch = np.empty(min(a.size, _BLOCK), dtype=np.float32)
    single = a.size == scratch.size
    # Low bits, block by block: each factor transforms the top b bits and
    # writes them back as the bottom b bits, ping-ponging with the scratch.
    for start in range(0, a.size, scratch.size):
        x, y = a[start:start + scratch.size], scratch
        bits = scratch.size.bit_length() - 1
        while bits:
            b = min(bits, 4)
            bits -= b
            h = _FACTORS[single and not bits][: 1 << b, : 1 << b]
            np.matmul(x.reshape(1 << b, -1).T, h, out=y.reshape(-1, 1 << b))
            x, y = y, x
    if single:
        # x is `a` itself after an even number of factors; copyto handles
        # the overlap of a 1-D in-place cast
        np.copyto(out, x, casting="unsafe")
        return out
    # High bits (16 low bits are an even number of factors, so every block
    # ended in place): one factor per <= 4 bits over column strips of the
    # (above, 2^b, below) view, each strip through the scratch and back.
    step = scratch.size
    while step < a.size:
        m = min(a.size // step, 16)
        last = step * m == a.size
        h = _FACTORS[last][:m, :m]
        buf = scratch.reshape(m, -1)
        grid = a.reshape(-1, m, step)
        dest = out.reshape(grid.shape) if last else grid
        for i in range(len(grid)):
            for c in range(0, step, buf.shape[1]):
                cols = slice(c, c + buf.shape[1])
                np.matmul(h, grid[i, :, cols], out=buf)
                np.copyto(dest[i, :, cols], buf, casting="unsafe")
        step *= m
    return out


def _dot64(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of a * b, accumulated in int64 without an int64 copy."""
    return int(np.einsum("i,i->", a, b, dtype=np.int64))


@dataclass
class WalshSpectrum:
    """Full spectrum of one function under one pairing."""

    n: int
    values: np.ndarray
    pairing: Pairing = None

    def __getitem__(self, u: int) -> int:
        return int(self.values[u])

    def max_abs(self) -> int:
        return max(int(self.values.max()), -int(self.values.min()))

    def parseval_ok(self) -> bool:
        return _dot64(self.values, self.values) == 1 << (2 * self.n)


def _transform_input(f: TruthTable, pairing: Pairing) -> np.ndarray:
    """The 0/1 table whose standard transform is f's spectrum under `pairing`:
    f itself, or f o diag(G, G)^-1 for the trace form (module docstring)."""
    v = f.values()
    if pairing is None:
        return v
    g = pairing.gram_index
    g_inv = np.empty_like(g)
    g_inv[g] = np.arange(g.size)
    grid = v.reshape(g.size, g.size)
    # The columns go back into f's fresh table; with mode="clip" take writes
    # straight into `out` ("raise" buffers a copy), and g_inv is a
    # permutation of the grid's axis, so nothing is clipped.
    np.take(np.take(grid, g_inv, 0), g_inv, 1, out=grid, mode="clip")
    return v


def wht(f: TruthTable, pairing: Pairing = None) -> WalshSpectrum:
    """Walsh-Hadamard transform W(u) = sum_x (-1)^(f(x) + <u, x>)."""
    if pairing is not None and f.n != 2 * pairing.k:
        raise ValueError(
            f"trace pairing needs n = 2k = {2 * pairing.k}, got n = {f.n}"
        )
    # W = 2^n [u = 0] - 2 (H f); the uint8 input is freed before the transform.
    vals = _fwht(_transform_input(f, pairing).astype(np.float32))
    vals[0] += 1 << f.n
    spec = WalshSpectrum(f.n, vals, pairing)
    if not spec.parseval_ok():
        raise AssertionError("Parseval identity violated; transform is broken")
    return spec


def wht_restricted(f: TruthTable, u: int, subset: str = "even") -> int:
    """Walsh sum at u restricted to even-weight or odd-weight inputs.

    Standard dot product only; `subset` is "even" or "odd".
    """
    if subset not in ("even", "odd"):
        raise ValueError(f"subset must be 'even' or 'odd', got {subset!r}")
    if not 0 <= u < f.size:
        raise ValueError(f"point {u} out of range for n={f.n}")
    xs = np.arange(f.size, dtype=np.uint32)
    mask = (popcount_array(xs) & 1) == (1 if subset == "odd" else 0)
    chi = popcount_array(xs & u) & 1
    signs = 1 - 2 * (f.values() ^ chi).astype(np.int64)
    return int(signs[mask].sum())


def _nonlinearity(spec: WalshSpectrum) -> int:
    return (1 << (spec.n - 1)) - spec.max_abs() // 2


def _is_flat(spec: WalshSpectrum) -> bool:
    # Parseval (asserted by wht) makes max|W| = 2^(n/2) equivalent to every
    # |W(u)| = 2^(n/2), and impossible for odd n.
    return spec.max_abs() == 1 << (spec.n // 2)


def nonlinearity(f: TruthTable) -> int:
    """Distance to the nearest affine function: 2^(n-1) - max|W|/2."""
    return _nonlinearity(wht(f))


def is_bent(f: TruthTable) -> bool:
    """True iff the whole spectrum is flat at +-2^(n/2) (needs even n)."""
    return f.n % 2 == 0 and _is_flat(wht(f))


def _bent_spectrum(f: TruthTable, pairing: Pairing) -> WalshSpectrum:
    spec = wht(f, pairing)
    # Under Parseval a non-flat spectrum (every odd-n one included) has a
    # point with |W(u)| != 2^(n//2); the first one is the witness.
    if not _is_flat(spec):
        target = 1 << (f.n // 2)
        u = int(np.flatnonzero(np.abs(spec.values) != target)[0])
        raise NotBentError(f.n, u, spec[u])
    return spec


def _dual_from_spectrum(spec: WalshSpectrum) -> TruthTable:
    return TruthTable(spec.n, _pack_values(spec.values < 0))


def dual(f: TruthTable, pairing: Pairing = None) -> TruthTable:
    """The dual bent function: f~(u) = 1 iff W(u) = -2^(n/2)."""
    return _dual_from_spectrum(_bent_spectrum(f, pairing))


def _rayleigh_sum(f: TruthTable, spec: WalshSpectrum) -> int:
    """S = sum_x (-1)^f(x) W(x) from f's own spectrum."""
    signs = f.values().view(np.int8)  # a fresh table: (-1)^f built in place
    signs <<= 1
    np.subtract(1, signs, out=signs)
    return _dot64(signs, spec.values)


def _bent_quantities(f: TruthTable, spec: WalshSpectrum) -> tuple[int, int, int]:
    """(S, N, dist to the dual) of a bent f from its bent spectrum.

    The spectral distance 2^(n-1) - N/2 is always cross-checked against a
    direct comparison with the dual truth table.
    """
    s = _rayleigh_sum(f, spec)
    n_f = s >> (f.n // 2)
    d = (1 << (f.n - 1)) - n_f // 2
    direct = hamming_dist(f, _dual_from_spectrum(spec))
    if direct != d:
        raise AssertionError(f"spectral distance {d} != direct distance {direct}")
    return s, n_f, d


def rayleigh_quotient(f: TruthTable, pairing: Pairing = None) -> int:
    """S = sum_x (-1)^f(x) W(x); defined for every function."""
    return _rayleigh_sum(f, wht(f, pairing))


def rayleigh(f: TruthTable, pairing: Pairing = None) -> tuple[int, int]:
    """(S, N) for a bent function: N = S / 2^(n/2) = sum (-1)^(f + f~)."""
    s, n_f, _ = _bent_quantities(f, _bent_spectrum(f, pairing))
    return s, n_f


def hamming_dist(f: TruthTable, g: TruthTable) -> int:
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    return (f.bits ^ g.bits).bit_count()


def dist_to_dual(f: TruthTable, pairing: Pairing = None) -> int:
    """Hamming distance from a bent f to its dual, 2^(n-1) - N/2, cross-checked
    against a direct comparison with the dual truth table."""
    return _bent_quantities(f, _bent_spectrum(f, pairing))[2]


class Duality(Enum):
    SELF_DUAL = "self-dual"
    ANTI_SELF_DUAL = "anti-self-dual"
    NEITHER = "neither"


@dataclass(frozen=True)
class DualityClass:
    tag: Duality
    dist: int


def _duality_class(n: int, d: int) -> DualityClass:
    if d == 0:
        tag = Duality.SELF_DUAL
    elif d == 1 << n:
        tag = Duality.ANTI_SELF_DUAL
    else:
        tag = Duality.NEITHER
    return DualityClass(tag, d)


def duality_class(f: TruthTable, pairing: Pairing = None) -> DualityClass:
    """Distance-equivalence data of a bent function: its distance to the dual."""
    return _duality_class(f.n, dist_to_dual(f, pairing))


# ----------------------------------------------------------------------
# affine transforms of the domain
# ----------------------------------------------------------------------

def row_masks(matrix: Sequence, n: int) -> list[int]:
    """Normalize an n x n binary matrix to row masks (bit j-1 = entry [i][j])."""
    rows = list(matrix)
    if len(rows) != n:
        raise ValueError(f"need {n} rows, got {len(rows)}")
    out = []
    for r in rows:
        if isinstance(r, (int, np.integer)):
            mask = int(r)
            if mask >> n:
                raise ValueError(f"row mask {mask} wider than {n} bits")
        else:
            entries = list(r)
            if len(entries) != n:
                raise ValueError(f"need {n} entries per row, got {len(entries)}")
            mask = sum((e & 1) << j for j, e in enumerate(entries))
        out.append(mask)
    return out


def is_orthogonal(matrix: Sequence, n: int) -> bool:
    """True iff A A^T = I over F_2."""
    rows = row_masks(matrix, n)
    return all(
        ((rows[i] & rows[j]).bit_count() & 1) == (i == j)
        for i in range(n)
        for j in range(i, n)
    )


def affine_transform(f: TruthTable, matrix: Sequence, shift: int = 0) -> TruthTable:
    """g(x) = f(xA + b) for an invertible binary matrix A and point b.

    Row-vector convention: (xA)_j = sum_i x_i A[i][j].
    """
    rows = row_masks(matrix, f.n)
    if len(reduce_basis(rows)) != f.n:
        raise SingularMatrixError("matrix is singular over F_2")
    if not 0 <= shift < f.size:
        raise ValueError(f"shift {shift} out of range")
    perm = _linear_index_map(rows) ^ shift
    return TruthTable(f.n, _pack_values(f.values()[perm]))

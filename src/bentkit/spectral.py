"""Walsh-Hadamard machinery: spectra, bentness, duals, Rayleigh quotients.

Every operation takes an optional `pairing` argument selecting the inner
product on the domain:

  * ``None``        -- the standard dot product x . u (the default);
  * a ``GF2k`` ctx  -- the trace form Tr(xx') + Tr(yy') on
                       F_{2^k} x F_{2^k}, for functions on n = 2k variables.

The trace form is diag(G, G) with G the field's k x k Gram matrix, so the
trace-form spectrum is the standard one viewed as a 2^k x 2^k grid (row y,
column x) with rows and columns re-indexed through the field's k-bit Gram
index: W_tr(x, y) = W(Gx, Gy).  One audited butterfly serves both pairings,
so bentness never depends on the pairing while duals and distances do.

Spectrum values are 32-bit signed integers: every butterfly intermediate is
a partial Walsh sum, so |W| <= 2^n <= 2^24.  Sums that can exceed that range
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


def _fwht(signs: np.ndarray) -> np.ndarray:
    """Size-2^n butterfly on an int32 copy of the signs; O(n 2^n) integer adds.

    Each level runs in place through one half-size scratch buffer:
    tmp <- x; x += y; y <- tmp - y.
    """
    a = signs.astype(np.int32)
    tmp = np.empty(a.size // 2, dtype=np.int32)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0, :], pairs[:, 1, :]
        t = tmp.reshape(-1, h)
        np.copyto(t, x)
        x += y
        np.subtract(t, y, out=y)
        h *= 2
    return a


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


def _signs(f: TruthTable) -> np.ndarray:
    """(-1)^f(x) for every x, as int8."""
    return 1 - 2 * f.values().astype(np.int8)


def wht(f: TruthTable, pairing: Pairing = None) -> WalshSpectrum:
    """Walsh-Hadamard transform W(u) = sum_x (-1)^(f(x) + <u, x>)."""
    vals = _fwht(_signs(f))
    if pairing is not None:
        if f.n != 2 * pairing.k:
            raise ValueError(
                f"trace pairing needs n = 2k = {2 * pairing.k}, got n = {f.n}"
            )
        # Row y, column x: W_tr(x, y) = W(Gx, Gy).  With mode="clip" the
        # second take writes straight into the spectrum ("raise" buffers a
        # copy); g is a permutation of the grid's axis, so nothing is clipped.
        grid = vals.reshape(pairing.order, pairing.order)
        g = pairing.gram_index
        np.take(np.take(grid, g, axis=0), g, axis=1, out=grid, mode="clip")
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
    return _dot64(_signs(f), spec.values)


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

"""Walsh-Hadamard machinery: spectra, bentness, duals, Rayleigh quotients.

Every operation takes an optional `pairing` argument selecting the inner
product on the domain:

  * ``None``        -- the standard dot product x . u (the default);
  * a ``GF2k`` ctx  -- the trace form Tr(xx') + Tr(yy') on
                       F_{2^k} x F_{2^k}, for functions on n = 2k variables.

The trace-form spectrum is the standard spectrum re-indexed through the
context's Gram map (one audited butterfly, one bijective remap), so
bentness never depends on the pairing while duals and distances do.

Spectrum values are 64-bit signed integers; |W| <= 2^24 fits comfortably.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .boolfun import TruthTable, _pack_values, popcount_array, reduce_basis
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
    """In-place size-2^n butterfly; O(n 2^n) integer adds."""
    a = signs.astype(np.int64, copy=True)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :] + a[:, 1, :]
        bot = a[:, 0, :] - a[:, 1, :]
        a[:, 0, :] = top
        a[:, 1, :] = bot
        a = a.reshape(-1)
        h *= 2
    return a


def _linear_index_map(images: Sequence[int]) -> np.ndarray:
    """Index array u -> uA of the linear map sending point 2^b to images[b]."""
    perm = np.zeros(1 << len(images), dtype=np.int64)
    for b, img in enumerate(images):
        perm[1 << b: 2 << b] = perm[: 1 << b] ^ img
    return perm


_PERM_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _pairing_perm(ctx: GF2k, n: int) -> np.ndarray:
    """Index permutation u -> gram_map(u), built once per (field, n)."""
    key = (ctx.k, ctx.poly, n)
    perm = _PERM_CACHE.get(key)
    if perm is None:
        perm = _linear_index_map([ctx.gram_map(1 << b) for b in range(n)])
        _PERM_CACHE[key] = perm
    return perm


@dataclass
class WalshSpectrum:
    """Full spectrum of one function under one pairing."""

    n: int
    values: np.ndarray
    pairing: Pairing = None

    def __getitem__(self, u: int) -> int:
        return int(self.values[u])

    def max_abs(self) -> int:
        return int(np.max(np.abs(self.values)))

    def parseval_ok(self) -> bool:
        return int(self.values @ self.values) == 1 << (2 * self.n)


def wht(f: TruthTable, pairing: Pairing = None) -> WalshSpectrum:
    """Walsh-Hadamard transform W(u) = sum_x (-1)^(f(x) + <u, x>)."""
    signs = 1 - 2 * f.values().astype(np.int64)
    vals = _fwht(signs)
    if pairing is not None:
        if f.n != 2 * pairing.k:
            raise ValueError(
                f"trace pairing needs n = 2k = {2 * pairing.k}, got n = {f.n}"
            )
        vals = vals[_pairing_perm(pairing, f.n)]
    spec = WalshSpectrum(f.n, vals, pairing)
    if not spec.parseval_ok():
        raise AssertionError("Parseval identity violated; transform is broken")
    return spec


_PARITY_CACHE: dict[int, np.ndarray] = {}


def _parity_table(n: int) -> np.ndarray:
    """parity(popcount(x)) for x in 0..2^n-1, as uint8."""
    tab = _PARITY_CACHE.get(n)
    if tab is None:
        tab = (popcount_array(np.arange(1 << n, dtype=np.uint32)) & 1).astype(
            np.uint8
        )
        _PARITY_CACHE[n] = tab
    return tab


def wht_restricted(f: TruthTable, u: int, subset: str = "even") -> int:
    """Walsh sum at u restricted to even-weight or odd-weight inputs.

    Standard dot product only; `subset` is "even" or "odd".
    """
    if subset not in ("even", "odd"):
        raise ValueError(f"subset must be 'even' or 'odd', got {subset!r}")
    par = _parity_table(f.n)
    mask = par == (1 if subset == "odd" else 0)
    xs = np.arange(f.size, dtype=np.int64)
    chi = par[xs & u]
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
    if f.n % 2:
        raise NotBentError(f.n, 0, spec[0])
    target = 1 << (f.n // 2)
    bad = np.nonzero(np.abs(spec.values) != target)[0]
    if bad.size:
        u = int(bad[0])
        raise NotBentError(f.n, u, spec[u])
    return spec


def _dual_from_spectrum(spec: WalshSpectrum) -> TruthTable:
    return TruthTable(spec.n, _pack_values((spec.values < 0).astype(np.uint8)))


def dual(f: TruthTable, pairing: Pairing = None) -> TruthTable:
    """The dual bent function: f~(u) = 1 iff W(u) = -2^(n/2)."""
    return _dual_from_spectrum(_bent_spectrum(f, pairing))


def _rayleigh_sum(f: TruthTable, spec: WalshSpectrum) -> int:
    """S = sum_x (-1)^f(x) W(x) from f's own spectrum."""
    signs = 1 - 2 * f.values().astype(np.int64)
    return int(signs @ spec.values)


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

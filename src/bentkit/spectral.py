"""Walsh-Hadamard machinery: spectra, bentness, duals, Rayleigh quotients.

Every operation takes an optional `pairing` argument selecting the inner
product on the domain:

  * ``None``        -- the standard dot product x . u (the default);
  * a ``GF2k`` ctx  -- the trace form Tr(xx') + Tr(yy') on
                       F_{2^k} x F_{2^k}, for functions on n = 2k variables.

Bentness never depends on the pairing while duals and distances do.

There is one spectral path, over a (B, 2^n) uint8 stack of 0/1 tables, and
every single-table function is its one-row case.  `_spectra` transforms a
stack in chunks of <= 2^24 entries and checks every row.  A bent stack is
tested for flatness first by `_first_off`, the one flatness reader: one
walk in blocks of 2^16 entries to the first |W(u)| != 2^(n/2).  A flat
integer spectrum satisfies Parseval exactly, so Parseval's int64 sum runs
only on a chunk with some row not flat, or on a stack that need not be
bent, and tells a broken transform (AssertionError) from a non-bent row
(NotBentError names that first entry off, in the first bad row).

Each kind of spectrum has one reader.  `wht`, the one caller of
`_spectra(..., bent=False)`, reads a spectrum that need not be bent, and
`is_bent`, `nonlinearity` and `rayleigh_quotient` read its values.  A bent
stack is read by `dual` for its sign bits and by `_stack_identities`, the
one caller of `_row_sums`: the direct distance to the sign-bit dual, both
metric-identity forms and the zero-sum residual of every row.
`_stack_distances` checks each row's spectral distance against the direct
one; `metric_identity_check` reads one row, and `dist_to_dual`, `rayleigh`
and `duality_class` check one.

The trace form is diag(G, G) with G the field's k x k Gram matrix.  G is
symmetric, so W_tr(x, y) = W(Gx, Gy) is the standard spectrum of
f o diag(G, G)^-1: `_transform_input` gathers the rows and columns of each
table, a 2^k x 2^k grid (row y, column x), through G^-1 block by block, so
no table is modified or copied whole.  An n = 24 request holds its one-byte
table and one 64 MB float32 buffer.

The transform runs on the 0/1 table itself: W = 2^n [u = 0] - 2 (H f), with
H_{2^n} = H_{2^b1} x ... x H_{2^bd} Kronecker-factored into b <= 4 bits, one
float32 matrix product (one BLAS sgemm) per factor and chunk, in place in
the float32 buffer.  `_fwht` runs the low <= 16 index bits through one
256 KiB scratch, a block of a large table or as many whole small tables as
fit at a time, and every further <= 4 bits (n > 16) as one factor over
column strips.  The last factor multiplies by -2 H_{2^b} and is cast into
the int32 view of the same buffer.  float32 is exact here: every product
and every partial sum, in any summation order, is an integer of magnitude
<= 2^n <= 2^24 (an even one of magnitude <= 2^25 in the last factor), and
float32 holds every such integer.  Spectrum values are 32-bit signed
integers; sums that can exceed that range (Parseval's sum of squares, the
Rayleigh sum) accumulate exactly in int64.  The row sums of a flat
spectrum are read in blocks of 2^16 columns, each summed in int32: a
block sum is at most 2^16 * 2^12 = 2^28 in magnitude.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .boolfun import (
    TruthTable,
    _independent,
    _linear_index_map,
    _pack_values,
    _vectors,
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

# Entries per block of the low-bit stage and of its one scratch buffer (256 KiB),
# per row block of the trace gather, per column block of the row sums and
# per block of the flatness walk.
_BLOCK = 1 << 16
# Entries per float32 stack of tables transformed at once: 64 MB, an n = 24 table.
_STACK = 1 << 24


def _fwht(a: np.ndarray) -> np.ndarray:
    """-2 (H a) along the last axis of the float32 array `a` (one table of
    2^n entries or a (B, 2^n) stack), computed in place; returns the int32
    view of a's buffer that holds it."""
    out = a.view(np.int32)
    size = a.shape[-1]
    low = min(size, _BLOCK)
    single = low == size
    # Rows of the low-bit stage: whole tables, or 2^16-entry blocks of each.
    blocks = a.reshape(-1, low)
    scratch = np.empty(min(a.size, _BLOCK), dtype=np.float32)
    per_chunk = scratch.size // low
    for start in range(0, len(blocks), per_chunk):
        x = blocks[start:start + per_chunk].reshape(-1)
        y = scratch[:x.size]
        if x.size > low:
            # Rows to the bottom bits: each factor is then one matmul over
            # the whole chunk, and the factors bring the rows back on top.
            y.reshape(low, -1)[...] = x.reshape(-1, low).T
            x, y = y, x
        # Each factor transforms the top b bits and writes them back as the
        # bottom b bits, ping-ponging with the scratch.
        bits = low.bit_length() - 1
        while bits:
            b = min(bits, 4)
            bits -= b
            h = _FACTORS[single and not bits][: 1 << b, : 1 << b]
            np.matmul(x.reshape(1 << b, -1).T, h, out=y.reshape(-1, 1 << b))
            x, y = y, x
        if single:
            # copyto handles the overlap when x is the chunk itself
            dest = out.reshape(blocks.shape)[start:start + per_chunk]
            np.copyto(dest.reshape(-1), x, casting="unsafe")
    if single:
        return out
    # High bits (16 low bits are an even number of factors, so every block
    # ended in place): one factor per <= 4 bits over column strips of the
    # (above, 2^b, below) view, each strip through the scratch and back.
    step = low
    while step < size:
        m = min(size // step, 16)
        last = step * m == size
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


@dataclass
class WalshSpectrum:
    """Full spectrum of one function under one pairing."""

    n: int
    values: np.ndarray

    def __getitem__(self, u: int) -> int:
        return int(self.values[u])

    def max_abs(self) -> int:
        return max(int(self.values.max()), -int(self.values.min()))


def _transform_input(tables: np.ndarray, pairing: Pairing) -> np.ndarray:
    """The float32 tables (last axis) whose standard transforms are the
    spectra of the 0/1 `tables` under `pairing`: the tables themselves, or
    each table f gathered to f o diag(G, G)^-1 for the trace form (module
    docstring), row block by row block through two uint8 buffers, so
    `tables` is neither modified nor copied whole."""
    if pairing is None:
        return tables.astype(np.float32)
    g_inv = pairing.gram_inv_index
    # Row y of table b is row b 2^k + y of `rows`, and comes from row
    # b 2^k + G^-1 y; the columns of each row are then gathered through G^-1.
    rows = tables.reshape(-1, g_inv.size)
    src = (np.arange(0, len(rows), g_inv.size)[:, None] + g_inv).reshape(-1)
    out = np.empty(rows.shape, dtype=np.float32)
    step = max(1, _BLOCK // g_inv.size)
    buf = np.empty((2, step, g_inv.size), dtype=np.uint8)
    for c in range(0, len(rows), step):
        picked, gathered = buf[:, :min(step, len(rows) - c)]
        # mode="clip" writes straight into `out` ("raise" buffers a copy);
        # every index is in range, so nothing is clipped
        np.take(rows, src[c:c + step], axis=0, out=picked, mode="clip")
        np.take(picked, g_inv, axis=1, out=gathered, mode="clip")
        out[c:c + step] = gathered
    return out.reshape(tables.shape)


def _first_off(spec: np.ndarray, target: int) -> int:
    """Flat index of the first entry of the contiguous int32 chunk `spec`
    with |W| != `target`, or -1: one walk in blocks of <= _BLOCK entries
    through one scratch."""
    spec = spec.reshape(-1)
    scratch = np.empty(min(spec.size, _BLOCK), dtype=np.int32)
    for c in range(0, spec.size, _BLOCK):
        w = spec[c:c + _BLOCK]
        a = np.abs(w, out=scratch[:w.size])
        if a.min() != target or a.max() != target:
            return c + int(np.flatnonzero(a != target)[0])
    return -1


def _spectra(tables: np.ndarray, pairing: Pairing, bent: bool = True):
    """Yield (start, rows, spectra) for a (B, 2^n) uint8 stack of 0/1 tables,
    one transform per chunk of <= _STACK entries: the int32 spectra of the
    chunk's rows `tables[start:start + len(rows)]`.  A `bent` chunk whose
    every |W(u)| is 2^(n/2) is yielded as it is (a flat integer spectrum
    satisfies Parseval exactly); any other chunk has Parseval asserted per
    row (an int64 sum) and, if `bent`, raises NotBentError with the first
    bad point of the first bad row."""
    n = tables.shape[1].bit_length() - 1
    if pairing is not None and n != 2 * pairing.k:
        raise ValueError(f"trace pairing needs n = 2k = {2 * pairing.k}, got n = {n}")
    target = 1 << (n // 2)
    step = max(1, _STACK >> n)
    for start in range(0, len(tables), step):
        f = tables[start:start + step]
        # W = 2^n [u = 0] - 2 (H f)
        spec = _fwht(_transform_input(f, pairing))
        spec[:, 0] += 1 << n
        # No spectrum is flat at odd n: there |W| = 2^(n//2) everywhere
        # breaks Parseval, which is then asserted.
        if not (bent and n % 2 == 0 and _first_off(spec, target) < 0):
            if np.any(np.einsum("ij,ij->i", spec, spec, dtype=np.int64) != 1 << (2 * n)):
                raise AssertionError("Parseval identity violated; transform is broken")
            # Under Parseval a `bent` chunk here has an entry off 2^(n//2); the
            # first in flat order is the first bad point of the first bad row.
            if bent:
                row, u = divmod(_first_off(spec, target), spec.shape[1])
                raise NotBentError(n, u, int(spec[row, u]))
        yield start, f, spec


def wht(f: TruthTable, pairing: Pairing = None) -> WalshSpectrum:
    """Walsh-Hadamard transform W(u) = sum_x (-1)^(f(x) + <u, x>)."""
    spec = next(_spectra(f.values()[None], pairing, bent=False))[2]
    return WalshSpectrum(f.n, spec[0])


def _nonlinearity(spec: WalshSpectrum) -> int:
    return (1 << (spec.n - 1)) - spec.max_abs() // 2


def _is_flat(spec: WalshSpectrum) -> bool:
    # Every |W(u)| = 2^(n//2) is impossible for odd n under Parseval
    # (asserted by wht).
    return _first_off(spec.values, 1 << (spec.n // 2)) < 0


def nonlinearity(f: TruthTable) -> int:
    """Distance to the nearest affine function: 2^(n-1) - max|W|/2."""
    return _nonlinearity(wht(f))


def is_bent(f: TruthTable) -> bool:
    """True iff the whole spectrum is flat at +-2^(n/2) (needs even n)."""
    return f.n % 2 == 0 and _is_flat(wht(f))


def dual(f: TruthTable, pairing: Pairing = None) -> TruthTable:
    """The dual bent function: f~(u) = 1 iff W(u) = -2^(n/2)."""
    spec = next(_spectra(f.values()[None], pairing))[2]
    return TruthTable._from_packed(f.n, _pack_values(spec[0] < 0))


def _exact_div(a, b: int, what: str):
    """a // b for an int or an array of per-row values, asserting that b
    divides each one (the first that it does not divide is named)."""
    rem = np.flatnonzero(np.asarray(a) % b)
    if rem.size:
        raise AssertionError(f"{what} = {np.ravel(a)[rem[0]]} is not divisible by {b}")
    return a // b


def _row_sums(f: np.ndarray, spec: np.ndarray, neg: np.ndarray | None = None) -> np.ndarray:
    """(sum_u W(u), sum_u f(u) W(u), #{u : f(u) != [W(u) < 0]}) of every
    row of a flat chunk (every |W(u)| = 2^(n/2)), as a (3, B) int64 array;
    the sign bits [W(u) < 0] go to `neg` when it is given.  Read in blocks
    of _BLOCK columns, so that no temporary is as large as an n = 24 table,
    each summed in the spectrum's own int32: a flat block sum is at most
    2^16 2^12 = 2^28 in magnitude."""
    sums = np.zeros((3, len(f)), dtype=np.int64)
    for c in range(0, f.shape[1], _BLOCK):
        cols = slice(c, c + _BLOCK)
        w = spec[:, cols]
        sums[0] += w.sum(axis=1, dtype=spec.dtype)
        sums[1] += np.einsum("ij,ij->i", f[:, cols], w, dtype=spec.dtype)
        sign = np.less(w, 0, out=None if neg is None else neg[:, cols])
        sums[2] += np.count_nonzero(f[:, cols] != sign, axis=1)
    return sums


def _stack_identities(
    tables: np.ndarray, pairing: Pairing, duals: np.ndarray | None = None
) -> np.ndarray:
    """(direct, form1, form2, residual) of every bent table in a (B, 2^n)
    uint8 stack, as a (B, 4) int64 array read off one spectrum per row
    (`_spectra`, so Parseval and flatness are checked per row).

    direct compares the row with its sign-bit dual, which is also written
    to `duals`, a (B, 2^n) bool array, when one is given.  form1 rewrites
    the distance through the spectrum over the support of f:
    2^(n-1) - (-1)^f(0) 2^(k-1) + (support sum) / 2^k.  form2 is the
    derivative form: the spectra of all directional derivatives, split over
    the isotropic/anisotropic halves of the domain.  The pairing map P is
    symmetric, so those derivative sums collapse to
    sum_x (-1)^(f(x) + <x, x>) W(x), the split cancels, and form2 is the
    spectral distance 2^(n-1) - S / 2^(k+1), with S = sum_x (-1)^f(x) W(x)
    the Rayleigh sum, read as sum_u W(u) - 2 (support sum).  Both divisions
    are asserted exact per row.  The residual 2 (support sum) + S -
    (-1)^f(0) 2^n is sum_u W(u) - (-1)^f(0) 2^n, zero by the inverse
    transform at x = 0, so it checks the transform too.
    """
    n = tables.shape[1].bit_length() - 1
    k = n // 2
    out = np.empty((len(tables), 4), dtype=np.int64)
    for start, f, spec in _spectra(tables, pairing):
        rows = slice(start, start + len(f))
        total, supp, direct = _row_sums(f, spec, None if duals is None else duals[rows])
        s = total - 2 * supp
        sign0 = 1 - 2 * f[:, 0].astype(np.int64)
        out[rows, 0] = direct
        out[rows, 1] = (
            (1 << (n - 1))
            - sign0 * (1 << (k - 1))
            + _exact_div(supp, 1 << k, "support spectrum sum")
        )
        out[rows, 2] = (1 << (n - 1)) - _exact_div(s, 1 << (k + 1), "Rayleigh sum")
        out[rows, 3] = total - sign0 * (1 << n)
    return out


def _stack_distances(identities: np.ndarray) -> np.ndarray:
    """Distance to the dual, 2^(n-1) - N/2, of every row of a
    `_stack_identities` array: form2, checked per row against the direct
    comparison with the sign-bit dual."""
    direct, _, dists, _ = identities.T
    bad = np.flatnonzero(direct != dists)
    if bad.size:
        i = int(bad[0])
        raise AssertionError(
            f"row {i}: spectral distance {dists[i]} != direct distance {direct[i]}"
        )
    return dists


def rayleigh_quotient(f: TruthTable, pairing: Pairing = None) -> int:
    """S = sum_x (-1)^f(x) W(x) = sum_u W(u) - 2 sum_u f(u) W(u) of any f."""
    w = wht(f, pairing).values
    supp = np.einsum("i,i->", f.values(), w, dtype=np.int64)
    return int(w.sum(dtype=np.int64) - 2 * supp)


def rayleigh(f: TruthTable, pairing: Pairing = None) -> tuple[int, int]:
    """(S, N) for a bent function: N = S / 2^(n/2) = sum (-1)^(f + f~),
    read off the cross-checked distance N = 2^n - 2 dist(f, f~)."""
    n_f = (1 << f.n) - 2 * dist_to_dual(f, pairing)
    return n_f << (f.n // 2), n_f


def hamming_dist(f: TruthTable, g: TruthTable) -> int:
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    return (f ^ g).weight()


def dist_to_dual(f: TruthTable, pairing: Pairing = None) -> int:
    """Hamming distance from a bent f to its dual, 2^(n-1) - N/2, cross-checked
    against a direct comparison with the dual truth table."""
    return int(_stack_distances(_stack_identities(f.values()[None], pairing))[0])


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
    for i, r in enumerate(rows):
        if isinstance(r, Iterable):  # a row of n entries, each 0 or 1
            entries = _vectors(r, 1, "matrix entry")
            if len(entries) != n:
                raise ValueError(f"need {n} entries per row, got {len(entries)}")
            rows[i] = sum(int(e) << j for j, e in enumerate(entries))
    return _vectors(rows, n, "row mask").tolist()


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
    shift = _vectors([shift], f.n, "shift")[0]
    if not _independent(rows, f.n):
        raise SingularMatrixError("matrix is singular over F_2")
    perm = _linear_index_map(rows) ^ shift
    return TruthTable._from_packed(f.n, _pack_values(f.values()[perm]))

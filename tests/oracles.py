"""Reference spectra for the tests, computed without bentkit's spectral layer."""

import numpy as np

from bentkit.boolfun import TruthTable


def fwht_int64_reference(f: TruthTable) -> np.ndarray:
    """Out-of-place int64 butterfly over the +-1 signs of f."""
    a = np.array([1 - 2 * f[x] for x in range(f.size)], dtype=np.int64)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        a = np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1).reshape(-1)
        h *= 2
    return a


def reference_spectrum(f: TruthTable, pairing=None) -> np.ndarray:
    """The spectrum of f under `pairing` by the int64 butterfly.  The trace
    form is diag(G, G), so W_tr is the standard spectrum of
    f o diag(G, G)^-1, re-indexed here point by point through the scalar
    `GF2k.gram_map_inv`."""
    if pairing is not None:
        f = TruthTable.from_values(f.n, [f[pairing.gram_map_inv(x)] for x in range(f.size)])
    return fwht_int64_reference(f)


def spread_table_reference(ctx, cols, plus: bool) -> np.ndarray:
    """The 0/1 table of the partial-spread function on the spread columns
    `cols`, point by point: (x, x a) from the scalar `GF2k.mul` for E_a,
    (0, y) for the line at infinity (column 2^k), and the origin set for the
    plus type only."""
    vals = np.zeros(1 << (2 * ctx.k), dtype=np.uint8)
    for c in cols:
        for x in ctx.elements():
            vals[ctx.pack(0, x) if c == ctx.order else ctx.pack(x, ctx.mul(x, c))] = 1
    vals[0] = plus
    return vals

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

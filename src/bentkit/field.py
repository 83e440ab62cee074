"""GF(2^k) arithmetic in the polynomial basis, 1 <= k <= 16.

Field elements are k-bit integers: bit i holds the coefficient of x^i.
Multiplication is carry-less shift-xor reduced modulo an irreducible
polynomial given as a (k+1)-bit mask; no log tables are used, which keeps
everything exact and fast enough at these sizes.

A context also exposes the trace bilinear form through its Gram matrix in
the polynomial basis, so the pairing Tr(xx') + Tr(yy') on pairs of field
elements can be rewritten as an ordinary dot product of bit vectors.  A
pair (x, y) in F_{2^k} x F_{2^k} is packed into a 2k-bit index as
bits(x) + 2^k * bits(y).
"""

from __future__ import annotations

import numpy as np

from .boolfun import _linear_index_map, popcount_array, reduce_basis

# Low-weight irreducible defaults for every k a spread table reaches
# (n = 2k <= 24).  k = 13..16 must supply a polynomial.
DEFAULT_POLYS = {
    1: 0b11,         # x + 1
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10000011,   # x^7 + x + 1
    8: 0b100011011,  # x^8 + x^4 + x^3 + x + 1
    9: 0x211,        # x^9 + x^4 + 1
    10: 0x409,       # x^10 + x^3 + 1
    11: 0x805,       # x^11 + x^2 + 1
    12: 0x1053,      # x^12 + x^6 + x^4 + x + 1
}


def poly_str(mask: int) -> str:
    """Render a polynomial mask like 0b1011 as 'x^3 + x + 1'."""
    if mask == 0:
        return "0"
    terms = []
    for i in range(mask.bit_length() - 1, -1, -1):
        if (mask >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return " + ".join(terms)


class ReduciblePolynomialError(ValueError):
    """The proposed reduction polynomial splits; carries a witness factor."""

    def __init__(self, poly: int, factor: int):
        self.poly = poly
        self.factor = factor
        super().__init__(
            f"polynomial {poly_str(poly)} is reducible: factor {poly_str(factor)}"
        )


def _poly_mod(a: int, m: int) -> int:
    """Remainder of the binary polynomial a modulo m (plain masks, no field)."""
    dm = m.bit_length() - 1
    while a.bit_length() > dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def reducible_factor(poly: int) -> int | None:
    """Trial division by every polynomial of degree 1..deg/2; None if irreducible."""
    deg = poly.bit_length() - 1
    for d in range(1, deg // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, cand) == 0:
                return cand
    return None


class GF2k:
    """Arithmetic context for GF(2^k).

    Instances are immutable after construction and safe to share between
    threads.  A GF2k doubles as the trace-form pairing marker for the
    spectral layer: passing one as `pairing` selects the bilinear form
    Tr(xx') + Tr(yy') on F_{2^k} x F_{2^k} instead of the standard dot
    product.  That form is diag(G, G) with G the k x k Gram matrix, so
    W_tr(x, y) = W(Gx, Gy): the spectral layer views the input table as a
    2^k x 2^k grid (row y, column x) and re-indexes both axes through the
    inverse of `gram_index` before its one standard transform.
    """

    def __init__(self, k: int, poly: int | None = None):
        if not 1 <= k <= 16:
            raise ValueError(f"extension degree must be in 1..16, got {k}")
        if poly is None:
            if k not in DEFAULT_POLYS:
                raise ValueError(
                    f"no default reduction polynomial for k={k}; supply one"
                )
            poly = DEFAULT_POLYS[k]
        if poly < 0:
            raise ValueError(f"polynomial mask must be non-negative, got {poly}")
        if poly.bit_length() - 1 != k:
            raise ValueError(
                f"polynomial {poly_str(poly)} has degree {poly.bit_length() - 1}, "
                f"need exactly {k}"
            )
        factor = reducible_factor(poly)
        if factor is not None:
            raise ReduciblePolynomialError(poly, factor)
        self.k = k
        self.poly = poly
        self.order = 1 << k
        self.mask = self.order - 1
        # Tr is F_2-linear: Tr(a) is the parity of a & tmask, where bit i of
        # tmask is Tr(x^i).
        tmask = sum(self._trace_slow(1 << i) << i for i in range(k))
        elems = np.arange(self.order, dtype=np.uint32)
        self._trace_table = (popcount_array(elems & tmask) & 1).tolist()
        # Gram matrix of the trace form: gram[i][j] = Tr(x^i * x^j), row masks.
        self.gram_rows = [
            self._gram_row(i) for i in range(k)
        ]
        # Index array x -> Gx over the whole field (2^k entries).  G is
        # symmetric, so row i is the image of x^i.
        self.gram_index = _linear_index_map(self.gram_rows)
        self.gram_index.flags.writeable = False
        # Fully reducing the augmented rows [G | I] leaves [I | G^-1].  The
        # basis comes in descending pivot order; reversed, vector i is e_i
        # followed by row i of G^-1.
        reduced = reduce_basis(
            (row << k) | (1 << i) for i, row in enumerate(self.gram_rows)
        )[::-1]
        if [v >> k for v in reduced] != [1 << i for i in range(k)]:
            raise ValueError("matrix is singular over F_2")
        self.gram_inv_rows = [v & self.mask for v in reduced]

    def _gram_row(self, i: int) -> int:
        row = 0
        for j in range(self.k):
            row |= self.trace(self.mul(1 << i, 1 << j)) << j
        return row

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Carry-less product of a and b reduced modulo the field polynomial."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.order:
                a ^= self.poly
        return p

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^k)")
        return self.pow(a, self.order - 2)

    def div0(self, x: int, y: int) -> int:
        """Division with the convention x/0 = 0."""
        if y == 0:
            return 0
        return self.mul(x, self.inv(y))

    def _trace_slow(self, a: int) -> int:
        t = a
        frob = a
        for _ in range(self.k - 1):
            frob = self.mul(frob, frob)
            t ^= frob
        return t

    def trace(self, a: int) -> int:
        """Absolute trace: sum of the Frobenius conjugates, in {0, 1}."""
        return self._trace_table[a]

    def trace_pairing(self, p: tuple[int, int], q: tuple[int, int]) -> int:
        """Tr(xx') + Tr(yy') for p = (x, y), q = (x', y')."""
        return self.trace(self.mul(p[0], q[0])) ^ self.trace(self.mul(p[1], q[1]))

    # ------------------------------------------------------------------
    # packed pairs and the Gram index map
    # ------------------------------------------------------------------

    def pack(self, x: int, y: int) -> int:
        """Domain index of the pair (x, y): bits(x) + 2^k * bits(y)."""
        return x | (y << self.k)

    def unpack(self, p: int) -> tuple[int, int]:
        return p & self.mask, p >> self.k

    def _apply_rows(self, rows: list[int], v: int) -> int:
        out = 0
        for i, row in enumerate(rows):
            out |= ((row & v).bit_count() & 1) << i
        return out

    def gram_map(self, u: int) -> int:
        """Apply diag(G, G) to a packed 2k-bit index.

        The defining property: trace_pairing(p, q) equals the standard dot
        product of the packed index of p with gram_map of the packed index
        of q, for all pairs p, q.
        """
        x, y = self.unpack(u)
        return self.pack(
            self._apply_rows(self.gram_rows, x),
            self._apply_rows(self.gram_rows, y),
        )

    def gram_map_inv(self, u: int) -> int:
        x, y = self.unpack(u)
        return self.pack(
            self._apply_rows(self.gram_inv_rows, x),
            self._apply_rows(self.gram_inv_rows, y),
        )

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"GF2k(k={self.k}, poly={poly_str(self.poly)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2k)
            and self.k == other.k
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.k, self.poly))

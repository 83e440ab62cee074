"""GF(2^k) arithmetic in the polynomial basis, 1 <= k <= 16.

Field elements are k-bit integers: bit i holds the coefficient of x^i.
Each operation has one implementation, over arrays of elements: the
product `GF2k._mul_array` is carry-less shift-xor reduced modulo an
irreducible polynomial given as a (k+1)-bit mask (no log tables, so
everything stays exact), and the squaring map, the trace, the inverse and
the Gram map are index tables built from it.  The scalar methods (`mul`,
`inv`, `trace`, `gram_map`, ...) are one-element reads of those arrays.

A context also exposes the trace bilinear form through its Gram matrix in
the polynomial basis, so the pairing Tr(xx') + Tr(yy') on pairs of field
elements can be rewritten as an ordinary dot product of bit vectors.  A
pair (x, y) in F_{2^k} x F_{2^k} is packed into a 2k-bit index as
bits(x) + 2^k * bits(y).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .boolfun import _linear_index_map, _weights_array

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

    Every scalar method reads the field's arrays after one range check,
    `_check`: ValueError for an element outside 0..2^k - 1, a packed pair
    outside 0..4^k - 1 or a negative exponent.

    Instances are immutable after construction and safe to share between
    threads.  A GF2k doubles as the trace-form pairing marker for the
    spectral layer: passing one as `pairing` selects the bilinear form
    Tr(xx') + Tr(yy') on F_{2^k} x F_{2^k} instead of the standard dot
    product.  That form is diag(G, G) with G the k x k Gram matrix, so
    W_tr(x, y) = W(Gx, Gy): the spectral layer views the input table as a
    2^k x 2^k grid (row y, column x) and re-indexes both axes through
    `gram_inv_index` before its one standard transform.

    `line_dual_index` is built on first use only, so construction stays
    cheap; building it twice from two threads gives the same array.
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
        basis = 1 << np.arange(k)
        products = self._mul_array(basis[:, None], basis)  # x^i * x^j
        # Squaring is F_2-linear: one index map from the squares of the basis.
        self._square = _linear_index_map(products.diagonal())
        # Tr is F_2-linear: Tr(a) is the parity of a & tmask, where bit i of
        # tmask is Tr(x^i), the sum of the conjugates of x^i.
        trace = conjugate = basis
        for _ in range(k - 1):
            conjugate = self._square[conjugate]
            trace = trace ^ conjugate
        self._trace_table = _weights_array(k)[np.arange(self.order) & int(trace @ basis)] & 1
        self._trace_table.flags.writeable = False
        # Gram matrix of the trace form: gram[i][j] = Tr(x^i * x^j), row masks.
        self.gram_rows = (self._trace_table[products] @ basis).tolist()
        # Index array x -> Gx over the whole field (2^k entries).  G is
        # symmetric, so row i is the image of x^i.
        self.gram_index = _linear_index_map(self.gram_rows)
        self.gram_inv_index = np.argsort(self.gram_index)
        if not np.array_equal(self.gram_index[self.gram_inv_index], np.arange(self.order)):
            raise ValueError("matrix is singular over F_2")
        self.gram_index.flags.writeable = False
        self.gram_inv_index.flags.writeable = False

    def _check(self, bound: int | None, *values: int) -> None:
        """ValueError unless each value is in 0..bound - 1 (>= 0 if no bound)."""
        for v in values:
            if v < 0 or (bound is not None and v >= bound):
                need = "an exponent >= 0" if bound is None else f"in 0..{bound - 1}"
                raise ValueError(f"{v} is not {need} for {self!r}")

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product of a and b in the field."""
        self._check(self.order, a, b)
        return int(self._mul_array(a, b))

    def pow(self, a: int, e: int) -> int:
        self._check(self.order, a)
        self._check(None, e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        self._check(self.order, a)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^k)")
        return int(self.line_dual_index[a])

    def _mul_array(self, a, b) -> np.ndarray:
        """Elementwise product of two broadcastable arrays of field elements:
        carry-less shift-xor, one bit of b per step, reduced modulo the
        field polynomial."""
        a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
        p = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.int64)
        for i in range(self.k):
            p ^= a * ((b >> i) & 1)
            a = a << 1
            a ^= (a >> self.k) * self.poly
        return p

    @cached_property
    def line_dual_index(self) -> np.ndarray:
        """Spread-line column j -> the column of its trace dual, over the
        2^k + 1 columns of the Desarguesian spread (E_a is column a, the line
        at infinity column 2^k): E_a -> E_{1/a}, E_0 <-> inf.  On the nonzero
        elements it is the inverse table over the whole field at once:
        a^(2^k - 2) = a^2 a^4 ... a^(2^(k-1)), through the squaring index
        map.  Read-only."""
        frob = np.arange(self.order, dtype=np.int64)
        inv = np.ones_like(frob)
        for _ in range(self.k - 1):
            frob = self._square[frob]
            inv = self._mul_array(inv, frob)
        index = np.append(inv, 0)
        index[0] = self.order
        index.flags.writeable = False
        return index

    def div0(self, x: int, y: int) -> int:
        """Division with the convention x/0 = x * 0 = 0."""
        return self.mul(x, self.inv(y) if y else 0)

    def trace(self, a: int) -> int:
        """Absolute trace: sum of the Frobenius conjugates, in {0, 1}."""
        self._check(self.order, a)
        return int(self._trace_table[a])

    def trace_pairing(self, p: tuple[int, int], q: tuple[int, int]) -> int:
        """Tr(xx') + Tr(yy') for p = (x, y), q = (x', y')."""
        return self.trace(self.mul(p[0], q[0])) ^ self.trace(self.mul(p[1], q[1]))

    # ------------------------------------------------------------------
    # packed pairs and the Gram index map
    # ------------------------------------------------------------------

    def pack(self, x: int, y: int) -> int:
        """Domain index of the pair (x, y): bits(x) + 2^k * bits(y)."""
        self._check(self.order, x, y)
        return x | (y << self.k)

    def unpack(self, p: int) -> tuple[int, int]:
        self._check(self.order << self.k, p)
        return p & self.mask, p >> self.k

    def gram_map(self, u: int) -> int:
        """Apply diag(G, G) to a packed 2k-bit index.

        The defining property: trace_pairing(p, q) equals the standard dot
        product of the packed index of p with gram_map of the packed index
        of q, for all pairs p, q.
        """
        x, y = self.unpack(u)
        return self.pack(int(self.gram_index[x]), int(self.gram_index[y]))

    def gram_map_inv(self, u: int) -> int:
        x, y = self.unpack(u)
        return self.pack(int(self.gram_inv_index[x]), int(self.gram_inv_index[y]))

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

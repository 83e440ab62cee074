"""Truth-table Boolean functions: ANF, derivatives, and constructive families.

A function on n variables (2 <= n <= 24) is a packed bit array of length
2^n inside a Python int.  The index convention is little-endian in the
variables: the point (x1, ..., xn) sits at index sum x_i * 2^(i-1), so x1
is the least significant bit.  Functions on F_{2^k} x F_{2^k} use the
layout index = bits(x) + 2^k * bits(y).

Hex serialization writes the packed table as a lowercase hex string of
exactly 2^n / 4 digits with index 0 in the least significant nibble,
i.e. the rightmost hex digit holds f(0)..f(3).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

_HEX_DIGITS = "0123456789abcdef"


def popcount_array(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint32 array (SWAR; values below 2^32)."""
    v = arr.astype(np.uint32)
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    return (v * 0x01010101) >> 24


def _moebius(vals: np.ndarray) -> np.ndarray:
    """Binary Moebius transform (in-place butterfly over subsets); an involution."""
    a = vals.copy()
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        a[:, 1, :] ^= a[:, 0, :]
        a = a.reshape(-1)
        h *= 2
    return a


def _pack_values(values: np.ndarray) -> int:
    return int.from_bytes(
        np.packbits(values, bitorder="little").tobytes(), "little"
    )


def _unpack_values(bits: int, n: int) -> np.ndarray:
    """Inverse of _pack_values: a uint8 0/1 array of length 2^n."""
    raw = np.frombuffer(bits.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n]


class TruthTable:
    """A Boolean function on 2^n points, bit-packed into an int."""

    def __init__(self, n: int, bits: int = 0):
        if not 2 <= n <= 24:
            raise ValueError(f"variable count must be in 2..24, got {n}")
        if bits < 0 or bits >> (1 << n):
            raise ValueError("packed table does not fit in 2^n bits")
        self.n = n
        self.bits = bits

    @property
    def size(self) -> int:
        return 1 << self.n

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, n: int, values: Iterable[int]) -> "TruthTable":
        arr = np.asarray(list(values), dtype=np.uint8)
        if arr.size != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {arr.size}")
        return cls(n, _pack_values(arr))

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "TruthTable":
        points = list(support)
        for x in points:
            if not 0 <= x < (1 << n):
                raise ValueError(f"support point {x} out of range for n={n}")
        vals = np.zeros(1 << n, dtype=np.uint8)
        vals[points] = 1
        return cls(n, _pack_values(vals))

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "TruthTable":
        return cls.from_values(n, (fn(x) & 1 for x in range(1 << n)))

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "TruthTable":
        """Parse the hex serialization; n is inferred from the digit count."""
        text = text.strip().lower()
        # int(text, 16) alone would also take a 0x prefix, "_" and a sign.
        if not text.isascii() or text.encode().translate(None, _HEX_DIGITS.encode()):
            bad = next(c for c in text if c not in _HEX_DIGITS)
            raise ValueError(f"non-hex character {bad!r} in hex truth table")
        if n is None:
            digits = len(text)
            if digits == 0 or digits & (digits - 1):
                raise ValueError(f"hex length {digits} is not a power of two")
            n = digits.bit_length() + 1
        if len(text) * 4 != 1 << n:
            raise ValueError(
                f"hex truth table must have {(1 << n) // 4} digits for n={n}, "
                f"got {len(text)}"
            )
        return cls(n, int(text, 16))

    def to_hex(self) -> str:
        return format(self.bits, f"0{self.size // 4}x")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def __getitem__(self, x: int) -> int:
        return (self.bits >> x) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_balanced(self) -> bool:
        return self.weight() == 1 << (self.n - 1)

    def support(self) -> list[int]:
        return np.flatnonzero(self.values()).tolist()

    def values(self) -> np.ndarray:
        """The table as a uint8 0/1 array of length 2^n."""
        return _unpack_values(self.bits, self.n)

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ ((1 << self.size) - 1))

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        return TruthTable(self.n, self.bits ^ other.bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        if self.size <= 64:
            return f"TruthTable(n={self.n}, hex={self.to_hex()!r})"
        return f"TruthTable(n={self.n}, weight={self.weight()})"

    # ------------------------------------------------------------------
    # derivatives and ANF
    # ------------------------------------------------------------------

    def derivative(self, u: int) -> "TruthTable":
        """Directional derivative x -> f(x) xor f(x xor u)."""
        if not 0 <= u < self.size:
            raise ValueError(f"direction {u} out of range")
        vals = self.values()
        shifted = vals[np.arange(self.size) ^ u]
        return TruthTable(self.n, _pack_values(vals ^ shifted))

    def anf(self) -> "AnfPoly":
        return AnfPoly(self.n, _pack_values(_moebius(self.values())))

    def degree(self) -> int:
        return self.anf().degree()


class AnfPoly:
    """Algebraic normal form: coefficient mu_a packed at index a."""

    def __init__(self, n: int, coeffs: int = 0):
        if not 2 <= n <= 24:
            raise ValueError(f"variable count must be in 2..24, got {n}")
        if coeffs < 0 or coeffs >> (1 << n):
            raise ValueError("coefficient table does not fit in 2^n bits")
        self.n = n
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return self.coeffs == 0

    def monomials(self) -> list[int]:
        return np.flatnonzero(_unpack_values(self.coeffs, self.n)).tolist()

    def degree(self) -> int:
        """Max weight of a monomial index; the zero polynomial reports 0."""
        mons = np.flatnonzero(_unpack_values(self.coeffs, self.n))
        return int(popcount_array(mons).max(initial=0))

    def evaluate(self, x: int) -> int:
        """Direct monomial-sum evaluation, independent of the transform."""
        mons = np.flatnonzero(_unpack_values(self.coeffs, self.n))
        return int(np.count_nonzero((mons & x) == mons) & 1)

    def to_truth_table(self) -> TruthTable:
        vals = _unpack_values(self.coeffs, self.n)
        return TruthTable(self.n, _pack_values(_moebius(vals)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AnfPoly)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"AnfPoly(n={self.n}, monomials={self.coeffs.bit_count()})"


# ----------------------------------------------------------------------
# linear algebra over F_2 on point masks
# ----------------------------------------------------------------------

def reduce_basis(vectors: Iterable[int]) -> list[int]:
    """Row-reduce a set of point masks to a basis of their span, in fully
    reduced echelon form: each vector's leading bit is set in no other, and
    the vectors come in descending order of that bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def _linear_index_map(images: Sequence[int] | np.ndarray) -> np.ndarray:
    """Index array u -> uA of the linear map sending point 2^b to images[b].

    Trailing axes of `images` form a batch: row u of the result holds uA
    for every map at once.  The maps of the low and the high half of the
    images combine with one outer XOR, so the full-size array is written
    once.
    """
    images = np.asarray(images, dtype=np.int64)
    if len(images) < 2:
        return np.concatenate([np.zeros((1, *images.shape[1:]), np.int64), images])
    h = len(images) // 2
    lo = _linear_index_map(images[:h])
    hi = _linear_index_map(images[h:])
    return (hi[:, None] ^ lo).reshape(len(hi) * len(lo), *images.shape[1:])


def subspace_span(basis: Sequence[int]) -> list[int]:
    """All 2^dim points of the span of an independent basis."""
    span = [0]
    for b in basis:
        span += [s ^ b for s in span]
    return span


def subspace_indicator(n: int, basis: Sequence[int]) -> TruthTable:
    """Indicator function of the span of `basis`; basis must be independent."""
    for v in basis:
        if not 0 <= v < (1 << n):
            raise ValueError(f"basis vector {v} out of range for n={n}")
    if len(reduce_basis(basis)) != len(basis):
        raise ValueError("basis vectors are linearly dependent over F_2")
    return TruthTable.from_support(n, subspace_span(basis))


# ----------------------------------------------------------------------
# constructive families
# ----------------------------------------------------------------------

def symmetric_bent(n: int, eps1: int = 0, eps2: int = 0) -> TruthTable:
    """The symmetric bent function: all degree-2 products of distinct
    variables, plus eps1 times the linear sum and the constant eps2.

    Its value depends only on the input weight w and equals
    C(w, 2) + eps1*w + eps2 (mod 2); consecutive weight values two apart
    always disagree, which characterizes bentness among symmetric functions.
    """
    if n % 2 or n < 4:
        raise ValueError(f"symmetric bent functions need even n >= 4, got {n}")
    w = _weights_array(n).astype(np.int64)
    c = (w * (w - 1) // 2 + eps1 * w + eps2) & 1
    return TruthTable(n, _pack_values(c.astype(np.uint8)))


def symmetric_value_pattern(n: int, eps1: int = 0, eps2: int = 0) -> list[int]:
    """The weight-indexed value list c_0..c_n of symmetric_bent(n, eps1, eps2)."""
    return [(w * (w - 1) // 2 + eps1 * w + eps2) & 1 for w in range(n + 1)]


def _weights_array(n: int) -> np.ndarray:
    return popcount_array(np.arange(1 << n, dtype=np.uint32))


def _check_permutation(pi: Sequence[int]) -> int:
    """Validate pi as a bijection on {0..2^k-1} and return k."""
    m = len(pi)
    if m < 2 or m & (m - 1):
        raise ValueError(f"permutation length {m} is not a power of two")
    if sorted(pi) != list(range(m)):
        raise ValueError("table is not a bijection on 0..2^k-1")
    return m.bit_length() - 1


def mm_bent(pi: Sequence[int], g: TruthTable) -> TruthTable:
    """Maiorana-McFarland bent function f(x, y) = x . pi(y) + g(y) on n = 2k."""
    k = _check_permutation(pi)
    if g.n != k:
        raise ValueError(f"g must be on {k} variables, got {g.n}")
    xs = np.arange(1 << k, dtype=np.uint32)
    p = np.asarray(pi, dtype=np.uint32)
    inner = popcount_array(xs[None, :] & p[:, None]) & 1  # row y, col x
    vals = (inner ^ g.values()[:, None]).astype(np.uint8)
    return TruthTable(2 * k, _pack_values(vals.reshape(-1)))


def mm_dual(pi: Sequence[int], g: TruthTable) -> TruthTable:
    """Closed-form dual of mm_bent(pi, g): f~(x, y) = y . pi^-1(x) + g(pi^-1(x)).

    The inverse permutation acts on the first block; this is the unique form
    whose spectral dual is mm_bent(pi, g) again.
    """
    k = _check_permutation(pi)
    if g.n != k:
        raise ValueError(f"g must be on {k} variables, got {g.n}")
    pinv = np.empty(1 << k, dtype=np.uint32)
    pinv[np.asarray(pi, dtype=np.uint32)] = np.arange(1 << k, dtype=np.uint32)
    ys = np.arange(1 << k, dtype=np.uint32)
    inner = popcount_array(ys[:, None] & pinv[None, :]) & 1  # row y, col x
    gv = g.values()
    vals = (inner ^ gv[pinv][None, :]).astype(np.uint8)
    return TruthTable(2 * k, _pack_values(vals.reshape(-1)))

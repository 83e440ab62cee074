"""Truth-table Boolean functions, F_2 linear algebra on point masks (one
eliminator, one index map), and constructive families.

A function on n variables (2 <= n <= 24) is stored as its packed table:
the 2^n values as bits, little-endian in bytes, so f(x) is bit x % 8 of
byte x // 8 (n = 2 fills the low nibble of its one byte); the same bits
as an int (`bits`) are built only when read.  The index convention is
little-endian in the variables: the point (x1, ..., xn) sits at index
sum x_i * 2^(i-1), so x1 is the least significant bit.  Functions on
F_{2^k} x F_{2^k} use the layout index = bits(x) + 2^k * bits(y).

Hex serialization writes the packed table as a lowercase hex string of
exactly 2^n / 4 digits with index 0 in the least significant nibble,
i.e. the rightmost hex digit holds f(0)..f(3): the packed bytes in reverse
order.  Reading or writing hex never builds the table as an int.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Iterable, Sequence

import numpy as np

_HEX_DIGITS = "0123456789abcdefABCDEF"


def _pack_values(values: np.ndarray) -> bytes:
    """The packed table of a 0/1 array (flattened): eight values a byte,
    little-endian."""
    return np.packbits(values, bitorder="little").tobytes()


def _unpack_values(packed: bytes, n: int) -> np.ndarray:
    """Inverse of _pack_values: a uint8 0/1 array of length 2^n."""
    raw = np.frombuffer(packed, dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: 1 << n]


def _packed_size(n: int) -> int:
    """Bytes of the packed table of 2^n values."""
    return ((1 << n) + 7) // 8


def _check_n(n: int) -> None:
    if not 2 <= n <= 24:
        raise ValueError(f"variable count must be in 2..24, got {n}")


def _vectors(values: Iterable, width: int | None, what: str) -> np.ndarray:
    """The one check of what a vector is: the values (ints or bools, numpy's
    too, each in 0..2^width - 1, or any >= 0 for an exponent's width None)
    as an int64 array, or an object array of Python ints beyond int64.
    An integer array is checked by its min and max, other values one by one.
    ValueError names the first bad value as `what`, by its bit length if it
    has over 128 bits."""
    top = float("inf") if width is None else 1 << width
    if isinstance(values, np.ndarray) and values.dtype.kind in "iub":
        if values.min(initial=0) >= 0 and values.max(initial=0) < top:
            return values.astype(np.int64, copy=False)
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    for v in values:
        if not isinstance(v, (int, np.integer, np.bool_)):
            raise ValueError(f"{what} {reprlib.repr(v)} is not an integer")
        if not 0 <= v < top:
            bits = int(v).bit_length()
            shown = v if bits <= 128 else f"of {bits} bits"
            fault = "is negative" if v < 0 else f"out of range 0..{top - 1}"
            raise ValueError(f"{what} {shown} {fault}")
    arr = np.array(values)
    return arr if arr.dtype == object else arr.astype(np.int64, copy=False)


class TruthTable:
    """A Boolean function on 2^n points, stored as its packed table."""

    def __init__(self, n: int, bits: int = 0):
        _check_n(n)
        if bits < 0 or bits >> (1 << n):
            raise ValueError("packed table does not fit in 2^n bits")
        self.n = n
        self._packed = int(bits).to_bytes(_packed_size(n), "little")

    @classmethod
    def _from_packed(cls, n: int, packed: bytes) -> "TruthTable":
        """The table whose packed bits are `packed` (_packed_size(n) bytes,
        the bits past 2^n zero)."""
        _check_n(n)
        obj = cls.__new__(cls)
        obj.n = n
        obj._packed = packed
        return obj

    @property
    def bits(self) -> int:
        """The table as an int: bit x is f(x)."""
        return int.from_bytes(self._packed, "little")

    # values, from_support, from_hex and to_hex are defined in this class's
    # own namespace: perfbench/tracer.py wraps them there by name
    def values(self) -> np.ndarray:
        """The table as a uint8 0/1 array of length 2^n."""
        return _unpack_values(self._packed, self.n)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (self.n, self._packed) == (other.n, other._packed)

    def __hash__(self) -> int:
        return hash((self.n, self._packed))

    @property
    def size(self) -> int:
        return 1 << self.n

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, n: int, values: Iterable[int]) -> "TruthTable":
        """The table of the 2^n values, each 0 or 1 (False and True too)."""
        # Check an array whole: a list of 2^24 numpy scalars takes ~2 s to build.
        arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
        if arr.size != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {arr.size}")
        # an unsigned or bool array needs one max; others compare every value
        if not (arr.dtype.kind in "bu" and arr.max(initial=0) <= 1):
            ok = (arr == 0) | (arr == 1)
            if not ok.all():
                raise ValueError(f"table value {arr[~ok][:1].tolist()[0]!r} is not 0 or 1")
        return cls._from_packed(n, _pack_values(arr.astype(np.uint8, copy=False)))

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> "TruthTable":
        _check_n(n)
        vals = np.zeros(1 << n, dtype=np.uint8)
        vals[_vectors(support, n, "support point")] = 1
        return cls._from_packed(n, _pack_values(vals))

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], int]) -> "TruthTable":
        return cls.from_values(n, (fn(x) & 1 for x in range(1 << n)))

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "TruthTable":
        """Parse the hex serialization; n is inferred from the digit count."""
        text = text.strip()
        # An odd digit count (n = 2, or a bad length) gets a leading 0.
        # bytes.fromhex also skips whitespace between digit pairs, so every
        # character is a hex digit iff it parses to half as many bytes as
        # there are digits (int(text, 16) would take a 0x prefix, "_" and a
        # sign).
        digits = text if len(text) % 2 == 0 else "0" + text
        try:
            packed = bytes.fromhex(digits)
        except ValueError:
            packed = b""
        if 2 * len(packed) != len(digits):
            bad = next(c for c in text if c not in _HEX_DIGITS)
            raise ValueError(f"non-hex character {bad!r} in hex truth table")
        if n is None:
            digits = len(text)
            if digits == 0 or digits & (digits - 1):
                raise ValueError(f"hex length {digits} is not a power of two")
            n = digits.bit_length() + 1
        _check_n(n)
        if len(text) * 4 != 1 << n:
            raise ValueError(
                f"hex truth table must have {(1 << n) // 4} digits for n={n}, "
                f"got {len(text)}"
            )
        return cls._from_packed(n, packed[::-1])

    def to_hex(self) -> str:
        # n = 2 has one digit: the low nibble of the one byte
        return self._packed[::-1].hex()[-(self.size // 4):]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def __getitem__(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise IndexError(f"point {x} out of range for n={self.n}")
        return (self._packed[x >> 3] >> (x & 7)) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def is_balanced(self) -> bool:
        return self.weight() == 1 << (self.n - 1)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        a, b = (np.frombuffer(t._packed, dtype=np.uint8) for t in (self, other))
        return TruthTable._from_packed(self.n, (a ^ b).tobytes())

    def __repr__(self) -> str:
        if self.size <= 64:
            return f"TruthTable(n={self.n}, hex={self.to_hex()!r})"
        return f"TruthTable(n={self.n}, weight={self.weight()})"


# ----------------------------------------------------------------------
# linear algebra over F_2 on point masks: one eliminator, one index map
# ----------------------------------------------------------------------

def _row_reduce(vecs: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """One GF(2) elimination of every row of `vecs` at once, each row a set
    of vectors of F_2^width (int64, each in 0..2^width - 1), over the bit
    columns width - 1 down to 0.

    Returns the reduced rows and the bit each vector pivots on, -1 for one
    that reduced to zero.  The pivot vectors of a row are a basis of its
    span in fully reduced echelon form: each pivot bit is set in one of them
    only.
    """
    # a zero vector in every row keeps an empty one well-formed; it never pivots
    vecs = np.concatenate([vecs, np.zeros((len(vecs), 1), vecs.dtype)], axis=1)
    pivot = np.full(vecs.shape, -1)
    each = np.arange(len(vecs))
    for c in reversed(range(width)):
        hit = (vecs >> c) & 1 == 1
        free = hit & (pivot < 0)  # bit c set, not yet a pivot
        row = free.argmax(axis=1)
        found = free[each, row]
        # the pivot clears bit c from every other vector of its row
        hit[each, row] = False
        vecs ^= np.where(hit & found[:, None], vecs[each, row][:, None], 0)
        pivot[each[found], row[found]] = c
    return vecs, pivot


def _independent(vectors: Sequence[int], width: int) -> bool:
    """True iff the vectors of F_2^width (ints in 0..2^width - 1, checked by
    the caller) are linearly independent over F_2."""
    pivot = _row_reduce(np.array(vectors, dtype=np.int64).reshape(1, -1), width)[1]
    return int(np.count_nonzero(pivot >= 0)) == len(vectors)


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
    """All 2^dim points of the span of an independent basis: point i is the
    XOR of the basis vectors at the set bits of i."""
    return _linear_index_map(basis).tolist()


def subspace_indicator(n: int, basis: Sequence[int]) -> TruthTable:
    """Indicator function of the span of `basis`; basis must be independent."""
    _check_n(n)
    vecs = _vectors(basis, n, "basis vector")
    if not _independent(vecs, n):
        raise ValueError("basis vectors are linearly dependent over F_2")
    return TruthTable.from_support(n, _linear_index_map(vecs))


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
    c = np.array(symmetric_value_pattern(n, eps1, eps2), dtype=np.uint8)
    return TruthTable._from_packed(n, _pack_values(c[_weights_array(n)]))


def symmetric_value_pattern(n: int, eps1: int = 0, eps2: int = 0) -> list[int]:
    """The weight-indexed value list c_0..c_n of symmetric_bent(n, eps1, eps2)."""
    return [(w * (w - 1) // 2 + eps1 * w + eps2) & 1 for w in range(n + 1)]


def _weights_array(n: int) -> np.ndarray:
    """The uint8 weight of every index below 2^n, by doubling: the weights
    of 2^i..2^(i+1) - 1 are those of 0..2^i - 1 plus one."""
    w = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(w[:1 << i], 1, out=w[1 << i:2 << i])
    return w


def _check_mm(pi: Sequence[int], g: TruthTable) -> int:
    """Validate pi as a bijection on {0..2^k-1} and g on k variables; return k."""
    m = len(pi)
    if m < 2 or m & (m - 1):
        raise ValueError(f"permutation length {m} is not a power of two")
    if sorted(pi) != list(range(m)):
        raise ValueError("table is not a bijection on 0..2^k-1")
    k = m.bit_length() - 1
    if g.n != k:
        raise ValueError(f"g must be on {k} variables, got {g.n}")
    return k


def mm_bent(pi: Sequence[int], g: TruthTable) -> TruthTable:
    """Maiorana-McFarland bent function f(x, y) = x . pi(y) + g(y) on n = 2k."""
    k = _check_mm(pi, g)
    xs = np.arange(1 << k, dtype=np.uint32)
    parity = _weights_array(k) & 1
    # row y, col x: x . pi(y) is the parity of x & pi(y), one gather
    vals = parity[xs & np.asarray(pi, dtype=np.uint32)[:, None]] ^ g.values()[:, None]
    return TruthTable._from_packed(2 * k, _pack_values(vals))


def mm_dual(pi: Sequence[int], g: TruthTable) -> TruthTable:
    """Closed-form dual of mm_bent(pi, g): f~(x, y) = y . pi^-1(x) + g(pi^-1(x)),
    the x <-> y transpose of mm_bent(pi^-1, g o pi^-1).

    The inverse permutation acts on the first block; this is the unique form
    whose spectral dual is mm_bent(pi, g) again.
    """
    k = _check_mm(pi, g)
    pinv = np.argsort(pi).tolist()
    f = mm_bent(pinv, TruthTable._from_packed(k, _pack_values(g.values()[pinv])))
    return TruthTable._from_packed(2 * k, _pack_values(f.values().reshape(1 << k, -1).T))

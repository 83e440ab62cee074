"""References for the tests, computed without bentkit.

The field product, trace and inverse, the trace-form Gram map
(`pairing_perm`), the Walsh-Hadamard butterfly, parities, the hex codec and
the spread, quotient and Maiorana-McFarland tables come from
`perfbench/reference.py`, the module the benchmark's gate reads.  It is
loaded here once and registered as `reference`, the name the benchmark
workloads import, so the tests and the gate share one module object; test
files call it directly (`from oracles import reference as ref`).

What that module lacks stays here: row reduction to a basis, long division
of polynomials, and a full popcount.  Nothing here imports bentkit."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("reference", PERFBENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
sys.modules["reference"] = reference
_spec.loader.exec_module(reference)


def popcount_array(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint32 array (SWAR; values below 2^32)."""
    v = arr.astype(np.uint32)
    v = v - ((v >> 1) & 0x55555555)
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F
    return (v * 0x01010101) >> 24


def reduce_basis(vectors) -> list[int]:
    """Row-reduce a set of point masks to a basis of their span, one vector
    at a time, in fully reduced echelon form: each vector's leading bit is
    set in no other, and the vectors come in descending order of that bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def poly_mod_oracle(a: int, m: int) -> int:
    """Remainder of a modulo m by long division."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a

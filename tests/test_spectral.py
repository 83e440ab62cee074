import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import bentkit.boolfun
import bentkit.spectral
from bentkit.boolfun import (
    TruthTable,
    mm_bent,
    mm_dual,
    symmetric_bent,
)
from bentkit.field import DEFAULT_POLYS, GF2k, reducible_factor
from bentkit.spectral import (
    Duality,
    NotBentError,
    SingularMatrixError,
    _fwht,
    _stack_distances,
    _stack_identities,
    _transform_input,
    affine_transform,
    dist_to_dual,
    dual,
    duality_class,
    hamming_dist,
    is_bent,
    is_orthogonal,
    nonlinearity,
    rayleigh,
    rayleigh_quotient,
    wht,
)
from oracles import reference as ref

X1X3_X2X4 = TruthTable.from_function(
    4, lambda x: (x & (x >> 2) & 1) ^ ((x >> 1) & (x >> 3) & 1)
)

# the explicit order-4 matrices from the worked transform example
A_ORTH = [0b0111, 0b1011, 0b1101, 0b1110]
A_NONORTH = [0b0001, 0b0011, 0b0111, 0b1111]
B_SHIFT = 0b1110  # the point (0, 1, 1, 1)


def wht_oracle(f: TruthTable, u: int) -> int:
    return sum(
        (-1) ** (f[x] ^ ((u & x).bit_count() & 1)) for x in range(f.size)
    )


def random_tt(n, rng):
    return TruthTable(n, rng.getrandbits(1 << n))


# ----------------------------------------------------------------------
# the transform itself
# ----------------------------------------------------------------------

def test_wht_zero_function():
    spec = wht(TruthTable(4))
    assert spec[0] == 16
    assert all(spec[u] == 0 for u in range(1, 16))


def test_wht_product_n2():
    spec = wht(TruthTable.from_support(2, [3]))
    assert list(spec.values) == [2, 2, 2, -2]


def test_wht_matches_naive_oracle():
    rng = random.Random(1)
    for n in (2, 3, 5):
        f = random_tt(n, rng)
        spec = wht(f)
        for u in range(f.size):
            assert spec[u] == wht_oracle(f, u)


def test_wht_matches_int64_reference_butterfly():
    rng = random.Random(3)
    for n in range(2, 17):
        f = random_tt(n, rng)
        assert wht(f).values.tolist() == ref.fwht(f.values()).tolist()


def test_constant_function_at_n24_stays_exact():
    # W(0) = 2^24 is the largest value a spectrum can hold, and the sums of
    # W^2 (2^48) and of (-1)^f W (2^24) must not wrap.
    f = TruthTable(24)
    spec = wht(f)
    assert spec[0] == 1 << 24
    assert spec.max_abs() == 1 << 24
    assert np.count_nonzero(spec.values) == 1
    assert int(np.square(spec.values.astype(np.int64)).sum()) == 1 << 48
    assert rayleigh_quotient(f) == 1 << 24


def test_self_dual_rayleigh_sum_at_n24_exceeds_int32():
    # x . y on F_2^12 x F_2^12 is self-dual: S = 2^12 * N = 2^36.
    f = mm_bent(list(range(1 << 12)), TruthTable(12))
    assert rayleigh(f) == (1 << 36, 1 << 24)


@pytest.mark.parametrize(
    "support",
    [
        [(1 << 24) - 1],
        [0, 0xA5A5A5],
        random.Random(24).sample(range(1 << 24), 8),
    ],
    ids=["one-point", "two-points", "eight-seeded"],
)
def test_sparse_tables_at_n24_match_closed_form(support):
    # W(u) = 2^n [u = 0] - 2 sum_{p in supp} (-1)^(u . p): W(0) sits a few
    # units from 2^24, the edge of float32's exact integers.  The character
    # (-1)^(u . p) is the outer product of its values on the two 12-bit halves.
    half = np.arange(1 << 12, dtype=np.uint32)
    want = np.zeros((1 << 12, 1 << 12), dtype=np.int32)
    want[0, 0] = 1 << 24
    for p in support:
        hi, lo = (1 - 2 * ref.parity(half & q).astype(np.int32)
                  for q in (p >> 12, p & 0xFFF))
        want -= 2 * np.multiply.outer(hi, lo)
    want = want.reshape(-1)
    f = TruthTable.from_support(24, support)
    assert np.array_equal(wht(f).values, want)
    assert np.array_equal(wht(f ^ TruthTable(24, (1 << (1 << 24)) - 1)).values, -want)
    assert rayleigh_quotient(f) == want.sum(dtype=np.int64) - 2 * want[support].sum(dtype=np.int64)


def test_seeded_mm_bent_at_n24_under_both_pairings():
    rng = random.Random(2024)
    pi = list(range(1 << 12))
    rng.shuffle(pi)
    g = TruthTable(12, rng.getrandbits(1 << 12))
    f = mm_bent(pi, g)
    std = dual(f)
    assert std == mm_dual(pi, g)
    # W_tr(x, y) = W(Gx, Gy), so the trace dual is the standard one re-indexed
    ctx = GF2k(12)
    grid = std.values().reshape(ctx.order, ctx.order)
    gi = ctx.gram_index
    trace = dual(f, pairing=ctx)
    assert np.array_equal(trace.values(), grid[np.ix_(gi, gi)].reshape(-1))
    # N = 2^n - 2 dist(f, f~), with S read from the spectrum, not the dual
    for pairing, d in ((None, std), (ctx, trace)):
        assert rayleigh(f, pairing)[1] == (1 << 24) - 2 * hamming_dist(f, d)


def test_parseval_on_random_functions():
    rng = random.Random(2)
    for _ in range(100):
        values = wht(random_tt(10, rng)).values.astype(np.int64)
        assert int(np.square(values).sum()) == 1 << 20


@given(st.data())
def test_parseval_property_on_random_tables(data):
    n = data.draw(st.integers(2, 10), label="n")
    f = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1), label="bits"))
    pairings = [None] + ([GF2k(n // 2)] if n % 2 == 0 else [])
    for pairing in pairings:
        spec = wht(f, pairing)
        assert int(np.square(spec.values.astype(np.int64)).sum()) == 1 << (2 * n)


def _other_poly(k: int) -> int:
    """The smallest irreducible degree-k polynomial that is not the default."""
    return next(
        p for p in range(1 << k, 1 << (k + 1))
        if p != DEFAULT_POLYS[k] and reducible_factor(p) is None
    )


def test_trace_spectrum_is_gram_permutation_of_standard():
    # wht re-indexes the input through G^-1; the test re-indexes the
    # standard spectrum, a 2^k x 2^k grid (row y, column x), at (Gx, Gy) and
    # spot-checks it against the reference map u -> diag(G, G) u.  Every
    # k = 1..12 under the default polynomial, and under one other from k = 4 on.
    for k in sorted(DEFAULT_POLYS):
        rng = random.Random(k)
        f = random_tt(2 * k, rng)
        std = wht(f)
        grid = std.values.reshape(1 << k, 1 << k)
        for ctx in [GF2k(k)] + ([GF2k(k, _other_poly(k))] if k >= 4 else []):
            tr = wht(f, pairing=ctx)
            g = ctx.gram_index
            assert np.array_equal(tr.values, grid[np.ix_(g, g)].reshape(-1)), ctx
            if k <= 4:
                points = range(f.size)
            else:
                points = [0, f.size - 1] + [rng.randrange(f.size) for _ in range(300)]
            perm = ref.pairing_perm(k, ctx.poly)
            for u in points:
                assert tr[u] == std[perm[u]]


def _sparse_spectrum(n: int, support: list[int]) -> np.ndarray:
    """W(u) = 2^n [u = 0] - 2 sum_{p in supp} (-1)^(u . p), for every u."""
    us = np.arange(1 << n, dtype=np.uint32)
    want = np.zeros(1 << n, dtype=np.int64)
    want[0] = 1 << n
    for p in support:
        want -= 2 * (1 - 2 * ref.parity(us & p).astype(np.int64))
    return want


@pytest.mark.parametrize("n", [17, 20])
def test_sparse_tables_past_the_block_edge_match_closed_form(n):
    # The low 16 index bits go through blocks and the rest through column
    # strips; n <= 16 is one block, checked against the int64 reference.
    rng = random.Random(n)
    f = TruthTable.from_support(n, rng.sample(range(1 << n), 8))
    want = _sparse_spectrum(n, np.flatnonzero(f.values()).tolist())
    assert np.array_equal(wht(f).values, want)
    assert np.array_equal(wht(f ^ TruthTable(n, (1 << (1 << n)) - 1)).values, -want)


# ----------------------------------------------------------------------
# stacks of tables: the batch axis
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 17))
def test_batched_fwht_rows_equal_single_transforms(n):
    # Two scratch chunks of rows, the second one partial, wherever a chunk
    # holds more than one row; three rows of one block each at n = 16.
    rng = np.random.default_rng(n)
    rows = max(3, (1 << 16 >> n) + 3)
    stack = rng.integers(0, 2, (rows, 1 << n), dtype=np.uint8)
    got = _fwht(stack.astype(np.float32))
    assert got.shape == stack.shape and got.dtype == np.int32
    for row, spec in zip(stack, got):
        assert np.array_equal(spec, _fwht(row.astype(np.float32)))
    # and the B = 1 transform is the int64 reference
    assert np.array_equal(got[0] + (np.arange(1 << n) == 0) * (1 << n),
                          ref.fwht(stack[0]))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_batched_trace_reindex_equals_per_row(k):
    # t(x) = f(diag(G, G)^-1 x), per row of the stack and through the
    # inverse of the reference permutation
    ctx = GF2k(k)
    stack = np.random.default_rng(k).integers(0, 2, (5, 1 << (2 * k)), dtype=np.uint8)
    got = _transform_input(stack.copy(), ctx)
    inverse = np.argsort(ref.pairing_perm(k, ctx.poly))
    for row, t in zip(stack, got):
        assert np.array_equal(t, _transform_input(row.copy(), ctx))
        assert t.tolist() == row[inverse].tolist()


def test_stack_distances_match_the_int64_reference_under_both_pairings():
    # the reference dual is the sign bits of the int64 reference spectrum,
    # and the reference distance the Hamming distance to it
    rng = random.Random(11)
    for k in (2, 3, 4):
        ctx = GF2k(k)
        fs = []
        for _ in range(6):
            pi = list(range(1 << k))
            rng.shuffle(pi)
            fs.append(mm_bent(pi, random_tt(k, rng)))
        stack = np.array([f.values() for f in fs])
        # W_tr(u) = W(Gu): the trace spectrum reads the standard one through G
        for pairing, perm in ((None, slice(None)), (ctx, ref.pairing_perm(k, ctx.poly))):
            ref_duals = np.array([ref.fwht(t)[perm] < 0 for t in stack])
            duals = np.empty(stack.shape, dtype=bool)
            got = _stack_distances(_stack_identities(stack, pairing, duals))
            assert got.tolist() == np.count_nonzero(stack != ref_duals, axis=1).tolist()
            assert np.array_equal(duals, ref_duals)


def test_stack_distances_reject_a_planted_bit_flip():
    # one flipped bit makes a bent row non-bent: the stack fails, it is
    # never given a distance
    rng = random.Random(12)
    pi = list(range(8))
    fs = [mm_bent(pi, random_tt(3, rng)) for _ in range(4)]
    stack = np.array([f.values() for f in fs])
    for pairing in (None, GF2k(3)):
        _stack_distances(_stack_identities(stack, pairing))
        bad = stack.copy()
        bad[2, 37] ^= 1
        with pytest.raises(NotBentError):
            _stack_distances(_stack_identities(bad, pairing))


def test_stack_distances_reject_a_pairing_of_the_wrong_size():
    with pytest.raises(ValueError):
        _stack_distances(_stack_identities(np.zeros((2, 1 << 6), dtype=np.uint8), GF2k(2)))


@pytest.mark.parametrize("call", [
    lambda: wht(X1X3_X2X4),
    lambda: wht(X1X3_X2X4, GF2k(2)),
    lambda: is_bent(X1X3_X2X4),
    lambda: dual(X1X3_X2X4),
    lambda: rayleigh_quotient(X1X3_X2X4, GF2k(2)),
    lambda: dist_to_dual(X1X3_X2X4, GF2k(2)),
    lambda: _stack_identities(np.array([X1X3_X2X4.values()] * 3), None),
], ids=["wht", "wht-trace", "is_bent", "dual", "rayleigh_quotient", "dist_to_dual", "stack"])
def test_parseval_violation_is_asserted_on_every_path(monkeypatch, call):
    # the last entry of the transform off by 2 breaks the sum of squares:
    # every path meets the one Parseval assertion
    fwht = bentkit.spectral._fwht

    def off_by_two(a):
        out = fwht(a)
        out.reshape(-1)[-1] += 2
        return out

    monkeypatch.setattr(bentkit.spectral, "_fwht", off_by_two)
    with pytest.raises(AssertionError, match="^Parseval identity violated; transform is broken$"):
        call()


def _plant_spectra(monkeypatch, rows):
    """Make the transform return the int32 spectra `rows` (one per table of
    the stack): `_spectra` adds 2^n at u = 0 to what `_fwht` returns."""
    planted = np.array(rows, dtype=np.int32).reshape(-1, len(rows[0]))
    planted[:, 0] -= planted.shape[1]
    monkeypatch.setattr(bentkit.spectral, "_fwht", lambda a: planted.copy())


# The spectrum of x1 on four variables: not bent, Parseval intact.
X1_SPECTRUM = wht(TruthTable.from_function(4, lambda x: x & 1)).values.tolist()
FLAT = wht(X1X3_X2X4).values.tolist()
OFF_FLAT = FLAT[:-1] + [FLAT[-1] + 2]  # one entry off by 2: breaks Parseval


def test_flat_rows_are_yielded_unchanged(monkeypatch):
    # every |W(u)| = 4, whatever the signs: flat, so the chunk is yielded
    rows = [FLAT, [-v for v in FLAT], [4] * 16]
    _plant_spectra(monkeypatch, rows)
    tables = np.zeros((3, 16), dtype=np.uint8)
    (start, f, spec), = bentkit.spectral._spectra(tables, None)
    assert start == 0 and np.array_equal(f, tables) and spec.tolist() == rows


@pytest.mark.parametrize(
    "rows, width", [(9000, 16), (3, 1 << 17)], ids=["rows-in-a-block", "blocks-in-a-row"]
)
def test_first_off_is_the_first_entry_off_in_flat_order(rows, width):
    # blocks of 2^16 entries span rows (width 16) or split them (width 2^17)
    rng = np.random.default_rng(width)
    spec = np.where(rng.integers(0, 2, (rows, width)) == 1, 4, -4).astype(np.int32)
    assert bentkit.spectral._first_off(spec, 4) == -1
    picks = {*rng.choice(spec.size, 6, replace=False).tolist(), 1 << 16, (1 << 16) - 1}
    for i in sorted(picks, reverse=True):
        spec.reshape(-1)[i] = 0 if i % 2 else -12
        assert bentkit.spectral._first_off(spec, 4) == i
    assert bentkit.spectral._first_off(spec, 8) == 0


def test_a_non_flat_row_with_parseval_intact_is_the_not_bent_witness(monkeypatch):
    # the first bad point of the first bad row, as Parseval-then-max found it
    _plant_spectra(monkeypatch, [FLAT, X1_SPECTRUM, FLAT])
    u = next(i for i, v in enumerate(X1_SPECTRUM) if abs(v) != 4)
    with pytest.raises(NotBentError) as exc:
        list(bentkit.spectral._spectra(np.zeros((3, 16), dtype=np.uint8), None))
    assert (exc.value.u, exc.value.value) == (u, X1_SPECTRUM[u])
    assert str(exc.value) == f"function is not bent: |W({u})| = {abs(X1_SPECTRUM[u])} != 2^2"


@pytest.mark.parametrize("rows", [
    [X1_SPECTRUM, OFF_FLAT],  # Parseval broken behind an earlier non-flat row
    [OFF_FLAT, X1_SPECTRUM],
    [FLAT, OFF_FLAT],
], ids=["non-flat-first", "broken-first", "flat-first"])
def test_parseval_is_asserted_on_every_chunk_with_a_non_flat_row(monkeypatch, rows):
    _plant_spectra(monkeypatch, rows)
    with pytest.raises(AssertionError, match="^Parseval identity violated; transform is broken$"):
        list(bentkit.spectral._spectra(np.zeros((2, 16), dtype=np.uint8), None))


def test_an_odd_n_spectrum_with_every_abs_value_2_to_the_n_over_2_is_not_flat(monkeypatch):
    # |W(u)| = 2^(n//2) everywhere breaks Parseval at odd n, so it is asserted
    _plant_spectra(monkeypatch, [[4, -4] * 16])
    with pytest.raises(AssertionError, match="^Parseval identity violated"):
        list(bentkit.spectral._spectra(np.zeros((1, 32), dtype=np.uint8), None))


@pytest.mark.parametrize("call", [wht, rayleigh_quotient], ids=["wht", "rayleigh_quotient"])
def test_non_bent_paths_assert_parseval_on_a_broken_non_bent_spectrum(monkeypatch, call):
    broken = X1_SPECTRUM[:-1] + [X1_SPECTRUM[-1] + 2]
    _plant_spectra(monkeypatch, [broken])
    with pytest.raises(AssertionError, match="^Parseval identity violated"):
        call(TruthTable.from_function(4, lambda x: x & 1))
    _plant_spectra(monkeypatch, [X1_SPECTRUM])  # intact: read as it is
    call(TruthTable.from_function(4, lambda x: x & 1))


def test_linear_index_map_matches_pointwise_images():
    rng = random.Random(4)
    for n in range(0, 10):
        images = [rng.getrandbits(max(n, 1)) for _ in range(n)]
        want = [_apply_rows(images, u) for u in range(1 << n)]
        assert bentkit.boolfun._linear_index_map(images).tolist() == want
    # a k x m batch of maps: column j is the map of images[:, j]
    for k in range(1, 9):
        for m in (0, 1, 5):
            batch = np.array(
                [[rng.getrandbits(12) for _ in range(m)] for _ in range(k)],
                dtype=np.int64,
            ).reshape(k, m)
            if m:
                batch[:, 0] = 0
            got = bentkit.boolfun._linear_index_map(batch)
            assert got.shape == (1 << k, m)
            for j in range(m):
                want = bentkit.boolfun._linear_index_map(batch[:, j].tolist())
                assert got[:, j].tolist() == want.tolist()


def test_no_module_level_array_caches():
    f = random_tt(8, random.Random(6))
    for pairing in (None, GF2k(4), GF2k(4, 0b11001)):
        wht(f, pairing)
    for name, mod in list(sys.modules.items()):
        if name == "bentkit" or name.startswith("bentkit."):
            for value in vars(mod).values():
                if isinstance(value, dict):
                    assert not any(
                        isinstance(v, np.ndarray) for v in value.values()
                    ), name
    # the one index the trace pairing keeps lives on its field, read-only
    for k in sorted(DEFAULT_POLYS):
        g = GF2k(k).gram_index
        assert len(g) == 1 << k
        with pytest.raises(ValueError):
            g[0] = 1


def test_trace_pairing_arity_mismatch():
    with pytest.raises(ValueError):
        wht(TruthTable(3), pairing=GF2k(2))


# ----------------------------------------------------------------------
# sums restricted by input weight
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 11))
def test_restricted_sums_match_the_pointwise_sum(n):
    # (-1)^wt(x) is the character of 1...1, so the Walsh sum at u over the
    # even-weight (odd-weight) inputs is (W(u) + W(u ^ 1...1)) / 2 (minus)
    rng = random.Random(40 + n)
    x = np.arange(1 << n)
    odd = ref.parity(x).astype(bool)
    for _ in range(3):
        f = random_tt(n, rng)
        spec = wht(f)
        for u in {0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(4))}:
            terms = 1 - 2 * (f.values() ^ ref.parity(x & u)).astype(np.int64)
            other = spec[u ^ ((1 << n) - 1)]
            assert (spec[u] + other) // 2 == terms[~odd].sum()
            assert (spec[u] - other) // 2 == terms[odd].sum()


# ----------------------------------------------------------------------
# nonlinearity, bentness, duals
# ----------------------------------------------------------------------

def test_nonlinearity_of_affine_is_zero():
    for a in range(8):
        f = TruthTable.from_function(3, lambda x: (a & x).bit_count() & 1)
        assert nonlinearity(f) == 0


def test_bent_examples():
    assert nonlinearity(X1X3_X2X4) == 6
    assert is_bent(X1X3_X2X4)
    f6 = symmetric_bent(6)
    assert nonlinearity(f6) == 28
    assert is_bent(f6)
    assert not is_bent(TruthTable(4))
    assert not is_bent(random_tt(3, random.Random(0)))  # odd n never bent


def test_dual_self_dual_example():
    assert dual(X1X3_X2X4) == X1X3_X2X4


def test_dual_involution_on_mm_family():
    rng = random.Random(8)
    for _ in range(50):
        pi = list(range(8))
        rng.shuffle(pi)
        f = mm_bent(pi, TruthTable(3, rng.getrandbits(8)))
        d = dual(f)
        assert is_bent(d)
        assert dual(d) == f


@given(k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_dual_of_dual_on_seeded_mm_bents_under_both_pairings(k, seed):
    rng = random.Random(seed)
    pi = list(range(1 << k))
    rng.shuffle(pi)
    f = mm_bent(pi, TruthTable(k, rng.getrandbits(1 << k)))
    for pairing in (None, GF2k(k)):
        assert dual(dual(f, pairing), pairing) == f


def test_dual_error_carries_witness():
    f = TruthTable(4)  # constant, far from bent
    with pytest.raises(NotBentError) as err:
        dual(f)
    u = err.value.u
    assert abs(wht_oracle(f, u)) != 4


def test_dual_error_witness_at_odd_n():
    f = TruthTable.from_support(3, [0, 1, 2])  # |W(0)| = 2 = 2^(3//2)
    with pytest.raises(NotBentError) as err:
        dual(f)
    u = err.value.u
    assert err.value.value == wht_oracle(f, u)
    assert abs(err.value.value) != 2


def test_dual_error_witness_on_one_bit_flip_at_n12():
    rng = random.Random(9)
    pi = list(range(64))
    rng.shuffle(pi)
    f = mm_bent(pi, TruthTable(6, rng.getrandbits(64)))
    assert is_bent(f)
    g = f ^ TruthTable.from_support(12, [rng.randrange(1 << 12)])
    with pytest.raises(NotBentError) as err:
        dual(g)
    u = err.value.u
    assert err.value.value == wht_oracle(g, u)
    assert abs(err.value.value) != 1 << 6


# ----------------------------------------------------------------------
# Rayleigh quotients and distances
# ----------------------------------------------------------------------

def test_rayleigh_self_dual():
    s, n_f = rayleigh(X1X3_X2X4)
    assert (s, n_f) == (64, 16)
    assert rayleigh_quotient(X1X3_X2X4) == 64


def test_rayleigh_matches_definition_on_bent_samples():
    rng = random.Random(12)
    for _ in range(10):
        pi = list(range(4))
        rng.shuffle(pi)
        f = mm_bent(pi, TruthTable(2, rng.getrandbits(4)))
        s, n_f = rayleigh(f)
        d = dual(f)
        assert n_f == sum((-1) ** (f[x] ^ d[x]) for x in range(16))
        assert s == 4 * n_f
        assert dist_to_dual(f) == 8 - n_f // 2


def test_rayleigh_rejects_non_bent():
    with pytest.raises(NotBentError):
        rayleigh(TruthTable(4, 1))


def test_hamming_dist():
    f = X1X3_X2X4
    assert hamming_dist(f, f) == 0
    assert hamming_dist(f, f ^ TruthTable(4, (1 << 16) - 1)) == 16
    with pytest.raises(ValueError):
        hamming_dist(f, TruthTable(2))


def test_duality_class_tags():
    dc = duality_class(X1X3_X2X4)
    assert dc.tag is Duality.SELF_DUAL and dc.dist == 0
    # complementing flips the spectrum and the dual together: still self-dual
    dc2 = duality_class(X1X3_X2X4 ^ TruthTable(4, (1 << 16) - 1))
    assert dc2.tag is Duality.SELF_DUAL and dc2.dist == 0
    # the n=6 symmetric bent with no linear part is anti-self-dual
    dc3 = duality_class(symmetric_bent(6, 0, 0))
    assert dc3.tag is Duality.ANTI_SELF_DUAL and dc3.dist == 64


def test_bent_distance_bound_at_n4():
    rng = random.Random(13)
    for _ in range(20):
        pi = list(range(4))
        rng.shuffle(pi)
        f = mm_bent(pi, TruthTable(2, rng.getrandbits(4)))
        dc = duality_class(f)
        if dc.tag is not Duality.ANTI_SELF_DUAL:
            assert dc.dist <= 16 - 4


# ----------------------------------------------------------------------
# affine transforms
# ----------------------------------------------------------------------

def test_identity_transform():
    eye = [1 << i for i in range(4)]
    assert affine_transform(X1X3_X2X4, eye) == X1X3_X2X4


def test_is_orthogonal_on_example_matrices():
    assert is_orthogonal(A_ORTH, 4)
    assert not is_orthogonal(A_NONORTH, 4)
    assert is_orthogonal([[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [0, 1, 1, 1]], 4)


def test_transform_examples_match_published_distances():
    f = X1X3_X2X4
    g = affine_transform(f, A_ORTH)
    assert dual(g) == g  # orthogonal, b = 0: stays self-dual
    assert dist_to_dual(affine_transform(f, A_NONORTH)) == 8
    assert dist_to_dual(affine_transform(f, A_ORTH, B_SHIFT)) == 8


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        affine_transform(X1X3_X2X4, [1, 1, 2, 4])


def random_orthogonal(n: int, rng: random.Random) -> list[int]:
    """Random product of permutation matrices and the embedded example matrix."""
    rows = [1 << i for i in range(n)]
    for _ in range(6):
        choice = rng.randrange(2)
        if choice == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            factor = [1 << perm[i] for i in range(n)]
        else:
            factor = [A_ORTH[i] if i < 4 else 1 << i for i in range(n)]
        rows = [
            _apply_rows(factor, r) for r in rows
        ]
    return rows


def _with_even_reflection(rows: list[int], n: int, rng: random.Random) -> list[int]:
    """rows times I + u^T u for a random even-weight u, itself orthogonal."""
    u = rng.getrandbits(n)
    if u.bit_count() & 1:
        u ^= 1
    factor = [(1 << i) ^ (u if (u >> i) & 1 else 0) for i in range(n)]
    return [_apply_rows(factor, r) for r in rows]


@given(k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_dist_to_dual_invariant_under_orthogonal_maps(k, seed):
    rng = random.Random(seed)
    n = 2 * k
    a = _with_even_reflection(random_orthogonal(n, rng), n, rng)
    assert is_orthogonal(a, n)
    pi = list(range(1 << k))
    rng.shuffle(pi)
    f = mm_bent(pi, TruthTable(k, rng.getrandbits(1 << k)))
    g = affine_transform(f, a)
    assert dual(g) == affine_transform(dual(f), a)
    assert dist_to_dual(g) == dist_to_dual(f)


def _apply_rows(rows, v):
    out = 0
    for i, r in enumerate(rows):
        if (v >> i) & 1:
            out ^= r
    return out


def test_orthogonal_transform_preserves_dist_to_dual():
    rng = random.Random(21)
    for n in (4, 6):
        k = n // 2
        for _ in range(10):
            a = random_orthogonal(n, rng)
            assert is_orthogonal(a, n)
            pi = list(range(1 << k))
            rng.shuffle(pi)
            f = mm_bent(pi, TruthTable(k, rng.getrandbits(1 << k)))
            g = affine_transform(f, a)
            assert dist_to_dual(g) == dist_to_dual(f)

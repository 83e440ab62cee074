"""Acceptance battery: one test per criterion, exact tolerances, with the
stated runtime caps.  Each test prints one PASS line on success (run with
pytest -s to see them); a failure surfaces as an ordinary pytest failure.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

import numpy as np

from bentkit.analysis import (
    anti_selfdual_check,
    balanced_g_functions,
    census,
    dist_formula_ps_minus,
    dist_formula_ps_plus,
    distribution_table,
    metric_identity_check,
    rayleigh_vs_charsum,
    symmetric_report,
)
from bentkit.boolfun import TruthTable, mm_bent, symmetric_bent
from bentkit.cli import main
from bentkit.field import GF2k
from bentkit.golden import REFERENCE_DISTRIBUTION
from bentkit.spectral import (
    affine_transform,
    dist_to_dual,
    dual,
    is_bent,
    is_orthogonal,
    nonlinearity,
    wht,
)
from bentkit.spreads import (
    desarguesian,
    ps_general,
    ps_minus,
    ps_plus,
    psap_from_g,
    selection,
)

GOLDEN = Path(__file__).parent / "golden"

E1 = [0b0001, 0b0100]
E2 = [0b0010, 0b1000]
E3 = [0b0011, 0b1101]
E4 = [0b0110, 0b1001]
E5 = [0b0111, 0b1011]

A_ORTH = [0b0111, 0b1011, 0b1101, 0b1110]
A_NONORTH = [0b0001, 0b0011, 0b0111, 0b1111]
B_SHIFT = 0b1110


@contextmanager
def criterion(num: int, text: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {text}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed > limit:
        print(f"ACCEPTANCE {num:02d} FAIL - {text} (took {elapsed:.2f}s > {limit}s)")
        raise AssertionError(f"criterion {num} exceeded {limit}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {num:02d} PASS - {text} [{elapsed:.2f}s]")


def run_table_cli(capsys, n: int, fmt: str) -> str:
    code = main(["table", "--n", str(n), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_criterion_01_distribution_table(capsys):
    with criterion(1, "distribution table rows n=4..14 reproduced exactly", 1.0):
        for n, (nf_ref, dist_ref) in REFERENCE_DISTRIBUTION.items():
            payload = json.loads(run_table_cli(capsys, n, "json"))
            assert payload["nf_values"] == list(nf_ref)
            assert payload["dist_values"] == list(dist_ref)
            csv_text = run_table_cli(capsys, n, "csv")
            assert csv_text == (GOLDEN / f"table_n{n}.csv").read_text()
        row14 = distribution_table(14)
        assert len(row14.dist_values) == 65
        assert row14.dist_values[1] == 254 and row14.dist_values[-1] == 16256


def test_criterion_02_census_k2():
    with criterion(2, "exhaustive census k=2: 10 selections, 2 self-dual, "
                      "classes {0,6,12}, zero mismatches", 1.0):
        rep = census(GF2k(2), mode="exhaustive")
        assert rep.total_selections == 10
        assert rep.selfdual_count == 2
        assert sorted(rep.class_sizes) == [0, 6, 12]
        assert rep.spectral_checked == 10
        assert rep.formula_mismatches == 0


def test_criterion_03_census_k3():
    with criterion(3, "exhaustive census k=3: 126 selections, 6 self-dual, "
                      "classes {0,14,28,42,56}, zero mismatches", 10.0):
        rep = census(GF2k(3), mode="exhaustive")
        assert rep.total_selections == 126
        assert rep.selfdual_count == 6 == comb(4, 2)
        assert sorted(rep.class_sizes) == [0, 14, 28, 42, 56]
        assert rep.spectral_checked == 126
        assert rep.formula_mismatches == 0


def test_criterion_04_gform_selfdual_count():
    with criterion(4, "quotient-form self-dual counts: k=2 -> 1, k=3 -> 3", 5.0):
        for k in (2, 3):
            ctx = GF2k(k)
            found = sum(
                dist_to_dual(psap_from_g(ctx, g), pairing=ctx) == 0
                for g in balanced_g_functions(k)
            )
            assert found == comb((1 << (k - 1)) - 1, 1 << (k - 2))


def test_criterion_05_worked_n4_examples():
    with criterion(5, "worked n=4 examples: subspace distances and the "
                      "order-4 transform matrices"):
        assert dist_to_dual(ps_general(4, [E1, E2])) == 0      # f1 self-dual
        assert dist_to_dual(ps_general(4, [E3, E4])) == 6      # f2
        assert dist_to_dual(ps_general(4, [E1, E3])) == 12     # f3
        assert dist_to_dual(ps_general(4, [E1, E2, E4])) == 0  # g1 self-dual
        assert dist_to_dual(ps_general(4, [E1, E2, E3])) == 6  # g2
        assert dist_to_dual(ps_general(4, [E1, E3, E4])) == 12 # g3
        f = TruthTable.from_function(
            4, lambda x: (x & (x >> 2) & 1) ^ ((x >> 1) & (x >> 3) & 1)
        )
        assert dual(f) == f
        assert is_orthogonal(A_ORTH, 4) and not is_orthogonal(A_NONORTH, 4)
        g = affine_transform(f, A_ORTH)
        assert dual(g) == g  # b = 0 keeps it self-dual
        assert dist_to_dual(affine_transform(f, A_NONORTH)) == 8
        assert dist_to_dual(affine_transform(f, A_ORTH, B_SHIFT)) == 8


def test_criterion_06_metric_identities():
    with criterion(6, "metric identities on 126 spread functions (k=3), all "
                      "symmetric bents n=4..12, and 50 random MM bents", 60.0):
        ctx = GF2k(3)
        for combo in itertools.combinations(desarguesian(ctx), 4):
            res = metric_identity_check(ps_minus(selection(ctx, combo)), pairing=ctx)
            assert res.consistent
        for n in range(4, 13, 2):
            for e1, e2 in itertools.product((0, 1), repeat=2):
                assert metric_identity_check(symmetric_bent(n, e1, e2)).consistent
        rng = random.Random(606)
        for n in (6, 8):
            k = n // 2
            for _ in range(25):
                pi = list(range(1 << k))
                rng.shuffle(pi)
                f = mm_bent(pi, TruthTable(k, rng.getrandbits(1 << k)))
                assert metric_identity_check(f).consistent


def test_criterion_07_closed_form_distances_k4():
    with criterion(7, "closed-form distances equal spectral distances on 200 "
                      "seeded selections at k=4, all within 2^n - 2^k", 30.0):
        ctx = GF2k(4)
        lines = desarguesian(ctx)
        bound = (1 << 8) - (1 << 4)
        rng = random.Random(707)
        for _ in range(200):
            sel = selection(ctx, rng.sample(lines, 8))
            d = dist_formula_ps_minus(sel)
            assert d == dist_to_dual(ps_minus(sel), pairing=ctx)
            assert d <= bound
        for _ in range(200):
            sel = selection(ctx, rng.sample(lines, 9))
            d = dist_formula_ps_plus(sel)
            assert d == dist_to_dual(ps_plus(sel), pairing=ctx)
            assert d <= bound


def test_criterion_08_symmetric_propositions():
    with criterion(8, "symmetric bent duals match the closed form and the "
                      "Rayleigh case table for n=4..12"):
        for n in range(4, 13, 2):
            for rec in symmetric_report(n):
                assert rec.dual_formula_ok, (n, rec.eps1, rec.eps2)
                assert rec.nf_prediction_ok, (n, rec.eps1, rec.eps2)
                if (n // 2) % 2 == 0:
                    assert rec.nf_actual == 0
                else:
                    assert abs(rec.nf_actual) == 1 << n


def test_criterion_09_charsum_relation():
    with criterion(9, "derived character-sum relation exact for every valid g "
                      "at k=2,3; stated formula mismatch recorded"):
        for k in (2, 3):
            ctx = GF2k(k)
            for g in balanced_g_functions(k):
                rep = rayleigh_vs_charsum(ctx, g)
                assert rep.derived_matches
        # the canonical recorded discrepancy: self-dual g at k=2
        rep = rayleigh_vs_charsum(GF2k(2), TruthTable.from_support(2, [2, 3]))
        assert rep.N_f_actual == 16
        assert rep.stated_formula_value == 10
        assert not rep.stated_formula_matches


def test_criterion_10_no_anti_self_dual():
    with criterion(10, "anti-self-dual value absent from all censuses and "
                       "rows n=4..24; nonzero distances >= 2^(n/2)"):
        for k in (2, 3):
            assert anti_selfdual_check(census(GF2k(k)))
        for n in range(4, 25, 2):
            row = distribution_table(n)
            assert anti_selfdual_check(row)
            nonzero = [d for d in row.dist_values if d]
            assert min(nonzero) >= 1 << (n // 2)


def test_criterion_11_foundations():
    with criterion(11, "Parseval everywhere, dual involution, bent iff flat spectrum"):
        rng = random.Random(1111)
        bents = []
        for k in (2, 3):
            ctx = GF2k(k)
            for combo in itertools.combinations(desarguesian(ctx), 1 << (k - 1)):
                bents.append((ps_minus(selection(ctx, combo)), ctx))
        for n in range(4, 13, 2):
            bents.append((symmetric_bent(n, rng.randrange(2), rng.randrange(2)), None))
        for _ in range(10):
            pi = list(range(8))
            rng.shuffle(pi)
            bents.append((mm_bent(pi, TruthTable(3, rng.getrandbits(8))), None))
        for f, pairing in bents:
            values = wht(f, pairing).values.astype(np.int64)
            assert int(np.square(values).sum()) == 1 << (2 * f.n)
            d = dual(f, pairing)
            assert is_bent(d)
            assert dual(d, pairing) == f  # involution

        # bent <=> flat spectrum <=> extremal nonlinearity, on bent and non-bent
        probes = [f for f, _ in bents[:10]]
        probes += [TruthTable(4, rng.getrandbits(16)) for _ in range(20)]
        for f in probes:
            flat = bool(np.all(np.abs(wht(f).values) == 1 << (f.n // 2)))
            assert is_bent(f) == flat
            assert flat == (
                nonlinearity(f) == (1 << (f.n - 1)) - (1 << (f.n // 2 - 1))
            )

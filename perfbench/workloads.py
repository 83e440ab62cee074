"""Seeded inputs, job lists and the correctness gate of each workload.

A workload is a list of jobs run back to back in one process: CLI jobs go
through `bentkit.cli.main` with the generated hex, line lists and g tables
as arguments or stdin, and library jobs call one public function.  Inputs
come only from the seed (`random.Random(seed)`, plus numpy to expand the
Maiorana-McFarland table); expected values come from `reference`, which
shares no code with bentkit.  The gate checks every job's output and its
exit code; a job that fails any check counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("verify", "census-k7", "spread-k9", "spectra-n24")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TOY is the smoke test."""

    table_n: int
    census_k: int
    census_samples: int
    spread_k: int
    spread_poly: int
    spectra_k: int
    spectra_poly: int


FULL = Sizes(24, 7, 2000, 9, 0x211, 12, 0x1053)
TOY = Sizes(8, 3, 60, 3, 0xB, 4, 0x13)

# The exhaustive k = 3 census, as stated in the paper and bentkit's README.
CENSUS_K3 = {"0": 6, "14": 24, "28": 48, "42": 32, "56": 16}


def _cli(*argv: str, stdin: str | None = None) -> dict:
    return {"argv": list(argv), "stdin": stdin}


def _spot_checks(samples: int) -> int:
    """Selections the sampled census spot-checks spectrally: the first five
    draws and every 25th."""
    return sum(1 for i in range(samples) if i < 5 or i % 25 == 0)


def _realizable_dists(k: int) -> list[int]:
    """dist values of minus-type Desarguesian selections: (2^(k+1) - 2) j."""
    return [((1 << (k + 1)) - 2) * j for j in range((1 << (k - 1)) + 1)]


def _line_token(a: int | None) -> str:
    return "inf" if a is None else str(a)


def _trace_dist(f: np.ndarray, k: int, poly: int) -> tuple[bool, int]:
    """(bent?, dist to the trace-pairing dual) by a full reference transform."""
    spec = ref.fwht(f)
    bent = bool(np.all(np.abs(spec) == 1 << k))
    n_f = ref.trace_rayleigh_n(f, (spec < 0).astype(np.uint8), ref.pairing_perm(k, poly))
    return bent, (f.size - n_f) // 2


def make_inputs(workload: str, seed: int, sizes: Sizes, workdir: Path) -> dict:
    """Write the workload's inputs under `workdir` and return its spec:
    contexts to build at set-up, jobs, expected values, and the input digest."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files: dict[str, str] = {}
    if workload == "verify":
        contexts = [[2, None], [3, None], [4, None]]
        jobs = [
            _cli("verify", "--suite", "all"),
            _cli("table", "--n", str(sizes.table_n), "--format", "csv"),
            _cli("census", "--k", "3", "--mode", "exhaustive"),
        ]
        expected = {"checks": 10, "table_n": sizes.table_n, "census_k3": CENSUS_K3}
    elif workload == "census-k7":
        k, samples = sizes.census_k, sizes.census_samples
        contexts = [[k, None]]
        jobs = [
            _cli(
                "census", "--k", str(k), "--mode", "sample",
                "--samples", str(samples), "--seed", str(rng.randrange(1 << 31)),
            )
        ]
        expected = {
            "samples": samples,
            "spectral_checked": _spot_checks(samples),
            "realizable": _realizable_dists(k),
        }
    elif workload == "spread-k9":
        k, poly = sizes.spread_k, sizes.spread_poly
        size = 1 << (k - 1)
        lines = rng.sample(list(range(1 << k)) + [None], size)
        g_support = set(rng.sample(range(1, 1 << k), size))
        g = [int(u in g_support) for u in range(1 << k)]
        tokens = [_line_token(a) for a in lines]
        contexts = [[k, poly]]
        jobs = [
            _cli("construct", "ps-", "--k", str(k), "--poly", hex(poly), "--lines", ",".join(tokens)),
            _cli("construct", "psap", "--k", str(k), "--poly", hex(poly), "--g", ref.to_hex(np.array(g))),
            {"lib": "dist_formula_ps_minus", "ctx": 0, "lines": tokens},
        ]
        ps = ref.spread_minus_table(k, poly, lines)
        psap = ref.quotient_table(k, poly, g)
        ps_bent, ps_dist = _trace_dist(ps, k, poly)
        psap_bent, psap_dist = _trace_dist(psap, k, poly)
        if not (ps_bent and psap_bent):
            raise AssertionError("reference constructions are not bent")
        expected = {
            "k": k,
            "lines": sorted(tokens),
            "ps_tt": ref.to_hex(ps),
            "ps_dist": ps_dist,
            "psap_tt": ref.to_hex(psap),
            "psap_dist": psap_dist,
        }
    elif workload == "spectra-n24":
        k, poly = sizes.spectra_k, sizes.spectra_poly
        pi = list(range(1 << k))
        rng.shuffle(pi)
        g = [rng.getrandbits(1) for _ in range(1 << k)]
        f, f_dual = ref.mm_tables(k, pi, g)
        files = {"mm.hex": ref.to_hex(f), "mm_dual.hex": ref.to_hex(f_dual)}
        n_f = ref.trace_rayleigh_n(f, f_dual, ref.pairing_perm(k, poly))
        del f, f_dual
        contexts = [[k, poly]]
        jobs = [
            _cli("rayleigh", "--pairing", "trace", "--k", str(k), "--poly", hex(poly), stdin="mm.hex"),
            _cli("dual", "--format", "hex", stdin="mm.hex"),
        ]
        expected = {"k": k, "N": n_f, "dual_file": "mm_dual.hex"}
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for name, text in files.items():
        (workdir / name).write_text(text + "\n")
    digest = hashlib.sha256(json.dumps(jobs, sort_keys=True).encode())
    for job in jobs:
        if job.get("stdin"):
            digest.update((workdir / job["stdin"]).read_bytes())
    spec = {
        "workload": workload,
        "seed": seed,
        "contexts": contexts,
        "jobs": jobs,
        "expected": expected,
        "inputs_sha256": digest.hexdigest(),
    }
    write_spec(workdir, spec)
    return spec


def write_spec(workdir: Path, spec: dict) -> None:
    (workdir / "inputs.json").write_text(json.dumps(spec))


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------

def _check(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def gate(spec: dict, outcomes: list[dict], bentkit, workdir: Path) -> list[list[str]]:
    """Problems found in each job's outcome; an empty list means the job passed.

    `outcomes[i]` holds `rc` (exit code, None if the job raised) and `out`
    (captured stdout, or the library call's return value).  Gate-only work,
    such as the extra library calls below, runs after the timed jobs.
    """
    exp = spec["expected"]
    problems: list[list[str]] = [[] for _ in outcomes]
    for p, o in zip(problems, outcomes):
        _check(p, o["rc"] == 0, f"exit code {o['rc']}, expected 0")
    try:
        _GATES[spec["workload"]](spec, exp, outcomes, problems, bentkit, workdir)
    except Exception as exc:  # noqa: BLE001 - any error checking output is a failed job
        # Unparsable or malformed output: blame every job still marked ok.
        for p in problems:
            if not p:
                p.append(f"output could not be checked: {exc!r}")
    return problems


def _gate_verify(spec, exp, outcomes, problems, bentkit, workdir) -> None:
    suite, table, cen = (o["out"] for o in outcomes)
    payload = json.loads(suite)
    _check(problems[0], payload["passed"] is True, "verify did not pass")
    _check(problems[0], len(payload["checks"]) == exp["checks"], "wrong number of checks")
    _check(problems[0], all(c["ok"] for c in payload["checks"]), "a verify check failed")

    n = exp["table_n"]
    lines = table.strip().split("\n")
    _check(problems[1], lines[0] == "n,N_f,dist", "bad CSV header")
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    _check(problems[1], len(rows) == (1 << (n // 2 - 1)) + 1, f"{len(rows)} table rows")
    _check(
        problems[1],
        all(r[0] == n and r[1] % 2 == 0 and r[2] == (1 << (n - 1)) - r[1] // 2 for r in rows),
        "a table row breaks dist = 2^(n-1) - N/2",
    )

    report = json.loads(cen)
    _check(problems[2], report["class_sizes"] == exp["census_k3"], "wrong k = 3 census classes")
    _check(problems[2], report["formula_mismatches"] == 0, "census formula mismatches")


def _gate_census(spec, exp, outcomes, problems, bentkit, workdir) -> None:
    report = json.loads(outcomes[0]["out"])
    p = problems[0]
    _check(p, report["total_selections"] == exp["samples"], "total_selections")
    _check(p, sum(report["class_sizes"].values()) == exp["samples"], "class sizes do not sum to the samples")
    _check(p, report["spectral_checked"] == exp["spectral_checked"], "spectral_checked differs from the draw rule")
    _check(p, report["formula_mismatches"] == 0, "formula mismatches")
    _check(
        p,
        {int(d) for d in report["class_sizes"]} <= set(exp["realizable"]),
        "a class distance is not realizable",
    )


def _gate_spread(spec, exp, outcomes, problems, bentkit, workdir) -> None:
    ps, psap, lib = (o["out"] for o in outcomes)
    ps, psap = json.loads(ps), json.loads(psap)
    k = exp["k"]
    ctx = bentkit.GF2k(*spec["contexts"][0])
    half = 1 << (2 * k - 1)

    p = problems[0]
    _check(p, ps["bent"] is True, "ps- not bent")
    _check(p, ps["tt"] == exp["ps_tt"], "ps- truth table differs from the reference")
    _check(p, sorted(ps["lines"]) == exp["lines"], "ps- reports other lines")
    _check(p, ps["dist"] == exp["ps_dist"], "ps- dist differs from the reference transform")
    _check(p, ps["dist"] == lib, "ps- dist differs from dist_formula_ps_minus")
    sel = bentkit.selection(ctx, parse_lines(bentkit, spec["jobs"][2]["lines"]))
    _check(p, ps["dist"] == half - bentkit.nf_formula(sel) // 2, "ps- dist differs from nf_formula")
    _check(p, ps["S"] == ps["N"] << k, "ps- S != N 2^k")

    p = problems[1]
    _check(p, psap["bent"] is True, "psap not bent")
    _check(p, psap["tt"] == exp["psap_tt"], "psap truth table differs from the reference")
    _check(p, psap["dist"] == exp["psap_dist"], "psap dist differs from the reference transform")
    psap_sel = bentkit.selection(ctx, parse_lines(bentkit, psap["lines"]))
    _check(
        p,
        psap["dist"] == bentkit.dist_formula_ps_minus(psap_sel),
        "psap dist differs from dist_formula_ps_minus of its lines",
    )

    _check(problems[2], lib == exp["ps_dist"], "dist_formula_ps_minus differs from the reference")


def _gate_spectra(spec, exp, outcomes, problems, bentkit, workdir) -> None:
    ray = json.loads(outcomes[0]["out"])
    k, n_f = exp["k"], exp["N"]
    p = problems[0]
    _check(p, ray["N"] == n_f, f"N = {ray['N']}, reference {n_f}")
    _check(p, ray["S"] == ray["N"] << k, "S != N 2^k")
    _check(p, ray["dist"] == (1 << (2 * k - 1)) - ray["N"] // 2, "dist != 2^(n-1) - N/2")
    want = (workdir / exp["dual_file"]).read_text().strip()
    _check(problems[1], outcomes[1]["out"].strip() == want, "dual differs from the closed-form MM dual")


_GATES = {
    "verify": _gate_verify,
    "census-k7": _gate_census,
    "spread-k9": _gate_spread,
    "spectra-n24": _gate_spectra,
}


def parse_lines(bentkit, tokens: list[str]) -> list:
    return [
        bentkit.SpreadLine.infinity() if t == "inf" else bentkit.SpreadLine(int(t))
        for t in tokens
    ]

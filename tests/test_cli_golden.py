"""Frozen CLI transcripts.

Each record in tests/golden/cli/<name>.json holds one command's argv, the
stdin it reads (a file next to the records, or the seeded n = 24
Maiorana-McFarland table built below), its exit code, stdout and stderr,
and for a command with `--out` the SHA-256 and byte length of the file it
writes.  The test replays every record through `cli.main` in a temporary
working directory.  An output over 64 KiB is stored as its SHA-256 and
byte length, and every stdin is pinned by its SHA-256 too, so a record can
only pass on the input it was made from.

After an intended output change, rewrite the records with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/golden/cli/.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from bentkit.boolfun import TruthTable, mm_bent
from bentkit.cli import main

CLI = Path(__file__).parent / "golden" / "cli"
DIGEST_OVER = 64 * 1024
MM_N24 = "mm_n24_seed24"  # generated stdin, see _mm_n24_text

_N24 = ["--k", "12", "--poly", "0x1053"]
CASES = {
    "verify": (["verify", "--suite", "all"], None),
    "census_k2": (["census", "--k", "2"], None),
    "census_k3": (["census", "--k", "3"], None),
    "census_k4": (["census", "--k", "4"], None),
    "census_k5_sample": (
        ["census", "--k", "5", "--mode", "sample", "--samples", "200", "--seed", "7"],
        None,
    ),
    "census_k7_sample": (
        ["census", "--k", "7", "--mode", "sample", "--samples", "200", "--seed", "7"],
        None,
    ),
    "table_n24_csv": (["table", "--n", "24", "--format", "csv"], None),
    # one valid family, then each error the rank check decides
    **{
        f"construct_ps-general_{name}": (
            ["construct", "ps-general", "--n", "4",
             *(arg for spec in specs for arg in ("--subspace", spec))],
            None,
        )
        for name, specs in {
            "valid": ("1,2", "4,8", "5,10"),
            "dependent": ("1,2", "3,3"),
            "dependent_2e70": (f"{1 << 70},{1 << 70}", "2"),
            "vector16": ("1,2", "2,16"),
            "vector_2e63": (f"{1 << 63},1", "4,8"),
            "shared_point": ("1,2", "1,4"),
        }.items()
    },
    "construct_psap_k3": (["construct", "psap", "--k", "3", "--g", "1e"], None),
    "construct_psap_k4": (["construct", "psap", "--k", "4", "--g", "0ff0"], None),
    "construct_ps-_k3": (["construct", "ps-", "--k", "3", "--lines", "0,1,2,3"], None),
    "construct_ps-_k4": (["construct", "ps-", "--k", "4", "--lines", "0,1,2,3,4,5,6,7"], None),
    "construct_ps+_k3": (["construct", "ps+", "--k", "3", "--lines", "0,1,2,3,inf"], None),
    "construct_ps+_k4": (
        ["construct", "ps+", "--k", "4", "--lines", "0,1,2,3,4,5,6,7,inf"],
        None,
    ),
    **{
        f"{cmd}_{pairing}_n{n}": (
            [cmd, "--pairing", pairing], f"psap_n{n}.hex"
        )
        for cmd in ("wht", "dual", "rayleigh")
        for pairing in ("standard", "trace")
        for n in (6, 8)
    },
    # the README's CLI examples (its psap, k = 5 sample and verify examples
    # are recorded above)
    "readme_wht": (["wht", "6ca0"], None),
    "readme_bent": (["bent", "6ca0"], None),
    "readme_dual_hex": (["dual", "6ca0", "--format", "hex"], None),
    "readme_rayleigh": (["rayleigh", "6ca0"], None),
    "readme_dist": (["dist", "6ca0", "0000"], None),
    "readme_construct_ps-": (["construct", "ps-", "--k", "3", "--lines", "2,3,5,inf"], None),
    "readme_construct_ps+": (["construct", "ps+", "--k", "2", "--lines", "0,1,inf"], None),
    "readme_construct_ps-general": (
        ["construct", "ps-general", "--n", "4",
         "--subspace", "0001,0100", "--subspace", "0010,1000"],
        None,
    ),
    "readme_table_n14_csv": (["table", "--n", "14", "--format", "csv"], None),
    "readme_census_k3_out": (
        ["census", "--k", "3", "--mode", "exhaustive", "--out", "report.json"], None
    ),
    # usage errors: exit 2 with one error line
    "error_table_n5": (["table", "--n", "5"], None),
    "error_census_k9_exhaustive": (["census", "--k", "9", "--mode", "exhaustive"], None),
    "error_construct_psap_no_g": (["construct", "psap", "--k", "2"], None),
    "error_construct_ps-_no_lines": (["construct", "ps-", "--k", "2"], None),
    "error_construct_psap_g3": (["construct", "psap", "--k", "2", "--g", "3"], None),
    "error_bad_hex": (["wht", "zz"], None),
    "error_dist_different_n": (["dist", "6ca0", "00"], None),
    "error_trace_k0": (["wht", "6ca0", "--pairing", "trace", "--k", "0"], None),
    "error_negative_poly": (
        ["census", "--k", "4", "--poly", "-13", "--mode", "sample", "--samples", "1"],
        None,
    ),
    "rayleigh_trace_not_bent_n6": (["rayleigh", "--pairing", "trace"], "weight1_n6.hex"),
    "rayleigh_trace_n24": (["rayleigh", "--pairing", "trace", *_N24], MM_N24),
    "dual_hex_n24": (["dual", "--format", "hex"], MM_N24),
}


def _mm_n24_text() -> str:
    """A seeded n = 24 Maiorana-McFarland table: random pi and g at k = 12."""
    rng = random.Random(24)
    pi = list(range(1 << 12))
    rng.shuffle(pi)
    g = TruthTable.from_values(12, [rng.getrandbits(1) for _ in range(1 << 12)])
    return mm_bent(pi, g).to_hex() + "\n"


def _stdin_text(name: str | None) -> str:
    if name is None:
        return ""
    return _mm_n24_text() if name == MM_N24 else (CLI / name).read_text()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _frozen(text: str):
    """The text itself, or its digest and byte length when it is long."""
    if len(text.encode()) <= DIGEST_OVER:
        return text
    return {"sha256": _sha256(text), "bytes": len(text.encode())}


def _outcome(argv: list[str], code: int, out: str, err: str, workdir: Path) -> dict:
    """What a record freezes of one run in `workdir`: the exit code, stdout,
    stderr and, when argv has `--out`, the digest and byte length of the
    file it names (None if it was not written)."""
    got = {"exit": code, "stdout": _frozen(out), "stderr": _frozen(err)}
    if "--out" in argv:
        path = workdir / argv[argv.index("--out") + 1]
        got["out"] = None
        if path.exists():
            data = path.read_bytes()
            got["out"] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return got


def _frozen_outcome(record: dict) -> dict:
    """A record without the input it names: what `_outcome` returns."""
    return {
        key: value for key, value in record.items()
        if key not in ("argv", "stdin", "stdin_sha256")
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_is_unchanged(name, capsys, monkeypatch, tmp_path):
    record = json.loads((CLI / f"{name}.json").read_text())
    argv, stdin_name = CASES[name]
    assert (record["argv"], record["stdin"]) == (argv, stdin_name)
    stdin = _stdin_text(stdin_name)
    assert _sha256(stdin) == record["stdin_sha256"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    got = _outcome(argv, code, *capsys.readouterr(), tmp_path)
    assert got == _frozen_outcome(record)


def test_every_record_is_a_case():
    assert sorted(p.stem for p in CLI.glob("*.json")) == sorted(CASES)


def _record_all() -> None:
    """Rewrite every record from the bentkit on the import path."""
    home = os.getcwd()
    for name, (argv, stdin_name) in sorted(CASES.items()):
        stdin = _stdin_text(stdin_name)
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        with tempfile.TemporaryDirectory() as workdir:
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(argv))
            finally:
                os.chdir(home)
            outcome = _outcome(argv, code, out.getvalue(), err.getvalue(), Path(workdir))
        record = {
            "argv": argv,
            "stdin": stdin_name,
            "stdin_sha256": _sha256(stdin),
            **outcome,
        }
        (CLI / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    sys.stdin = sys.__stdin__


if __name__ == "__main__":
    _record_all()

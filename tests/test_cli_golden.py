"""Frozen CLI transcripts.

Each record in tests/golden/cli/<name>.json holds one command's argv, the
stdin it reads (a file next to the records, or the seeded n = 24
Maiorana-McFarland table built below), its exit code, stdout and stderr.
The test replays every record through `cli.main`.  An output over 64 KiB
is stored as its SHA-256 and byte length, and every stdin is pinned by
its SHA-256 too, so a record can only pass on the input it was made from.

After an intended output change, rewrite the records with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/golden/cli/.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
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


def _run(argv: list[str], stdin: str, capsys, monkeypatch) -> dict:
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out, err = capsys.readouterr()
    return {"exit": code, "stdout": _frozen(out), "stderr": _frozen(err)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_is_unchanged(name, capsys, monkeypatch):
    record = json.loads((CLI / f"{name}.json").read_text())
    argv, stdin_name = CASES[name]
    assert (record["argv"], record["stdin"]) == (argv, stdin_name)
    stdin = _stdin_text(stdin_name)
    assert _sha256(stdin) == record["stdin_sha256"]
    got = _run(argv, stdin, capsys, monkeypatch)
    assert got == {key: record[key] for key in ("exit", "stdout", "stderr")}


def test_every_record_is_a_case():
    assert sorted(p.stem for p in CLI.glob("*.json")) == sorted(CASES)


def _record_all() -> None:
    """Rewrite every record from the bentkit on the import path."""
    for name, (argv, stdin_name) in sorted(CASES.items()):
        stdin = _stdin_text(stdin_name)
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        record = {
            "argv": argv,
            "stdin": stdin_name,
            "stdin_sha256": _sha256(stdin),
            "exit": code,
            "stdout": _frozen(out.getvalue()),
            "stderr": _frozen(err.getvalue()),
        }
        (CLI / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    sys.stdin = sys.__stdin__


if __name__ == "__main__":
    _record_all()

import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bentkit
import bentkit.cli
import bentkit.spectral
from bentkit.boolfun import TruthTable, mm_bent
from bentkit.cli import main
from bentkit.field import GF2k
from test_cli_golden import _mm_n24_text

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, **kw):
    code, out, err = run_cli(capsys, *argv, **kw)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def test_table_json_n6(capsys):
    payload = run_json(capsys, "table", "--n", "6")
    assert payload["dist_values"] == [0, 14, 28, 42, 56]
    assert payload["nf_values"] == [-48, -20, 8, 36, 64]
    assert payload["validation"] == "exhaustive-census"


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_table_csv_matches_golden_files(capsys, n):
    code, out, err = run_cli(capsys, "table", "--n", str(n), "--format", "csv")
    assert code == 0
    assert out == (GOLDEN / f"table_n{n}.csv").read_text()


def test_table_byte_stable(capsys):
    a = run_cli(capsys, "table", "--n", "8")[1]
    b = run_cli(capsys, "table", "--n", "8")[1]
    assert a == b


def test_table_rejects_odd_n(capsys):
    code, _, err = run_cli(capsys, "table", "--n", "5")
    assert code == 2
    assert "error" in err


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys, "table", "--n", "4", "--format", "csv", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == (GOLDEN / "table_n4.csv").read_text()


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

def test_census_k2(capsys):
    payload = run_json(capsys, "census", "--k", "2", "--mode", "exhaustive")
    assert payload["total_selections"] == 10
    assert payload["selfdual_count"] == 2
    assert payload["class_sizes"] == {"0": 2, "6": 4, "12": 4}
    assert payload["formula_mismatches"] == 0


def test_census_k_cap_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--k", "9", "--mode", "exhaustive")
    assert code == 2
    assert "capped" in err


def test_census_sample_reports_seed(capsys):
    payload = run_json(
        capsys, "census", "--k", "4", "--mode", "sample", "--samples", "40",
        "--seed", "11",
    )
    assert payload["seed"] == 11
    assert payload["mode"] == "sample"
    assert payload["total_selections"] == 40


def test_census_sample_byte_stable(capsys):
    argv = ["census", "--k", "4", "--mode", "sample", "--samples", "30", "--seed", "3"]
    a = run_cli(capsys, *argv)[1]
    b = run_cli(capsys, *argv)[1]
    assert a == b


def test_poly_flag_accepts_hex_masks(capsys):
    # x^4 + x + 1 both with and without the 0x prefix
    outs = []
    for spelling in ("0x13", "13"):
        code, out, err = run_cli(
            capsys, "census", "--k", "4", "--mode", "sample", "--samples", "5",
            "--seed", "1", "--poly", spelling,
        )
        assert code == 0, err
        assert json.loads(out)["formula_mismatches"] == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, _, err = run_cli(
        capsys, "census", "--k", "4", "--mode", "sample", "--samples", "5",
        "--poly", "0x18",  # x^4 + x^3 = x^3(x+1), reducible
    )
    assert code == 2 and "reducible" in err


def test_negative_poly_is_usage_error(capsys):
    # argparse takes "-13" as the value, and int("-13", 16) is -19
    code, out, err = run_cli(
        capsys, "census", "--k", "4", "--poly", "-13", "--mode", "sample",
        "--samples", "1",
    )
    assert code == 2 and out == ""
    assert "non-negative" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--k", "4", "--mode", "sample", "--samples", "1", "--poly", "1_3"),
        ("census", "--k", "4", "--mode", "sample", "--samples", "1", "--poly", "+13"),
        ("construct", "ps-", "--k", "4", "--lines", "1_0,2,3,4,inf"),
        ("construct", "ps-", "--k", "3", "--lines", "+1,2,3,inf"),
        ("construct", "ps-", "--k", "3", "--lines=2,-1,3,inf"),
        ("construct", "ps-general", "--n", "4", "--subspace", "+1,0100"),
        ("construct", "ps-general", "--n", "4", "--subspace", "0b0_1,0100"),
        ("construct", "ps-general", "--n", "4", "--subspace=-1,0100"),
    ],
)
def test_signed_or_underscored_int_tokens_are_usage_errors(capsys, argv):
    # int() takes "_" separators and signs; the CLI's integer tokens do not
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "without sign or '_'" in err and "Traceback" not in err


def test_prefixed_int_tokens_still_parse(capsys):
    plain = run_json(capsys, "construct", "ps-", "--k", "3", "--lines", "2,3,5,inf")
    prefixed = run_json(
        capsys, "construct", "ps-", "--k", "3", "--lines", "0x2,0b11,5,inf"
    )
    assert prefixed == plain
    bits = run_json(
        capsys, "construct", "ps-general", "--n", "4",
        "--subspace", "0001,0100", "--subspace", "0010,1000",
    )
    prefixed = run_json(
        capsys, "construct", "ps-general", "--n", "4",
        "--subspace", "0b1,0x4", "--subspace", "2,8",
    )
    assert prefixed == bits


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def test_construct_psap_hex_g6(capsys):
    payload = run_json(capsys, "construct", "psap", "--k", "2", "--g", "6")
    assert payload["bent"] is True
    assert payload["dist"] == 6
    assert payload["N"] == 4
    assert payload["n"] == 4


def test_construct_psap_selfdual(capsys):
    payload = run_json(capsys, "construct", "psap", "--k", "2", "--g", "c")
    assert payload["dist"] == 0
    assert payload["duality"] == "self-dual"
    assert payload["lines"] == ["2", "3"]


def test_construct_ps_minus_with_lines(capsys):
    payload = run_json(
        capsys, "construct", "ps-", "--k", "3", "--lines", "2,3,5,inf"
    )
    assert payload["bent"] is True
    assert payload["n"] == 6
    assert payload["weight"] == 28


def test_construct_ps_plus(capsys):
    payload = run_json(
        capsys, "construct", "ps+", "--k", "2", "--lines", "0,1,inf"
    )
    assert payload["bent"] is True
    assert payload["weight"] == 10


def test_construct_ps_general_example(capsys):
    payload = run_json(
        capsys,
        "construct", "ps-general", "--n", "4",
        "--subspace", "0001,0100", "--subspace", "0010,1000",
    )
    assert payload["dist"] == 0
    assert payload["duality"] == "self-dual"


def test_construct_hex_output_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "psap", "--k", "2", "--g", "6", "--format", "hex"
    )
    assert code == 0
    tt_hex = out.strip()
    payload = run_json(capsys, "rayleigh", tt_hex, "--pairing", "trace", "--k", "2")
    assert payload["dist"] == 6


def test_construct_usage_errors(capsys):
    assert run_cli(capsys, "construct", "psap", "--k", "2")[0] == 2
    assert run_cli(capsys, "construct", "ps-", "--k", "2")[0] == 2
    code, _, err = run_cli(
        capsys, "construct", "psap", "--k", "2", "--g", "3"
    )  # g(0) = 1
    assert code == 2 and "g(0)" in err
    code, _, err = run_cli(
        capsys,
        "construct", "ps-general", "--n", "4",
        "--subspace", "0001,0100", "--subspace", "0001,0010",
    )
    assert code == 2 and "share" in err


def test_ps_general_vector_beyond_int64_is_a_range_error(capsys):
    code, out, err = run_cli(
        capsys, "construct", "ps-general", "--n", "4",
        "--subspace", f"{1 << 63},1", "--subspace", "0010,1000",
    )
    assert (code, out) == (2, "")
    assert err == f"bentkit: error: subspace 0: vector {1 << 63} out of range 0..15\n"


def test_a_4300_digit_subspace_vector_is_refused_before_any_rank(capsys, monkeypatch):
    # the largest int the CLI parses: the range check refuses it, naming it
    # by its bit length in one short line, and the eliminator never runs
    def no_rank(*args):
        raise AssertionError("_row_reduce ran")

    monkeypatch.setattr("bentkit.boolfun._row_reduce", no_rank)
    huge = 10 ** 4299
    code, out, err = run_cli(
        capsys, "construct", "ps-general", "--n", "4",
        "--subspace", f"{huge},1", "--subspace", "4,8",
    )
    assert (code, out) == (2, "")
    bits = huge.bit_length()
    assert err == f"bentkit: error: subspace 0: vector of {bits} bits out of range 0..15\n"
    assert len(err) < 200


def test_ps_general_zero_basis_at_n2_is_dependent(capsys):
    code, out, err = run_cli(capsys, "construct", "ps-general", "--n", "2", "--subspace", "0")
    assert (code, out) == (2, "")
    assert err == "bentkit: error: subspace 0: basis is linearly dependent\n"


@pytest.mark.parametrize("argv, message", [
    (("--n", "4"), "give at least one --subspace"),
    (("--subspace", "1,4"), "--n is required for ps-general"),
    (("--n", "5", "--subspace", "1,2"), "need even n, got 5"),
])
def test_ps_general_needs_subspaces_and_an_even_n(capsys, argv, message):
    code, out, err = run_cli(capsys, "construct", "ps-general", *argv)
    assert (code, out, err) == (2, "", f"bentkit: error: {message}\n")


def test_an_unwritable_out_path_is_an_io_error(capsys, tmp_path):
    path = tmp_path / "missing" / "table.json"
    code, out, err = run_cli(capsys, "table", "--n", "6", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("bentkit: i/o error: ") and str(path) in err
    assert err.count("\n") == 1 and not path.parent.exists()


@pytest.mark.parametrize("n", ["-2", "0", "26"])
def test_ps_general_checks_n_first(capsys, n):
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "construct", "ps-general", "--n", n,
            "--subspace", "1,4", "--subspace", "2,8", "--subspace", "3,12",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"variable count must be in 2..24, got {n}" in err
    assert "Traceback" not in err
    assert peak < 1 << 20  # far below a 2^n-point table


@pytest.mark.parametrize("family, arg", [
    ("ps-", ("--lines", ",".join(map(str, range(1 << 12))))),
    ("psap", ("--g", TruthTable.from_support(13, range(1, (1 << 12) + 1)).to_hex())),
])
def test_spread_constructions_above_k12_fail_fast(capsys, family, arg):
    # --poly gives GF(2^13), but n = 26 is out of range: exit 2 before any table
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "construct", family, "--k", "13", "--poly", "0x201b", *arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "bentkit: error: variable count must be in 2..24, got 26\n"
    assert peak < 8 << 20


# ----------------------------------------------------------------------
# spectral subcommands
# ----------------------------------------------------------------------

def test_wht_spectrum_payload(capsys):
    payload = run_json(capsys, "wht", "8", "--n", "2")
    assert payload == {"schema": 1, "n": 2, "spectrum": [2, 2, 2, -2]}


def test_wht_reads_stdin(capsys, monkeypatch):
    payload = run_json(capsys, "wht", stdin="8\n", monkeypatch=monkeypatch)
    assert payload["spectrum"] == [2, 2, 2, -2]


@pytest.mark.parametrize("pairing", ["standard", "trace"])
def test_wht_pieces_are_one_json_dumps(capsys, tmp_path, pairing):
    # n = 18 is four 2^16-value pieces: stdout and the --out file are the
    # bytes json.dumps gives the whole spectrum list at once
    f = TruthTable(18, random.Random(18).getrandbits(1 << 18))
    spectrum = bentkit.spectral.wht(f, GF2k(9) if pairing == "trace" else None).values.tolist()
    want = json.dumps({"schema": 1, "n": 18, "spectrum": spectrum}, sort_keys=True) + "\n"
    argv = ["wht", f.to_hex(), "--pairing", pairing]
    assert run_cli(capsys, *argv) == (0, want, "")
    out = tmp_path / "w.json"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text() == want


# SHA-256 of `wht --pairing trace --k 12 --poly 0x1053` on the seeded n = 24
# MM table, as the one-shot json.dumps of the whole list wrote it
WHT_TRACE_N24_SHA256 = "382e1ec073757469ef0ca648dd44a1c080944a79c20b39ae7506d62e6128d2b9"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_wht_at_n24_streams_its_json(tmp_path):
    # a fresh process, so VmHWM is this request's own peak: the answer is
    # 103 MB of text, and its 16.7M values as one list of Python ints
    # held ~950 MB
    child = (
        "import re, sys\n"
        "from bentkit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "status = open('/proc/self/status').read()\n"
        "sys.stderr.write(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "wht.json"
    with open(out, "wb") as fh:
        run = subprocess.run(
            [sys.executable, "-c", child, "wht", "--pairing", "trace", "--k", "12",
             "--poly", "0x1053"],
            input=_mm_n24_text(),
            stdout=fh,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256()
    with open(out, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    out.unlink()
    assert digest.hexdigest() == WHT_TRACE_N24_SHA256
    assert int(run.stderr) < 400 * 1024


def test_bent_subcommand(capsys):
    payload = run_json(capsys, "bent", "6ca0")
    assert payload["bent"] is True and payload["nonlinearity"] == 6


def test_dual_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dual", "6ca0", "--format", "hex")
    assert code == 0 and out.strip() == "6ca0"  # self-dual
    code, _, err = run_cli(capsys, "dual", "0001")
    assert code == 2  # not bent


def test_rayleigh_subcommand(capsys):
    payload = run_json(capsys, "rayleigh", "6ca0")
    assert payload == {"schema": 1, "n": 4, "S": 64, "N": 16, "dist": 0}


def test_dist_subcommand(capsys, monkeypatch):
    payload = run_json(capsys, "dist", "6ca0", "0000")
    assert payload["dist"] == 6
    payload = run_json(
        capsys, "dist", stdin="6ca0\n6ca0\n", monkeypatch=monkeypatch
    )
    assert payload["dist"] == 0


def test_dist_of_different_n_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "dist", stdin="6ca0\n00\n", monkeypatch=monkeypatch
    )
    assert code == 2 and out == ""
    assert "variable counts differ" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [(cmd, "6ca0", "6ca0") for cmd in ("wht", "bent", "dual", "rayleigh")]
    + [("dist", "6ca0", "0000", "ffff")],
)
def test_extra_positional_tables_are_usage_errors(capsys, monkeypatch, argv):
    count = len(argv) - 2
    code, out, err = run_cli(capsys, *argv, stdin="6ca0\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == f"bentkit: error: expected {count} hex truth table(s), got {count + 1}\n"
    assert bentkit.cli.sys.stdin.tell() == 0


def test_bad_hex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "wht", "zz")
    assert code == 2


@pytest.mark.parametrize("text", ["0x6c", "6_c0", "+6ca", "6c a0"])
def test_non_hex_table_is_usage_error(capsys, text):
    code, out, err = run_cli(capsys, "wht", text)
    assert code == 2 and out == ""
    assert "non-hex character" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("wht", "--n", "-1", "0"),
        ("wht", "--n", "30", "0"),
        ("construct", "psap", "--k", "1", "--g", "2"),
    ],
)
def test_out_of_range_n_for_hex_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "variable count must be in 2..24" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bent", "6ca0", "--pairing", "trace"),
        ("bent", "6ca0", "--k", "2"),
        ("dist", "6ca0", "0000", "--poly", "7"),
    ],
)
def test_bent_and_dist_take_no_pairing_options(capsys, argv):
    # bentness and Hamming distance do not depend on the inner product
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["wht", "dual", "rayleigh"])
@pytest.mark.parametrize(
    "options", [("--k", "2"), ("--poly", "7"), ("--pairing", "standard", "--poly", "7")]
)
def test_k_and_poly_need_trace_pairing(capsys, cmd, options):
    # they choose the trace pairing's field; the standard pairing has none
    code, out, err = run_cli(capsys, cmd, "6ca0", *options)
    assert (code, out, err) == (2, "", "bentkit: error: --k and --poly need --pairing trace\n")
    assert run_cli(capsys, cmd, "6ca0", "--pairing", "trace", *options[-2:])[0] == 0


@pytest.mark.parametrize("cmd", ["wht", "dual", "rayleigh"])
@pytest.mark.parametrize("stdin", ["", "6ca0\n"])
def test_k_and_poly_conflict_is_reported_before_stdin_is_read(capsys, monkeypatch, cmd, stdin):
    code, out, err = run_cli(capsys, cmd, "--poly", "0x7", stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "bentkit: error: --k and --poly need --pairing trace\n")
    assert bentkit.cli.sys.stdin.tell() == 0


def test_trace_pairing_with_k_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "wht", "6ca0", "--pairing", "trace", "--k", "0")
    assert code == 2 and out == ""
    assert "trace pairing needs n = 2k" in err


def test_trace_pairing_has_a_default_field_at_n18(capsys):
    rng = random.Random(18)
    pi = list(range(1 << 9))
    rng.shuffle(pi)
    tt = mm_bent(pi, TruthTable(9, rng.getrandbits(1 << 9))).to_hex()
    for cmd in ("rayleigh", "dual"):
        default = run_cli(capsys, cmd, tt, "--pairing", "trace")
        assert default[0] == 0, default[2]
        assert default == run_cli(
            capsys, cmd, tt, "--pairing", "trace", "--poly", "0x211"
        )


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["rayleigh", "6ca0"], {"N": 16, "S": 64, "dist": 0, "n": 4}),
        (["dual", "6ca0"], {"n": 4, "tt": "6ca0"}),
        (["bent", "6ca0"], {"bent": True, "n": 4, "nonlinearity": 6}),
        (
            ["construct", "ps-", "--k", "3", "--lines", "2,3,5,inf"],
            {
                "N": 8, "S": 64, "bent": True, "dist": 28, "duality": "neither",
                "lines": ["2", "3", "5", "inf"], "n": 6,
                "tt": "718d8b2d53936500", "weight": 28,
            },
        ),
        (
            ["construct", "psap", "--k", "2", "--g", "6"],
            {
                "N": 4, "S": 16, "bent": True, "dist": 6, "duality": "neither",
                "lines": ["1", "3"], "n": 4, "tt": "ac60", "weight": 6,
            },
        ),
    ],
)
def test_one_transform_per_request(capsys, monkeypatch, argv, expected):
    calls = []
    fwht = bentkit.spectral._fwht

    def counting_fwht(a):
        calls.append(a.size)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    assert run_json(capsys, *argv) == {"schema": 1, **expected}
    assert len(calls) == 1


@pytest.mark.parametrize("argv, table", [
    (["construct", "ps-", "--k", "3", "--lines", "2,3,5,inf"], "718d8b2d53936500"),
    (["construct", "ps-general", "--n", "4",
      "--subspace", "0001,0100", "--subspace", "0010,1000"], "0536"),
], ids=["ps-", "ps-general"])
def test_construct_hex_makes_no_transform(capsys, monkeypatch, argv, table):
    calls = []
    fwht = bentkit.spectral._fwht
    monkeypatch.setattr(bentkit.spectral, "_fwht", lambda a: calls.append(a.size) or fwht(a))
    assert main([*argv, "--format", "hex"]) == 0
    assert capsys.readouterr().out == table + "\n"
    assert calls == []


@pytest.mark.parametrize("name, pairing", [
    pytest.param(name, pairing, id=f"{name}-{'trace' if pairing else 'standard'}")
    for name, paired in [
        ("wht", True), ("dual", True), ("rayleigh", True), ("dist_to_dual", True),
        ("duality_class", True), ("is_bent", False), ("nonlinearity", False),
        ("rayleigh_quotient", True), ("metric_identity_check", True),
    ]
    for pairing in ((None, GF2k(2)) if paired else (None,))
])
def test_one_transform_per_library_call(monkeypatch, name, pairing):
    calls = []
    fwht = bentkit.spectral._fwht

    def counting_fwht(a):
        calls.append(a.size)
        return fwht(a)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    f = TruthTable.from_hex("6ca0")
    getattr(bentkit, name)(*([f] if pairing is None else [f, pairing]))
    assert calls == [16]


def test_construct_metadata_of_a_non_bent_table():
    # bent is read off the one checked path, which refuses a non-bent table
    assert bentkit.cli._metadata(TruthTable(4, 1), None) == {
        "n": 4, "tt": "0001", "bent": False, "weight": 1,
    }


# ----------------------------------------------------------------------
# the README examples
# ----------------------------------------------------------------------

def _readme_blocks() -> list[tuple[str, str]]:
    return re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_cli_examples_exit_0(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the census example writes report.json
    commands = [
        shlex.split(line, comments=True)[1:]
        for lang, body in _readme_blocks()
        if lang != "python"
        for line in body.splitlines()
        if line.startswith("bentkit ")
    ]
    assert len(commands) >= 10
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_readme_quick_start_prints_its_census_comment(capsys):
    (code,) = [body for lang, body in _readme_blocks() if lang == "python"]
    comment = re.search(r"census\(F8\)\.class_sizes\)\s*#\s*(.*)", code)[1]
    assert comment == "{0: 6, 14: 24, 28: 48, 42: 32, 56: 16}"
    exec(compile(code, str(README), "exec"), {})
    assert comment in capsys.readouterr().out.splitlines()


# ----------------------------------------------------------------------
# the interpreter entry point
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv, stdin, code", [
    (["verify", "--suite", "all"], None, 0),
    (["rayleigh"], "6ca0\n", 0),
    (["rayleigh", "6cz0"], None, 2),
], ids=["verify", "rayleigh-stdin", "bad-table"])
def test_python_m_bentkit(tmp_path, argv, stdin, code):
    # `python -m bentkit` in a fresh interpreter: __main__ passes main's
    # exit code on, and a bad table is one error line, never a traceback
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "bentkit", *argv],
        input=stdin or "",
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert run.returncode == code, run.stderr
    if code:
        assert run.stdout == ""
        assert re.fullmatch(r"bentkit: error: [^\n]*\n", run.stderr)
    else:
        assert json.loads(run.stdout)["schema"] == 1
        assert run.stderr == ""

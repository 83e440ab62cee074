import io
import json
from pathlib import Path

import pytest

import bentkit.spectral
from bentkit.cli import main

GOLDEN = Path(__file__).parent / "golden"


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


# ----------------------------------------------------------------------
# spectral subcommands
# ----------------------------------------------------------------------

def test_wht_spectrum_payload(capsys):
    payload = run_json(capsys, "wht", "8", "--n", "2")
    assert payload == {"schema": 1, "n": 2, "spectrum": [2, 2, 2, -2]}


def test_wht_reads_stdin(capsys, monkeypatch):
    payload = run_json(capsys, "wht", stdin="8\n", monkeypatch=monkeypatch)
    assert payload["spectrum"] == [2, 2, 2, -2]


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


def test_bad_hex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "wht", "zz")
    assert code == 2


@pytest.mark.parametrize("text", ["0x6c", "6_c0", "+6ca", "6c a0"])
def test_non_hex_table_is_usage_error(capsys, text):
    code, out, err = run_cli(capsys, "wht", text)
    assert code == 2 and out == ""
    assert "non-hex character" in err


def test_trace_pairing_with_k_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "wht", "6ca0", "--pairing", "trace", "--k", "0")
    assert code == 2 and out == ""
    assert "trace pairing needs n = 2k" in err


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

    def counting_fwht(signs):
        calls.append(signs.size)
        return fwht(signs)

    monkeypatch.setattr(bentkit.spectral, "_fwht", counting_fwht)
    assert run_json(capsys, *argv) == {"schema": 1, **expected}
    assert len(calls) == 1

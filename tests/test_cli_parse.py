"""One parser per request: `cli.main` reads a request with its subcommand's
parser alone, and what it accepts, prints and exits with is what the full
`build_parser()` tree gives the same argv."""

import importlib
import io

import pytest

import bentkit.cli
from bentkit.cli import build_parser, main
from oracles import PERFBENCH

# valid argv for every subcommand, options in several spellings
VALID = [
    ["wht", "6ca0"],
    ["wht", "--pairing", "trace", "--k", "2", "--poly", "7", "6ca0"],
    ["bent", "--n", "4", "6ca0"],
    ["dual", "--format", "hex", "6ca0"],
    ["dual", "--", "6ca0"],
    ["dual", "6ca0", "--format=hex", "--out", "d.hex"],
    ["rayleigh", "--pairing", "trace"],
    ["dist", "6ca0", "6ca0"],
    ["construct", "ps-", "--k", "3", "--lines", "2,3,5,inf"],
    ["construct", "ps-general", "--n", "4", "--subspace", "1,2", "--subspace", "4,8"],
    ["census", "--k", "3", "--mode", "sample", "--samples", "30", "--seed", "4"],
    ["census", "--k", "2"],
    ["table", "--n", "6", "--format", "csv"],
    ["verify", "--suite", "all"],
    ["verify"],
]

# one request per subcommand that runs to exit code 0
RUNS = [
    ["wht", "6ca0"],
    ["bent", "6ca0"],
    ["dual", "6ca0"],
    ["rayleigh", "6ca0"],
    ["dist", "6ca0", "6ca0"],
    ["construct", "psap", "--k", "2", "--g", "6"],
    ["census", "--k", "2"],
    ["table", "--n", "6"],
    ["verify", "--suite", "all"],
]

# help and usage errors, all answered inside argparse
EXITS = [
    [],
    ["--help"],
    ["-h", "dual"],
    ["bogus"],
    ["census"],  # a missing required option
    ["census", "--k", "x"],  # a bad int
    ["dual", "--format", "xml", "6ca0"],  # a bad choice
    ["verify", "--zzz"],  # an unrecognized argument
    ["verify", "--", "x"],
    ["rayleigh", "--zzz", "--n", "x", "6ca0"],
    *([name, "--help"] for name in bentkit.cli._COMMANDS),
]


def _no_full_parser():
    raise AssertionError("full parser built for a request one subcommand takes")


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in VALID} == {argv[0] for argv in RUNS} == set(
        bentkit.cli._COMMANDS
    )


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_a_request_parses_to_the_full_parsers_namespace(monkeypatch, argv):
    full = vars(build_parser().parse_args(argv))
    monkeypatch.setattr(bentkit.cli, "build_parser", _no_full_parser)
    assert vars(bentkit.cli._parse_request(argv)) == full


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", EXITS, ids=lambda argv: " ".join(argv) or "no-args")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    full = _exit(capsys, build_parser().parse_args, argv)
    assert _exit(capsys, main, argv) == full
    assert full[0] == (0 if {"-h", "--help"} & set(argv) else 2)


def test_a_leftover_argument_is_reported_by_the_top_level_parser(capsys):
    code, out, err = _exit(capsys, main, ["verify", "--zzz"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: bentkit [-h]")
    assert err.endswith("\nbentkit: error: unrecognized arguments: --zzz\n")


def test_benchmark_jobs_and_valid_requests_never_build_the_full_parser(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    requests = [(argv, None) for argv in RUNS]
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        spec = workloads.make_inputs(name, 1, workloads.TOY, workdir)
        requests += [
            (job["argv"], job["stdin"] and (workdir / job["stdin"]).read_text())
            for job in spec["jobs"]
            if "argv" in job
        ]
    monkeypatch.setattr(bentkit.cli, "build_parser", _no_full_parser)
    for argv, stdin in requests:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (0, ""), argv


def test_sample_count_above_the_cap_is_one_usage_error(capsys):
    argv = ["census", "--k", "4", "--mode", "sample", "--samples", "100000000000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "bentkit: error: sample census is capped at 100000 samples, got 100000000000\n"
    )


@pytest.mark.parametrize("stdin", ["", "\n", " \t\n6ca0\n"])
def test_a_blank_stdin_line_is_a_missing_table(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["rayleigh"]) == 2
    assert capsys.readouterr().err == "bentkit: error: expected 1 hex truth table(s)\n"


def test_a_padded_stdin_line_is_read_as_its_table(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("  6ca0 \t\n"))
    assert main(["dual", "--format", "hex"]) == 0
    assert capsys.readouterr().out == "6ca0\n"

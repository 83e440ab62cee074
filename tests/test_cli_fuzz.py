"""Generated command lines: whatever argv a user types, the CLI answers with
exit code 0 or 2 and never with a traceback.

The subcommands, their options and the choices of each come from the
parser's own actions, so a new option needs a value strategy here before
the test runs.  Values are mutated (signs, "_", zero, huge ints, odd or
non-hex tables, a wrong --n, bad polynomials), and every size stays small:
tables have n <= 8, field degrees k <= 3 (so an exhaustive census is at
most k = 3) or out of range, and a sample census at most 100 draws.
"""

import argparse
import contextlib
import io
import sys
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from bentkit.cli import build_parser, main

HUGE = str(1 << 70)
# bent tables at n = 4 (two of them) and 6 (two), so the spectral commands succeed too
BENT = ["7ee8", "6ca0", "8117177e177e7ee8", "a6e236d8e85c1e00"]
# k <= 3 or out of range: an exhaustive census stays at k = 3
_K = st.sampled_from(["2", "3", "2", "3", "-1", "0", "1", "17", HUGE, "+2", "1_0", "x"])
_N = st.sampled_from(["4", "6", "8", "4", "6", "8", "-2", "0", "3", "24", "25", HUGE, "x"])


@st.composite
def _hex_table(draw):
    """A hex table of n <= 8 variables, valid or mutated."""
    n = draw(st.integers(2, 8))
    digits = max(1, (1 << n) // 4)
    text = draw(st.text("0123456789abcdef", min_size=digits, max_size=digits)
                | st.sampled_from(BENT))
    return draw(st.sampled_from([
        text,
        text[1:],
        text + "0",
        "0x" + text,
        "-" + text,
        text[:-1] + "_",
        text[:-1] + "g",
        " " + text + " ",
        "",
    ]))


def _tokens(pool):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(",".join)


# mostly points that parse, so a family reaches the rank and range checks
_POINTS = ["0", "1", "2", "3", "4", "8", "12", "16", "0101", str(1 << 63), HUGE] * 2 + [
    "-8", "_1", "1_0", "x", ""]
_LINES = ["0", "1", "2", "3", "4", "5", "6", "7", "inf", "Infinity", "-1", "99",
          "_2", HUGE, "x", ""]

# one value strategy per option destination (choices come from the parser)
VALUES = {
    "tt": st.lists(_hex_table(), max_size=2),
    "n": _N,
    "k": _K,
    "poly": st.sampled_from(["0x13", "13", "7", "b", "1053", "0x", "-13", "_13",
                             "zz", "1" + "0" * 30, ""]),
    "g": _hex_table() | st.sampled_from(["6", "1e"]),  # valid psap g at k = 2, 3
    "lines": _tokens(_LINES),
    "subspace": st.lists(_tokens(_POINTS), min_size=1, max_size=3),
    "samples": st.sampled_from(["7", "100", "-3", "0", "1", "100000000000", HUGE, "x"]),
    "seed": st.sampled_from(["-5", "0", "7", HUGE, "x"]),
}
SKIPPED = {"help", "out"}  # help text is tested elsewhere; --out writes files


def _commands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions if a.dest not in SKIPPED]
        for name, p in sub.choices.items()
    }


COMMANDS = _commands()


def _values(action):
    if action.choices is not None:  # a bad choice one time in four or more
        return st.sampled_from([*action.choices] * 3 + ["bogus"]).map(lambda v: [v])
    if action.dest in ("subspace", "tt"):  # already lists of values
        return VALUES[action.dest]
    return VALUES[action.dest].map(lambda v: [v])


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]:
        if draw(st.integers(0, 3)) == 0:  # each option is left out one time in four
            continue
        values = draw(_values(action))
        if not action.option_strings:
            argv += values
        else:
            # --opt=value, so a value with a leading "-" reaches bentkit
            argv += [f"{action.option_strings[-1]}={v}" for v in values]
    return argv


_FAMILY = ["construct", "ps-general", "--n=4"]


@settings(max_examples=200, deadline=None)
# every run: points beyond int64 reach the rank check; a negative one stops at parsing
@example(argv=[*_FAMILY, f"--subspace={HUGE},{HUGE}", "--subspace=2"], stdin="")
@example(argv=[*_FAMILY, f"--subspace={1 << 63},1", "--subspace=4,8"], stdin="")
@example(argv=[*_FAMILY, "--subspace=1,2", "--subspace=2,-8"], stdin="")
@given(
    argv=_argv(),
    stdin=st.sampled_from(["", "\n", "zz\n", "1e\n", *(f"{t}\n{t}\n" for t in BENT)]),
)
def test_generated_argv_exits_0_or_2_without_a_traceback(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_every_option_has_a_value_strategy():
    for actions in COMMANDS.values():
        for action in actions:
            assert action.choices is not None or action.dest in VALUES, action.dest

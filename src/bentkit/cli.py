"""Command-line front end.

Truth tables travel as lowercase hex strings (2^n/4 digits, index 0 in the
least significant nibble); everything else is JSON with a top-level
"schema": 1 field, or CSV where noted.  Exit codes: 0 success, 1 reserved
for failed mathematical checks, 2 for usage problems.

One parser per request: `main` builds only the named subcommand's parser
(from the `_COMMANDS` table that `build_parser` also reads) and hands the
request to the full nine-command parser only when that one cannot take it
whole, so help text, usage errors and exit codes are the full parser's.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .analysis import (
    EXHAUSTIVE_K_MAX,
    SAMPLE_K_MAX,
    _census_size_check,
    census,
    distribution_table,
    run_verification_suite,
)
from .boolfun import TruthTable
from .field import GF2k
from .spectral import (
    NotBentError,
    _duality_class,
    _is_flat,
    _nonlinearity,
    dual,
    hamming_dist,
    rayleigh,
    wht,
)
from .spreads import (
    LINE_INFINITY,
    SpreadLine,
    ps_general,
    ps_minus,
    ps_plus,
    selection,
    selection_from_g,
)

SCHEMA = 1


class UsageError(ValueError):
    pass


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")


def _int_token(tok: str, base: int, what: str) -> int:
    """int(tok, base) without the signs, "_" separators and non-ASCII
    digits that int() also takes."""
    if not tok.isascii() or set(tok) & set("+-_"):
        raise UsageError(
            f"bad {what} {tok!r}: write a non-negative integer without sign or '_'"
        )
    try:
        return int(tok, base)
    except ValueError as exc:
        raise UsageError(f"bad {what} {tok!r}") from exc


def _field_for(args: argparse.Namespace, k: int) -> GF2k:
    mask = _int_token(args.poly, 16, "polynomial mask") if args.poly else None
    return GF2k(k, mask)


def _read_tt(args: argparse.Namespace, count: int = 1) -> list[TruthTable]:
    """Positional hex tables, or that many lines from stdin."""
    texts = list(args.tt)
    while len(texts) < count:
        line = sys.stdin.readline()  # from_hex strips it
        if not line or line.isspace():
            raise UsageError(f"expected {count} hex truth table(s)")
        texts.append(line)
    return [TruthTable.from_hex(t, args.n) for t in texts[:count]]


def _pairing_for(args: argparse.Namespace, f: TruthTable):
    if args.pairing != "trace":
        return None
    k = f.n // 2 if args.k is None else args.k
    if f.n != 2 * k:
        raise UsageError(f"trace pairing needs n = 2k, got n={f.n}, k={k}")
    return _field_for(args, k)


def _parse_lines(text: str) -> list[SpreadLine]:
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok in ("inf", "infinity"):
            out.append(LINE_INFINITY)
        else:
            out.append(SpreadLine(_int_token(tok, 0, "line token")))
    return out


def _parse_point(tok: str, n: int) -> int:
    tok = tok.strip()
    if set(tok) <= {"0", "1"} and len(tok) == n:
        return int(tok, 2)
    return _int_token(tok, 0, "point")


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_wht(args) -> int:
    f = _read_tt(args)[0]
    spec = wht(f, _pairing_for(args, f))
    _emit_json(args, {"n": f.n, "spectrum": [int(v) for v in spec.values]})
    return 0


def _cmd_bent(args) -> int:
    f = _read_tt(args)[0]
    spec = wht(f)
    _emit_json(
        args,
        {"n": f.n, "bent": _is_flat(spec), "nonlinearity": _nonlinearity(spec)},
    )
    return 0


def _cmd_dual(args) -> int:
    f = _read_tt(args)[0]
    d = dual(f, _pairing_for(args, f))
    if args.format == "hex":
        _emit(args, d.to_hex() + "\n")
    else:
        _emit_json(args, {"n": f.n, "tt": d.to_hex()})
    return 0


def _rayleigh_fields(f: TruthTable, pairing) -> dict:
    """S, N and the cross-checked dist = (2^n - N) / 2 of a bent f."""
    s, n_f = rayleigh(f, pairing)
    return {"S": s, "N": n_f, "dist": ((1 << f.n) - n_f) // 2}


def _cmd_rayleigh(args) -> int:
    f = _read_tt(args)[0]
    _emit_json(args, {"n": f.n, **_rayleigh_fields(f, _pairing_for(args, f))})
    return 0


def _cmd_dist(args) -> int:
    f, g = _read_tt(args, count=2)
    _emit_json(args, {"n": f.n, "dist": hamming_dist(f, g)})
    return 0


def _metadata(f: TruthTable, pairing) -> dict:
    meta = {"n": f.n, "tt": f.to_hex(), "weight": f.weight()}
    try:
        fields = _rayleigh_fields(f, pairing)
    except NotBentError:
        return {**meta, "bent": False}
    duality = _duality_class(f.n, fields["dist"]).tag.value
    return {**meta, "bent": True, **fields, "duality": duality}


def _cmd_construct(args) -> int:
    if args.family == "ps-general":
        if not args.subspace:
            raise UsageError("give at least one --subspace")
        if args.n is None:
            raise UsageError("--n is required for ps-general")
        bases = [
            [_parse_point(tok, args.n) for tok in spec.split(",")]
            for spec in args.subspace
        ]
        payload = _metadata(ps_general(args.n, bases), None)
    else:
        if args.family == "psap" and (args.k is None or args.g is None):
            raise UsageError("construct psap needs --k and --g")
        if args.k is None:
            raise UsageError(f"construct {args.family} needs --k")
        ctx = _field_for(args, args.k)
        if args.family == "psap":
            sel = selection_from_g(ctx, TruthTable.from_hex(args.g, ctx.k))
        elif args.lines:
            sel = selection(ctx, _parse_lines(args.lines))
        else:
            raise UsageError("--lines is required for spread constructions")
        f = ps_plus(sel) if args.family == "ps+" else ps_minus(sel)
        payload = {**_metadata(f, ctx), "lines": [str(L) for L in sel.lines]}
    if args.format == "hex":
        _emit(args, payload["tt"] + "\n")
    else:
        _emit_json(args, payload)
    return 0


def _cmd_census(args) -> int:
    # Before GF2k(k), so a capped k with no default polynomial says "capped".
    _census_size_check(args.mode, args.k, args.samples)
    report = census(
        _field_for(args, args.k),
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
    )
    _emit_json(args, report.to_json_dict())
    return 1 if report.formula_mismatches else 0


def _cmd_table(args) -> int:
    row = distribution_table(args.n)
    if args.format == "csv":
        lines = ["n,N_f,dist"]
        lines += [f"{args.n},{nf},{d}" for nf, d in row.pairs()]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, row.to_json_dict())
    return 0


def _cmd_verify(args) -> int:
    checks = run_verification_suite()
    payload = {
        "suite": args.suite,
        "checks": [c.to_json_dict() for c in checks],
        "passed": all(c.ok for c in checks),
    }
    _emit_json(args, payload)
    return 0 if payload["passed"] else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_tt_options(
    p: argparse.ArgumentParser, count: int = 1, pairing: bool = False
) -> None:
    """The table options; `pairing` adds --pairing/--k/--poly for the
    commands whose answer depends on the inner product."""
    p.add_argument(
        "tt",
        nargs="*",
        help=f"hex truth table(s); {count} expected, stdin is read if omitted",
    )
    p.add_argument("--n", type=int, default=None, help="variable count")
    if pairing:
        p.add_argument(
            "--pairing",
            choices=("standard", "trace"),
            default="standard",
            help="inner product for spectra/duals (trace needs n = 2k)",
        )
        p.add_argument("--k", type=int, default=None, help="field degree for trace pairing")
        p.add_argument("--poly", default=None, help="field polynomial as a hex mask")
    p.add_argument("--out", default=None, help="write output to this path")


_paired_tt_args = partial(_add_tt_options, pairing=True)


def _dual_args(p: argparse.ArgumentParser) -> None:
    _paired_tt_args(p)
    p.add_argument("--format", choices=("json", "hex"), default="json")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=("psap", "ps-", "ps+", "ps-general"))
    p.add_argument("--k", type=int, default=None, help="field degree (n = 2k)")
    p.add_argument("--n", type=int, default=None, help="variable count (ps-general)")
    p.add_argument("--poly", default=None, help="field polynomial as a hex mask")
    p.add_argument("--g", default=None, help="hex table of g on k variables (psap)")
    p.add_argument(
        "--lines",
        default=None,
        help="comma-separated line elements, 'inf' for the infinity line",
    )
    p.add_argument(
        "--subspace",
        action="append",
        default=None,
        help="comma-separated basis points (bit strings or ints); repeatable",
    )
    p.add_argument("--format", choices=("json", "hex"), default="json")
    p.add_argument("--out", default=None)


def _census_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--poly", default=None)
    p.add_argument(
        "--mode",
        choices=("exhaustive", "sample"),
        default="exhaustive",
        help=f"exhaustive caps at k<={EXHAUSTIVE_K_MAX}, sample at k<={SAMPLE_K_MAX}",
    )
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=("all",), default="all")
    p.add_argument("--out", default=None)


# Each subcommand's help line, argument builder and handler, in the order
# the top-level help lists them.  build_parser() and main() both read it,
# so a subcommand's grammar is written once.
_COMMANDS = {
    "wht": ("full Walsh-Hadamard spectrum", _paired_tt_args, _cmd_wht),
    "bent": ("bentness and nonlinearity", _add_tt_options, _cmd_bent),
    "dual": ("dual of a bent function", _dual_args, _cmd_dual),
    "rayleigh": ("Rayleigh quotient S, N, and dist to dual", _paired_tt_args, _cmd_rayleigh),
    "dist": (
        "Hamming distance between two tables",
        partial(_add_tt_options, count=2),
        _cmd_dist,
    ),
    "construct": ("build a partial-spread function", _construct_args, _cmd_construct),
    "census": ("distance-class census over spread selections", _census_args, _cmd_census),
    "table": ("distribution of N and dist for one n", _table_args, _cmd_table),
    "verify": ("run the full identity/proposition battery", _verify_args, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bentkit",
        description="bent Boolean functions from partial spreads",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        add_args(s)
        s.set_defaults(handler=handler)
    return p


def _parse_request(argv: list[str]) -> argparse.Namespace:
    """The namespace build_parser() gives `argv`, read by the named
    subcommand's parser alone when it consumes every argument.  Anything
    else (no subcommand, top-level help, an unknown command, a leftover
    argument) goes to the full parser, whose usage line and message it gets."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is not None:
        _, add_args, handler = entry
        p = argparse.ArgumentParser(prog=f"bentkit {argv[0]}")
        add_args(p)
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.command, args.handler = argv[0], handler
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_request(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # UsageError and every library argument check
        print(f"bentkit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bentkit: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

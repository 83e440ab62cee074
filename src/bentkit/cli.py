"""Command-line front end.

Truth tables travel as lowercase hex strings (2^n/4 digits, index 0 in the
least significant nibble); everything else is JSON with a top-level
"schema": 1 field, or CSV where noted.  Exit codes: 0 success, 1 reserved
for failed mathematical checks, 2 for usage problems.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    _bent_quantities,
    _bent_spectrum,
    _duality_class,
    _is_flat,
    _nonlinearity,
    dual,
    hamming_dist,
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
    if getattr(args, "out", None):
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
    poly = getattr(args, "poly", None)
    mask = _int_token(poly, 16, "polynomial mask") if poly else None
    try:
        return GF2k(k, mask)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_tt(args: argparse.Namespace, count: int = 1) -> list[TruthTable]:
    """Positional hex tables, or that many lines from stdin."""
    texts = list(getattr(args, "tt", None) or [])
    while len(texts) < count:
        line = sys.stdin.readline()
        if not line.strip():
            raise UsageError(f"expected {count} hex truth table(s)")
        texts.append(line.strip())
    n = getattr(args, "n", None)
    try:
        return [TruthTable.from_hex(t, n) for t in texts[:count]]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _pairing_for(args: argparse.Namespace, f: TruthTable):
    if getattr(args, "pairing", "standard") != "trace":
        return None
    k = getattr(args, "k", None)
    if k is None:
        k = f.n // 2
    if f.n != 2 * k:
        raise UsageError(f"trace pairing needs n = 2k, got n={f.n}, k={k}")
    return _field_for(args, k)


def _parse_lines(text: str, ctx: GF2k) -> list[SpreadLine]:
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
    try:
        d = dual(f, _pairing_for(args, f))
    except NotBentError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "hex":
        _emit(args, d.to_hex() + "\n")
    else:
        _emit_json(args, {"n": f.n, "tt": d.to_hex()})
    return 0


def _cmd_rayleigh(args) -> int:
    f = _read_tt(args)[0]
    pairing = _pairing_for(args, f)
    try:
        s, n_f, d = _bent_quantities(f, _bent_spectrum(f, pairing))
    except NotBentError as exc:
        raise UsageError(str(exc)) from exc
    _emit_json(args, {"n": f.n, "S": s, "N": n_f, "dist": d})
    return 0


def _cmd_dist(args) -> int:
    f, g = _read_tt(args, count=2)
    try:
        d = hamming_dist(f, g)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit_json(args, {"n": f.n, "dist": d})
    return 0


def _metadata(f: TruthTable, pairing) -> dict:
    spec = wht(f, pairing)
    bent = _is_flat(spec)
    meta = {"n": f.n, "tt": f.to_hex(), "bent": bent, "weight": f.weight()}
    if bent:
        s, n_f, d = _bent_quantities(f, spec)
        meta.update(
            {
                "S": s,
                "N": n_f,
                "dist": d,
                "duality": _duality_class(f.n, d).tag.value,
            }
        )
    return meta


def _cmd_construct(args) -> int:
    if args.family == "psap":
        if args.k is None or args.g is None:
            raise UsageError("construct psap needs --k and --g")
        ctx = _field_for(args, args.k)
        g = _read_tt_arg(args.g, ctx.k)
        try:
            sel = selection_from_g(ctx, g)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        payload = _metadata(ps_minus(sel), ctx)
        payload["lines"] = [str(L) for L in sel.lines]
    elif args.family in ("ps-", "ps+"):
        if args.k is None:
            raise UsageError(f"construct {args.family} needs --k")
        ctx = _field_for(args, args.k)
        if not args.lines:
            raise UsageError("--lines is required for spread constructions")
        try:
            sel = selection(ctx, _parse_lines(args.lines, ctx))
            f = ps_minus(sel) if args.family == "ps-" else ps_plus(sel)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        payload = _metadata(f, ctx)
        payload["lines"] = [str(L) for L in sel.lines]
    else:  # ps-general
        if not args.subspace:
            raise UsageError("give at least one --subspace")
        if args.n is None:
            raise UsageError("--n is required for ps-general")
        bases = [
            [_parse_point(tok, args.n) for tok in spec.split(",")]
            for spec in args.subspace
        ]
        try:
            f = ps_general(args.n, bases)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        payload = _metadata(f, None)
    if args.format == "hex":
        _emit(args, payload["tt"] + "\n")
    else:
        _emit_json(args, payload)
    return 0


def _read_tt_arg(text: str, n: int) -> TruthTable:
    try:
        return TruthTable.from_hex(text, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_census(args) -> int:
    try:
        # Before GF2k(k), so a capped k with no default polynomial says "capped".
        _census_size_check(args.mode, args.k)
        report = census(
            _field_for(args, args.k),
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit_json(args, report.to_json_dict())
    return 1 if report.formula_mismatches else 0


def _cmd_table(args) -> int:
    try:
        row = distribution_table(args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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

def _add_tt_options(p: argparse.ArgumentParser, count: int = 1) -> None:
    p.add_argument(
        "tt",
        nargs="*",
        help=f"hex truth table(s); {count} expected, stdin is read if omitted",
    )
    p.add_argument("--n", type=int, default=None, help="variable count")
    p.add_argument(
        "--pairing",
        choices=("standard", "trace"),
        default="standard",
        help="inner product for spectra/duals (trace needs n = 2k)",
    )
    p.add_argument("--k", type=int, default=None, help="field degree for trace pairing")
    p.add_argument("--poly", default=None, help="field polynomial as a hex mask")
    p.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bentkit",
        description="bent Boolean functions from partial spreads",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("wht", help="full Walsh-Hadamard spectrum")
    _add_tt_options(s)
    s.set_defaults(handler=_cmd_wht)

    s = sub.add_parser("bent", help="bentness and nonlinearity")
    _add_tt_options(s)
    s.set_defaults(handler=_cmd_bent)

    s = sub.add_parser("dual", help="dual of a bent function")
    _add_tt_options(s)
    s.add_argument("--format", choices=("json", "hex"), default="json")
    s.set_defaults(handler=_cmd_dual)

    s = sub.add_parser("rayleigh", help="Rayleigh quotient S, N, and dist to dual")
    _add_tt_options(s)
    s.set_defaults(handler=_cmd_rayleigh)

    s = sub.add_parser("dist", help="Hamming distance between two tables")
    _add_tt_options(s, count=2)
    s.set_defaults(handler=_cmd_dist)

    s = sub.add_parser("construct", help="build a partial-spread function")
    s.add_argument("family", choices=("psap", "ps-", "ps+", "ps-general"))
    s.add_argument("--k", type=int, default=None, help="field degree (n = 2k)")
    s.add_argument("--n", type=int, default=None, help="variable count (ps-general)")
    s.add_argument("--poly", default=None, help="field polynomial as a hex mask")
    s.add_argument("--g", default=None, help="hex table of g on k variables (psap)")
    s.add_argument(
        "--lines",
        default=None,
        help="comma-separated line elements, 'inf' for the infinity line",
    )
    s.add_argument(
        "--subspace",
        action="append",
        default=None,
        help="comma-separated basis points (bit strings or ints); repeatable",
    )
    s.add_argument("--format", choices=("json", "hex"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(handler=_cmd_construct)

    s = sub.add_parser("census", help="distance-class census over spread selections")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--poly", default=None)
    s.add_argument(
        "--mode",
        choices=("exhaustive", "sample"),
        default="exhaustive",
        help=f"exhaustive caps at k<={EXHAUSTIVE_K_MAX}, sample at k<={SAMPLE_K_MAX}",
    )
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(handler=_cmd_census)

    s = sub.add_parser("table", help="distribution of N and dist for one n")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(handler=_cmd_table)

    s = sub.add_parser("verify", help="run the full identity/proposition battery")
    s.add_argument("--suite", choices=("all",), default="all")
    s.add_argument("--out", default=None)
    s.set_defaults(handler=_cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"bentkit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"bentkit: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

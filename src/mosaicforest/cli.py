"""Command-line front end.

Subcommands and the options each accepts (any other option is rejected):
  counts     level-count table (a_i, b_i, a_i+b_i)
             --p --q --levels --format --out
  constants  growth constants in exact radical form plus decimal views
             --p --q --precision --format --out
  probs      root-level probability distributions and their error report
             --p --q --levels --mode --format --out
  verify     the three-way cross-check (`verify.cross_check`) per symbol
             --symbols --levels --inject-corruption --cap --out
  export     forest / spanning-tree / mosaic-edge-list files
             --what --p --q --levels --cap --out

Exit codes: 0 success, 1 verification failure, 2 usage or precondition error.
p and q, from --p/--q or each --symbols entry, must be at most 10000.
The default vertex cap is 10**7 and can be overridden with the
MOSAICFOREST_CAP environment variable or --cap; either must be an integer
>= 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

from . import forest as forest_mod
from . import mosaic as mosaic_mod
from .errors import SizeLimitError, StructureError, UnsupportedSymbolError
from .mosaic import ValidationReport
from .probability import (
    DistributionKind,
    RootDistribution,
    asymptotic_distribution,
    distribution_error_report,
    exact_distribution,
)
from .quadratic import decimal
from .recurrence import (
    Geometry,
    SchlafliSymbol,
    first_level_reaching,
    forest_domain_reason,
    layer_counts,
    spectral_constants,
)
from .verify import cross_check

ENV_CAP = "MOSAICFOREST_CAP"
DEFAULT_VERIFY_SYMBOLS = "4:5,5:4,4:6,6:4,5:5,4:4"
# keeps the radicand c*c - 4, with c = (p-2)(q-2) - 2, below 10**16, which
# square_free_split factors in well under a second
MAX_PQ = 10_000
# Python refuses to convert an int of more digits than this to a string
# (sys.get_int_max_str_digits, which early 3.10 releases lack)
MAX_DIGITS = 4300
# {4,4} totals are 8i and never reach MAX_DIGITS digits, so its rows are
# capped by count instead
MAX_EUCLIDEAN_LEVELS = 100_000


def _symbol(p: int, q: int) -> SchlafliSymbol:
    if max(p, q) > MAX_PQ:
        raise UnsupportedSymbolError(f"p and q must be <= {MAX_PQ}, got {{{p},{q}}}")
    return SchlafliSymbol(p, q)


def _cap(text: str) -> int:
    """A vertex cap from --cap or MOSAICFOREST_CAP: an integer >= 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(
            f"vertex cap must be an integer >= 1, got {text!r} (from --cap or {ENV_CAP})"
        )
    return cap


def _parse_symbols(text: str) -> tuple[SchlafliSymbol, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            p, q = chunk.split(":")
            out.append(_symbol(int(p), int(q)))
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(
                f"bad symbol {chunk!r}: expected p:q with integers in 3..{MAX_PQ} ({exc})"
            ) from None
    if not out:
        raise argparse.ArgumentTypeError("empty symbol list")
    return tuple(out)


def _levels(args: argparse.Namespace, least: int = 0) -> int:
    if args.levels < least:
        raise UnsupportedSymbolError(f"levels must be >= {least}, got {args.levels}")
    return args.levels


def _require_printable(symbol: SchlafliSymbol, level: int) -> None:
    """Refuse a level whose total, which bounds every count printed for it, is too long.

    It runs before any rows are built.  Totals grow with the level, so the
    walk up the recursion stops at the first level that is too long.
    """
    if symbol.geometry is Geometry.EUCLIDEAN and level > MAX_EUCLIDEAN_LEVELS:
        raise UnsupportedSymbolError(
            f"levels must be <= {MAX_EUCLIDEAN_LEVELS} for {symbol}, got {level}"
        )
    if first_level_reaching(symbol, 10**MAX_DIGITS, level) is not None:
        raise UnsupportedSymbolError(
            f"level {level} of {symbol} has counts of more than {MAX_DIGITS} digits; "
            "lower --levels"
        )


def _table(out: io.StringIO, fmt: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a markdown table (header, dash separator, rows) or a CSV block."""
    if fmt == "markdown":
        print("| " + " | ".join(header) + " |", file=out)
        print("|" + "|".join("-" * (len(label) + 2) for label in header) + "|", file=out)
        for row in rows:
            print("| " + " | ".join(map(str, row)) + " |", file=out)
    else:
        print(",".join(header), file=out)
        for row in rows:
            print(",".join(map(str, row)), file=out)


def _jsonl(out: io.StringIO, records: Iterable[dict]) -> None:
    for rec in records:
        print(json.dumps(rec, sort_keys=True), file=out)


def _emit_counts(args: argparse.Namespace, out: io.StringIO) -> None:
    symbol = _symbol(args.p, args.q)
    level = _levels(args)
    _require_printable(symbol, level)
    rows = [(r.level, r.a, r.b, r.total) for r in layer_counts(symbol, level)]
    if args.fmt == "jsonl":
        _jsonl(
            out,
            ({"level": i, "a": str(a), "b": str(b), "total": str(t)} for i, a, b, t in rows),
        )
    elif args.fmt == "markdown":
        _table(out, args.fmt, ("i", "a_i", "b_i", "a_i+b_i"), rows)
    else:
        _table(out, args.fmt, ("level", "a", "b", "total"), rows)


def _emit_constants(args: argparse.Namespace, out: io.StringIO) -> None:
    symbol = _symbol(args.p, args.q)
    if args.precision < 1:
        raise UnsupportedSymbolError(f"precision must be >= 1, got {args.precision}")
    if args.precision > MAX_DIGITS:
        raise UnsupportedSymbolError(f"precision must be <= {MAX_DIGITS}, got {args.precision}")
    constants = spectral_constants(symbol)
    short, full = constants.decimals(6), constants.decimals(args.precision)
    named = constants.named()
    rows = [(name, str(value), short[name], full[name]) for name, value in named.items()]
    if args.fmt == "jsonl":
        _jsonl(out, ({"name": n, "exact": e, "decimal": d} for n, e, _, d in rows))
    elif args.fmt == "markdown":
        title = f"constants for {symbol} (trace {constants.trace}, radicand {constants.radicand})"
        print(title, file=out)
        _table(out, args.fmt, ("name", "exact", "6 decimals", "full precision"), rows)
    else:
        quoted = [(n, f'"{e}"', d) for n, e, _, d in rows]
        _table(out, args.fmt, ("name", "exact", "decimal"), quoted)


def _prob_rows(d: RootDistribution, js: range) -> Iterator[tuple]:
    """(kind, j, mass, numerator, denominator, count); the limiting law has the last three empty."""
    masses = d.decimals(6)
    exact = d.kind is DistributionKind.EXACT
    for j in js:
        m = d.point_mass(j)
        tail = (str(m.numerator), str(m.denominator), str(d.weights[j])) if exact else ("",) * 3
        yield (d.kind.value, j, masses[j], *tail)


def _emit_probs(args: argparse.Namespace, out: io.StringIO) -> None:
    symbol = _symbol(args.p, args.q)
    level = _levels(args, least=1)
    _require_printable(symbol, level)
    dists = []
    if args.mode in ("asymptotic", "both"):
        dists.append(asymptotic_distribution(spectral_constants(symbol), level))
    if args.mode in ("exact", "both"):
        dists.append(exact_distribution(symbol, level))
    js = range(level, -1, -1)
    if args.fmt == "markdown":
        for d in dists:
            print(f"{d.kind.value} root-level distribution for {symbol}, level {level}", file=out)
            masses = d.decimals(6)
            rows = [(j, masses[j], decimal(d.cumulative_below(j), 6)) for j in js]
            _table(out, args.fmt, ("j", "mass", "cumulative_below"), rows)
    else:
        rows = [row for d in dists for row in _prob_rows(d, js)]
        if args.fmt == "csv":
            header = ("kind", "j", "mass", "numerator", "denominator", "count")
            _table(out, args.fmt, header, rows)
        else:
            records = []
            for kind, j, mass, num, den, count in rows:
                rec: dict = {"kind": kind, "j": j, "mass": mass}
                if kind == DistributionKind.EXACT.value:
                    rec.update(exact={"numerator": num, "denominator": den}, count=count)
                records.append(rec)
            _jsonl(out, records)
    if args.mode == "both":
        report = distribution_error_report(dists[0], dists[1])
        rows = [(r.root_level, r.difference.decimal(12), r.order) for r in reversed(report.rows)]
        if args.fmt == "jsonl":
            _jsonl(out, ({"j": j, "abs_error": e, "order": o} for j, e, o in rows))
        elif args.fmt == "markdown":
            print(file=out)
            orders = [(j, e, "0" if o is None else f"1e{o}") for j, e, o in rows]
            _table(out, args.fmt, ("j", "abs error", "order"), orders)
        else:
            _table(out, args.fmt, ("error_j", "abs_error", "order"), rows)


def _check_symbol(
    symbol: SchlafliSymbol, levels: int, cap: int, inject_corruption: bool
) -> ValidationReport:
    """Build, grow, optionally corrupt and cross-check one symbol.

    Only the report is returned, so the mosaic and forest are freed before
    the caller builds the next symbol.
    """
    m = mosaic_mod.build(symbol, levels, cap=cap)
    f = forest_mod.grow(m)
    if inject_corruption:
        victim = m.layers[levels][0]
        f.root_level[victim] = (f.root_level[victim] + 1) % (levels + 1)
    return cross_check(f)


def _emit_verify(args: argparse.Namespace, out: io.StringIO) -> int:
    levels = _levels(args, least=1)
    all_ok = True
    for symbol in args.symbols:
        reason = forest_domain_reason(symbol)
        if reason is not None:
            print(f"FAIL {symbol}: {reason}", file=out)
            all_ok = False
            continue
        try:
            report = _check_symbol(symbol, levels, args.cap, args.inject_corruption)
        except (StructureError, SizeLimitError) as exc:
            print(f"FAIL {symbol}: {exc}", file=out)
            all_ok = False
            continue
        all_ok &= report.passed
        for c in report.checks:
            print(f"{'ok  ' if c.passed else 'FAIL'} {symbol} {c.name}: {c.detail}", file=out)
    print("verification " + ("PASSED" if all_ok else "FAILED"), file=out)
    return 0 if all_ok else 1


def _emit_export(args: argparse.Namespace, out: io.StringIO) -> None:
    s = _symbol(args.p, args.q)
    levels = _levels(args, least=1)
    m = mosaic_mod.build(s, levels, cap=args.cap)
    if args.what == "mosaic-edges":
        out.write(m.edge_list_text())
        return
    f = forest_mod.grow(m, allow_triangles=(s.p == 3))
    out.write(f.to_dot() if args.what == "forest" else f.spanning_tree_text())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosaicforest",
        description="Layered tree forests on regular {p,q} tilings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, emit, summary, pq=True, levels=True, precision=False, fmt=True, cap=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(emit=emit)
        if pq:
            sp.add_argument("--p", type=int, required=True, help=f"gon size, 3..{MAX_PQ}")
            sp.add_argument("--q", type=int, required=True, help=f"vertex degree, 3..{MAX_PQ}")
        if levels:
            sp.add_argument("--levels", type=int, default=6, help="levels/belts to use")
        if precision:
            sp.add_argument("--precision", type=int, default=30, help="decimal digits")
        if fmt:
            sp.add_argument(
                "--format",
                dest="fmt",
                choices=("markdown", "csv", "jsonl"),
                default="markdown",
            )
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        if cap:
            # a string default goes through type=_cap like a command-line value
            sp.add_argument(
                "--cap",
                type=_cap,
                default=os.environ.get(ENV_CAP) or str(mosaic_mod.DEFAULT_VERTEX_CAP),
                help=f"vertex cap (default: ${ENV_CAP} or {mosaic_mod.DEFAULT_VERTEX_CAP})",
            )
        return sp

    command("counts", _emit_counts, "level-count table")
    command("constants", _emit_constants, "growth constants", levels=False, precision=True)
    sp = command("probs", _emit_probs, "root-level distributions")
    sp.add_argument(
        "--mode", choices=("asymptotic", "exact", "both"), default="asymptotic"
    )

    sp = command(
        "verify", _emit_verify, "three-way cross-validation", pq=False, fmt=False, cap=True
    )
    sp.add_argument(
        "--symbols",
        type=_parse_symbols,
        default=_parse_symbols(DEFAULT_VERIFY_SYMBOLS),
        help="comma-separated p:q pairs",
    )
    sp.add_argument(
        "--inject-corruption",
        action="store_true",
        help="deliberately corrupt one grown forest (negative control)",
    )

    sp = command("export", _emit_export, "graph exports", fmt=False, cap=True)
    sp.add_argument(
        "--what", choices=("forest", "spanning", "mosaic-edges"), required=True
    )
    return parser


def _deliver(text: str, path: str) -> None:
    """Write `text` to stdout for '-', else to a temporary file beside `path` renamed over it."""
    if path == "-":
        sys.stdout.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        code = args.emit(args, out)
        _deliver(out.getvalue(), args.out)
    except (ValueError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return code or 0


if __name__ == "__main__":
    sys.exit(main())

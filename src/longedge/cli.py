"""Command line front end.

Subcommands: template tables, universal coefficient tables, node counts for
a polygon given as JSON, self-contained verification suites, and power
series printing.  The front end only renders: each table and report is
built in the library (coeffs.template_rows, CoeffTable, severi.report), and
every JSON output goes through one rule that prints a Fraction as its string.
The template table is printed one row at a time, as its rows are built.

Exit codes: 0 on success, 1 when a verification or cross-check fails, a
suite runs no checks or the reader closes stdout before the output ends
(`longedge templates --delta 7 | head -1`), 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .coeffs import (
    TEMPLATE_COLUMNS,
    CoeffTable,
    a_series,
    template_coefficients,
    template_rows,
    use_disk_cache,
)
from .graphs import check_cogenus
from .polygon import polygon_from_dict
from .series import b1_b2, d2g2, dg2, disc, g2, partition_series
from .severi import METHODS, report


def _exact(value: object) -> str:
    """A Fraction prints as its string; any other value JSON cannot hold
    is an error, as it is without this rule."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One encoder for every JSON output: json.dumps with these arguments would
# build a new one per call, and `templates` encodes each row on its own.
_json = json.JSONEncoder(indent=2, default=_exact).encode


def _json_list(rows: Iterable[dict]) -> Iterator[str]:
    """_json of the list of rows, one piece per row: each row's own _json
    text indented one level inside the list's brackets.  A JSON string
    holds no raw newline, so each newline in that text starts a line."""
    at = -1
    for at, row in enumerate(rows):
        yield ("[\n  " if at == 0 else ",\n  ") + _json(row).replace("\n", "\n  ")
    yield "[]" if at < 0 else "\n]"


def _tsv(rows: Iterable[dict], columns: Sequence[str]) -> Iterator[str]:
    """The header line, then one line per row, each line but the first
    starting with its newline."""

    def cell(value: object) -> str:
        if isinstance(value, (list, tuple)):
            return ",".join(str(v) for v in value)
        return str(value)

    yield "\t".join(columns)
    for row in rows:
        yield "\n" + "\t".join(cell(row[c]) for c in columns)


def _emit(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces, then a newline, to the file out or to stdout, one
    piece at a time."""
    if not out:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        return
    try:
        with open(out, "w") as f:
            f.writelines(pieces)
            f.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _emit_table(
    rows: Iterable[dict], columns: Sequence[str], args: argparse.Namespace
) -> None:
    pieces = _json_list(rows) if args.format == "json" else _tsv(rows, columns)
    _emit(pieces, args.out)


def cmd_templates(args: argparse.Namespace) -> int:
    if args.delta < 0:
        raise ValueError("delta must be nonnegative")
    # the table is fitted or loaded here, before --out is opened; its rows
    # are built as they print
    _emit_table(template_rows(args.delta), TEMPLATE_COLUMNS, args)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    if args.delta < 0:
        raise ValueError("delta must be nonnegative")
    check_cogenus(args.delta)
    rows = [template_coefficients(d)._asdict() for d in range(1, args.delta + 1)]
    _emit_table(rows, CoeffTable._fields, args)
    return 0


def cmd_severi(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.polygon).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read polygon file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"polygon file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("polygon file is nested too deeply to read") from None
    p = polygon_from_dict(data)
    methods = METHODS if args.method == "all" else (args.method,)
    rep = report(p, args.delta, methods)
    _emit((_json(rep._asdict()),), args.out)
    return 0 if rep.agree else 1


# the largest --order: the slowest builder, g, takes about 1.7 s there and
# grows faster than cubically beyond it (4.5 s at 120, 8 s at 150)
MAX_SERIES_ORDER = 100

SERIES_BUILDERS: dict[str, Callable[[int], object]] = {
    "g": lambda order: dg2(order).revert(),
    "a": a_series,
    "g2": g2,
    "dg2": dg2,
    "d2g2": d2g2,
    "disc": disc,
    "partition": partition_series,
    "b1": lambda order: b1_b2(order)[0],
    "b2": lambda order: b1_b2(order)[1],
}


def cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValueError("order must be nonnegative")
    if args.order > MAX_SERIES_ORDER:
        raise ValueError(
            f"order {args.order} is too deep: at most {MAX_SERIES_ORDER} is supported"
        )
    series = SERIES_BUILDERS[args.name](args.order)
    _emit((", ".join(str(c) for c in series.coeffs),), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # the suites, and the frozen tables they check, load only for verify
    from .suites import SUITES

    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {tuple(SUITES)}")
    suite = SUITES[args.suite]
    if args.order is None:
        checks = suite.run()
    elif suite.takes_depth:
        checks = suite.run(args.order)
    else:
        raise ValueError(f"the {args.suite} suite has a fixed depth; drop --order")
    failures = 0
    for label, ok in checks:
        print(f"{'pass' if ok else 'FAIL'}  {args.suite}: {label}")
        failures += not ok
    print(f"{args.suite}: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures or not checks else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longedge",
        description="Exact node counts and node polynomials of toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("templates", help="list the template table for one cogenus")
    t.add_argument("--delta", type=int, required=True, help="cogenus")
    t.add_argument("--format", choices=("json", "tsv"), default="json")
    t.add_argument("--out", help="write output to this file instead of stdout")
    t.add_argument("--no-cache", action="store_true", help="skip the disk cache")
    t.set_defaults(func=cmd_templates)

    c = sub.add_parser("coeffs", help="universal coefficient tables up to a cogenus")
    c.add_argument("--delta", type=int, required=True, help="largest cogenus")
    c.add_argument("--format", choices=("json", "tsv"), default="json")
    c.add_argument("--out")
    c.add_argument("--no-cache", action="store_true")
    c.set_defaults(func=cmd_coeffs)

    s = sub.add_parser("severi", help="node counts for a polygon given as JSON")
    s.add_argument("--polygon", required=True, help="path to a polygon JSON file")
    s.add_argument("--delta", type=int, required=True, help="largest node count")
    s.add_argument(
        "--method",
        choices=METHODS + ("all",),
        default="all",
        help="which of the independent computations to run",
    )
    s.add_argument("--out")
    s.set_defaults(func=cmd_severi)

    v = sub.add_parser("verify", help="run a named verification suite")
    # no argparse choices: listing them would load the suites in every process
    v.add_argument("suite", help="the suite's name; an unknown name lists them")
    v.add_argument("--order", type=int, help="depth for suites that take one")
    v.set_defaults(func=cmd_verify)

    se = sub.add_parser("series", help="print coefficients of a named power series")
    se.add_argument("name", choices=sorted(SERIES_BUILDERS))
    se.add_argument("--order", type=int, required=True, help="largest exponent")
    se.add_argument("--out")
    se.set_defaults(func=cmd_series)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    use_disk_cache(not getattr(args, "no_cache", False))
    try:
        code = args.func(args)
        # a reader that closed stdout early shows here, not at shutdown
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # as the signal module's documentation does for `| head`: what is
        # left to write, and the flush at exit, go to devnull instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

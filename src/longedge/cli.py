"""Command line front end.

Subcommands: template tables, universal coefficient tables, node counts for
a polygon given as JSON, self-contained verification suites, and power
series printing.

Exit codes: 0 on success, 1 when a verification or cross-check fails or a
suite runs no checks, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from .coeffs import (
    _edge_rows,
    a_series,
    template_coefficients,
    template_data,
    use_disk_cache,
)
from .graphs import check_cogenus
from .polygon import polygon_from_dict
from .series import b1_b2, d2g2, dg2, disc, g2, partition_series
from .severi import METHODS, report
from .suites import SUITES


def _template_rows(delta: int) -> list[dict]:
    rows = []
    for g, form in template_data(delta):
        rows.append(
            {
                "edges": _edge_rows(g),
                "delta": g.cogenus,
                "ell": g.length,
                "mu": g.multiplicity,
                "eps0": g.epsilon0,
                "eps1": g.epsilon1,
                "lam": [g.lambda_(j) for j in range(1, g.length + 1)],
                "olam": [g.olambda(j) for j in range(1, g.length + 1)],
                "zeta0": str(form.zeta0),
                "zeta1": str(form.zeta1),
                "zeta2": str(form.zeta2),
                "eta0": str(form.eta0),
            }
        )
    return rows


def _tsv(rows: Sequence[dict], columns: Sequence[str]) -> str:
    def cell(value: object) -> str:
        if isinstance(value, (list, tuple)):
            return ",".join(str(v) for v in value)
        return str(value)

    lines = ["\t".join(columns)]
    lines.extend("\t".join(cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        print(text)


TEMPLATE_COLUMNS = (
    "delta",
    "ell",
    "mu",
    "eps0",
    "eps1",
    "lam",
    "olam",
    "zeta0",
    "zeta1",
    "zeta2",
    "eta0",
)

COEFF_COLUMNS = ("delta", "A", "L", "H", "D", "C", "Ctilde", "b")


def cmd_templates(args: argparse.Namespace) -> int:
    if args.delta < 0:
        raise ValueError("delta must be nonnegative")
    rows = [] if args.delta == 0 else _template_rows(args.delta)
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        text = _tsv(rows, ("edges",) + TEMPLATE_COLUMNS)
    _emit(text, args.out)
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    if args.delta < 0:
        raise ValueError("delta must be nonnegative")
    check_cogenus(args.delta)
    rows = [template_coefficients(d).as_dict() for d in range(1, args.delta + 1)]
    if args.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        text = _tsv(rows, COEFF_COLUMNS)
    _emit(text, args.out)
    return 0


def cmd_severi(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.polygon).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read polygon file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"polygon file is not valid JSON: {exc}") from exc
    p = polygon_from_dict(data)
    methods = METHODS if args.method == "all" else (args.method,)
    rep = report(p, args.delta, methods)
    _emit(json.dumps(rep.to_dict(), indent=2), args.out)
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
    _emit(", ".join(str(c) for c in series.coeffs), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
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
    v.add_argument("suite", choices=tuple(SUITES))
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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end.

Subcommands: template tables, universal coefficient tables, node counts for
a polygon given as JSON, self-contained verification suites, and power
series printing.

Exit codes: 0 on success, 1 when a verification or cross-check fails, 2 on
bad input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .coeffs import (
    a_series,
    cor_doubleprime,
    template_coefficients,
    template_data,
    use_disk_cache,
)
from .polygon import HTPolygon, polygon_from_dict, polygon_stats, toric_invariants
from .reference import COEFF_ROWS, TABLE1
from .series import (
    b1_b2,
    d2g2,
    dg2,
    disc,
    g2,
    gyz_check,
    partition_series,
)
from .severi import METHODS, n_bruteforce, n_from_q, q_geometric, q_polygon, report

def _template_rows(delta: int) -> list[dict]:
    rows = []
    for g, form in template_data(delta):
        rows.append(
            {
                "edges": [[e.lo, e.hi, e.weight] for e in g.edges],
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
                "eta0": str(form.eta[0]),
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
        Path(out).write_text(text + "\n")
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
    series = SERIES_BUILDERS[args.name](args.order)
    _emit(", ".join(str(c) for c in series.coeffs), args.out)
    return 0


# --- verification suites ---

Check = tuple[str, bool]


def _verify_table1() -> list[Check]:
    """Template tables for cogenus 1 and 2 against the hand-entered rows."""
    checks: list[Check] = []
    computed: dict[tuple, dict] = {}
    for delta in (1, 2):
        rows = _template_rows(delta)
        expected = sum(1 for ref in TABLE1 if ref["delta"] == delta)
        checks.append((f"delta={delta}: {expected} templates", len(rows) == expected))
        for row in rows:
            key = tuple(sorted(tuple(e) for e in row["edges"]))
            computed[key] = row
    for ref in TABLE1:
        key = tuple(sorted(ref["edges"]))
        row = computed.get(key)
        name = f"template {list(key)}"
        if row is None:
            checks.append((name + ": present", False))
            continue
        ok = (
            row["delta"] == ref["delta"]
            and row["ell"] == ref["ell"]
            and row["mu"] == ref["mu"]
            and row["eps0"] == ref["eps0"]
            and row["eps1"] == ref["eps1"]
            and row["lam"] == list(ref["lam"])
            and row["olam"] == list(ref["olam"])
            and [Fraction(row[f"zeta{i}"]) for i in range(3)]
            == [Fraction(ref[f"zeta{i}"]) for i in range(3)]
            and Fraction(row["eta0"]) == Fraction(str(ref["eta"][0]))
        )
        checks.append((name, ok))
    return checks


def _verify_coeffs(order: int | None) -> list[Check]:
    """Coefficient tables against the frozen rows, plus the internal
    consistency facts that hold at every cogenus: H vanishes and the two
    independent routes to L agree (the latter is enforced in the library,
    so simply building the table exercises it)."""
    top = order if order is not None else 3
    if top < 1:
        raise ValueError("order must be at least 1")
    checks: list[Check] = []
    for delta in range(1, top + 1):
        table = template_coefficients(delta).as_dict()
        if delta in COEFF_ROWS:
            checks.append((f"delta={delta}: frozen row", table == COEFF_ROWS[delta]))
        checks.append((f"delta={delta}: H = 0", Fraction(table["H"]) == 0))
    return checks


GYZ_SAMPLES: tuple[tuple, ...] = (
    (1, 0, 0, 0, 0, ()),
    (0, 1, 0, 0, 0, ()),
    (0, 0, 1, 0, 0, ()),
    (0, 0, 0, 1, 0, ()),
    (Fraction(1, 2), Fraction(-1, 3), 2, -1, 1, (Fraction(2, 3),)),
    (3, -2, Fraction(5, 6), 4, Fraction(-1, 2), (1, Fraction(1, 4))),
)


def _verify_gyz(order: int | None) -> list[Check]:
    top = order if order is not None else 3
    if top < 1:
        raise ValueError("order must be at least 1")
    checks = []
    for sample in GYZ_SAMPLES:
        x, y, z, w, s, s_higher = sample
        label = f"order {top} at (x,y,z,w,s,...) = {sample}"
        checks.append((label, gyz_check(top, x, y, z, w, s, s_higher)))
    return checks


def _oracle_corpus() -> list[tuple[str, HTPolygon, int]]:
    tri = lambda d: HTPolygon(0, (0,) * d, (1,) * d)
    rect = lambda a, b: HTPolygon(0, (0,) * b, (a,) * b)
    return [
        ("triangle side 3", tri(3), 2),
        ("triangle side 4", tri(4), 2),
        ("rectangle 2x2", rect(2, 2), 1),
        ("rectangle 3x3", rect(3, 3), 2),
        ("trapezoid", HTPolygon(2, (0, 0, 0, 0), (2, 2, 0, 0)), 2),
        ("slanted", HTPolygon(0, (-1, -1, 0, 0), (2, 2, 0, 0)), 2),
    ]


def _oracle_one(name: str, p: HTPolygon, top: int) -> list[Check]:
    qs = [q_polygon(p, d) for d in range(1, top + 1)]
    direct = [n_bruteforce(p, d) for d in range(0, top + 1)]
    from_closed = n_from_q(qs)
    checks = [
        (
            f"{name}: direct count matches closed form through delta={top}",
            direct == [Fraction(1)] + from_closed,
        )
    ]
    geo = [q_geometric(p, d) for d in range(1, top + 1)]
    checks.append((f"{name}: geometric form matches closed form", geo == qs))
    return checks


def _verify_oracle() -> list[Check]:
    return [check for item in _oracle_corpus() for check in _oracle_one(*item)]


def _random_polygon(rng: random.Random) -> HTPolygon:
    while True:
        m = rng.randint(1, 5)
        dt = rng.randint(0, 3)
        left = sorted(rng.randint(-3, 3) for _ in range(m))
        right = sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)
        try:
            p = HTPolygon(dt, tuple(left), tuple(right))
        except ValueError:
            continue
        return p


def _toric_one(index: int, p: HTPolygon) -> list[Check]:
    t = toric_invariants(p)
    stats = polygon_stats(p)
    expected = (
        Fraction(12)
        - t.Ksq
        + cor_doubleprime(stats.tdet)
        + cor_doubleprime(stats.bdet)
    )
    checks = [(f"polygon {index}: corner determinants sum to 12 - K^2 + corrections",
               Fraction(stats.det) == expected)]
    shifted = t.c2 + sum(i * n for i, n in t.S_i.items())
    checks.append((f"polygon {index}: blown-up Euler number", t.c2tilde == shifted))
    return checks


def _verify_toric() -> list[Check]:
    rng = random.Random(20260814)
    polys = [_random_polygon(rng) for _ in range(50)]
    return [check for i, p in enumerate(polys) for check in _toric_one(i, p)]


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "table1":
        checks = _verify_table1()
    elif args.suite == "coeffs":
        checks = _verify_coeffs(args.order)
    elif args.suite == "gyz":
        checks = _verify_gyz(args.order)
    elif args.suite == "oracle":
        checks = _verify_oracle()
    elif args.suite == "toric":
        checks = _verify_toric()
    else:  # pragma: no cover - argparse rejects unknown suites first
        raise ValueError(f"unknown suite: {args.suite}")
    failures = 0
    for label, ok in checks:
        print(f"{'pass' if ok else 'FAIL'}  {args.suite}: {label}")
        failures += not ok
    print(f"{args.suite}: {len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


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
    v.add_argument("suite", choices=("table1", "coeffs", "gyz", "oracle", "toric"))
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

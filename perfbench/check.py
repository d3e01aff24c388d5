"""Output checks, run in their own process after a run's operations.

    python3 perfbench/check.py WORKLOAD INPUT VERDICT

INPUT is the JSON that run.py wrote: the corpus (if any) and each
operation's exit code and output.  VERDICT receives
{"failed": [operation indices], "problems": [messages]}.

The checks use identities that do not go through the timed code path:
power-series identities from the series module, the hand-entered rows in
reference.py, the closed product formula (GYZ), the plane-curve node
polynomials of Kleiman and Piene, and, for the direct route, the closed
route.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache

# (x, y, z, w, s, s_2..s_5): every variable nonzero, so the closed product
# formula at order 5 involves every column of the coefficient tables
GYZ_SAMPLE = (
    Fraction(1, 2), Fraction(-1, 3), 2, -1, 1,
    (Fraction(2, 3), Fraction(1, 4), Fraction(-1, 5), Fraction(3, 7)),
)


def plane_node_counts(d: int) -> list[Fraction]:
    """N^1..N^3 of plane curves of degree d >= 3 (Kleiman-Piene)."""
    d = Fraction(d)
    return [
        3 * (d - 1) ** 2,
        Fraction(3, 2) * (d - 1) * (d - 2) * (3 * d**2 - 3 * d - 11),
        Fraction(9, 2) * d**6 - 27 * d**5 + Fraction(9, 2) * d**4
        + Fraction(423, 2) * d**3 - 229 * d**2 - Fraction(829, 2) * d + 525,
    ]


def _node_problems(item: dict, n: list[Fraction], delta: int) -> list[str]:
    out = []
    if len(n) != delta + 1:
        out.append(f"{len(n)} counts, expected {delta + 1}")
    elif n[0] != 1:
        out.append(f"N^0 = {n[0]}, expected 1")
    elif item["kind"] == "triangle" and n[1:4] != plane_node_counts(item["d"]):
        out.append(f"N^1..N^3 = {n[1:4]} differ from the plane node polynomials")
    return out


def table_problems(rows: list[dict], delta: int) -> list[str]:
    """A, b, H, the frozen rows and the closed product formula."""
    from longedge import coeffs, severi
    from longedge.coeffs import CoeffTable
    from longedge.reference import COEFF_ROWS
    from longedge.series import RatSeries, dg2, gyz_check, partition_series

    if [r.get("delta") for r in rows] != list(range(1, delta + 1)):
        return [f"rows are not cogenus 1..{delta}"]
    out = []
    g = dg2(delta + 1).revert()  # t + O(t^2), to order delta + 1
    log_g_over_t = RatSeries(g.coeffs[1:]).log()
    log_p = partition_series(delta).log()
    g = g.truncate(delta)
    for row in rows:
        d = row["delta"]
        if Fraction(row["A"]) != -log_g_over_t[d] / 2:
            out.append(f"A({d}) = {row['A']} breaks A = -1/2 [t^d] log(revert(DG2)/t)")
        if Fraction(row["H"]) != 0:
            out.append(f"H({d}) = {row['H']}, expected 0")
        if len(row["b"]) != d:
            out.append(f"b({d}, .) has {len(row['b'])} entries")
            continue
        g_i = RatSeries.one(delta)
        for i, b in enumerate(row["b"], start=1):
            g_i = g_i * g
            if Fraction(b) != log_p.compose(g_i)[d]:
                out.append(f"b({d}, {i}) = {b} breaks b = [t^d] log P(g^{i})")
        if d in COEFF_ROWS and row != COEFF_ROWS[d]:
            out.append(f"row {d} differs from the hand-entered COEFF_ROWS")
    if out:
        return out

    tables = {
        r["delta"]: CoeffTable(
            delta=r["delta"],
            **{k: Fraction(r[k]) for k in ("A", "L", "H", "D", "C", "Ctilde")},
            b=tuple(Fraction(v) for v in r["b"]),
        )
        for r in rows
    }
    # the product formula reads the tables under test, not refitted ones
    coeffs.template_coefficients = severi.template_coefficients = tables.__getitem__
    if not gyz_check(delta, *GYZ_SAMPLE):
        out.append(f"the closed product formula fails at order {delta}")
    return out


def check_table_cold(data: dict) -> tuple[list[int], list[str]]:
    delta = data["delta"]
    failed, problems = [], []
    verdicts: dict[str, list[str]] = {}
    for i, op in enumerate(data["ops"]):
        if op["returncode"] != 0:
            failed.append(i)
            problems.append(f"op {i}: exit code {op['returncode']}")
            continue
        if op["stdout"] not in verdicts:
            try:
                rows = json.loads(op["stdout"])
            except ValueError:
                verdicts[op["stdout"]] = ["output is not JSON"]
            else:
                verdicts[op["stdout"]] = table_problems(rows, delta)
        if verdicts[op["stdout"]]:
            failed.append(i)
            problems.extend(f"op {i}: {p}" for p in verdicts[op["stdout"]])
    if len(verdicts) > 1:
        problems.append("run: operations printed different rows")
    return failed, problems


def _paired(data: dict):
    """(corpus item, operation) pairs; a traced run holds two passes."""
    items = data["corpus"]["items"]
    return [(items[i % len(items)], op) for i, op in enumerate(data["ops"])]


def check_severi_direct(data: dict) -> tuple[list[int], list[str]]:
    from longedge import coeffs, severi
    from longedge.polygon import polygon_from_dict

    # diffq is uncached in the library; the closed route here may cache it
    severi.diffq = lru_cache(maxsize=None)(coeffs.diffq)
    delta = data["corpus"]["delta"]
    failed, problems = [], []
    for i, (item, op) in enumerate(_paired(data)):
        n = [Fraction(v) for v in op["n"]]
        found = _node_problems(item, n, delta)
        if not found:
            p = polygon_from_dict(item["polygon"])
            qs = [severi.q_polygon(p, d) for d in range(1, delta + 1)]
            if severi.n_from_q(qs) != n[1:]:
                found.append("direct counts differ from the closed route")
        if found:
            failed.append(i)
            problems.extend(f"op {i} ({item['kind']}): {p}" for p in found)
    return failed, problems


def check_severi_cli(data: dict) -> tuple[list[int], list[str]]:
    delta = data["corpus"]["delta"]
    failed, problems = [], []
    for i, (item, op) in enumerate(_paired(data)):
        found = []
        if op["returncode"] != 0:
            found.append(f"exit code {op['returncode']} (routes disagree or error)")
        else:
            rep = json.loads(op["stdout"])
            if rep["skipped"]:
                found.append(f"skipped entries {rep['skipped']}")
            if not rep["agree"]:
                found.append("routes disagree")
            for method, values in rep["n"].items():
                n = [Fraction(v) for v in values]
                found.extend(f"{method}: {p}" for p in _node_problems(item, n, delta))
        if found:
            failed.append(i)
            problems.extend(f"op {i} ({item['kind']}): {p}" for p in found)
    return failed, problems


CHECKS = {
    "table-cold": check_table_cold,
    "severi-direct": check_severi_direct,
    "severi-cli": check_severi_cli,
}


def main() -> int:
    workload, input_path, verdict_path = sys.argv[1:]
    with open(input_path) as fh:
        data = json.load(fh)
    failed, problems = CHECKS[workload](data)
    with open(verdict_path, "w") as fh:
        json.dump({"failed": failed, "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

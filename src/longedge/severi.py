"""Node counts of polarized toric surfaces, computed three independent ways.

For a polygon p and a node count delta, the routes are: a direct sum over
boundary reorderings and weighted graphs; the closed combinatorial form in
the polygon's width statistics; and the universal linear polynomial in the
intersection numbers of the surface.  The last two compute the logarithmic
count Q, related to the plain count N by an exponential transform.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import NamedTuple, Sequence

from .coeffs import _linear_part, b_coeffs, cor, diffq, template_coefficients
from .graphs import check_cogenus
from .orderings import _chains
from .polygon import (
    HTPolygon,
    PolygonStats,
    polygon_stats,
    polygon_to_dict,
    reorderings,
    toric_invariants,
)
from .series import RatSeries, log_exp_coeffs


class UniversalPolynomial(NamedTuple):
    """Linear form giving the logarithmic count Q at one node count."""

    delta: int
    linear: tuple  # ((variable, coefficient), ...) over x, y, z, w, s, s1, ...

    def evaluate(
        self, x, y, z, w, s_all: Sequence[Rational] = ()
    ) -> Fraction:
        """Value at the intersection numbers; missing s_i count as 0 and
        extra ones are ignored."""
        values = (x, y, z, w, *s_all)
        return sum(
            (c * Fraction(v) for (_, c), v in zip(self.linear, values)),
            Fraction(0),
        )


@lru_cache(maxsize=None)
def that_delta(delta: int) -> UniversalPolynomial:
    """The universal linear form for the logarithmic count."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    tab = template_coefficients(delta)
    b1 = tab.b[0]
    spine = Fraction(tab.Ctilde, 12)
    coeffs = [
        ("x", tab.A),
        ("y", -tab.L),
        ("z", spine),
        ("w", spine + tab.D + b1),
        ("s", -b1),
    ]
    coeffs.extend((f"s{i - 1}", tab.b[i - 1]) for i in range(2, delta + 1))
    return UniversalPolynomial(
        delta=delta,
        linear=tuple((name, Fraction(c)) for name, c in coeffs),
    )


def _reach(min_edge: int, method: str) -> int:
    """The deepest node count a route reaches: the direct count needs every
    edge of length >= delta - 1, the closed and geometric forms need
    length >= delta."""
    return min_edge + 1 if method == "bruteforce" else min_edge


def _edge_shortfall(min_edge: int, method: str, delta: int) -> str:
    """Why a route cannot reach a node count past its reach: each node
    count further needs every edge one longer."""
    need = delta - _reach(min_edge, method) + min_edge
    return f"needs every edge of length >= {need}, shortest is {min_edge}"


def _require_edges(p: HTPolygon, method: str, delta: int) -> PolygonStats:
    lowest = 0 if method == "bruteforce" else 1
    if delta < lowest:
        raise ValueError(f"delta must be >= {lowest}")
    check_cogenus(delta)
    stats = polygon_stats(p)
    if delta > _reach(stats.min_edge, method):
        shortfall = _edge_shortfall(stats.min_edge, method, delta)
        raise ValueError(f"the {method} route {shortfall}")
    return stats


def n_bruteforce(p: HTPolygon, delta: int) -> int:
    """Direct count: the sum over reorderings of mu(G) * P_beta^strict(G),
    G running over the graphs of the remaining cogenus on the vertices
    0..len(beta), where strict P is 0 when a weight >= 2 edge ends at 0 or
    len(beta).

    The graphs are not listed one by one.  P counts the ways to order each
    edge in one gap it straddles and to interleave each gap's edges with
    its filler edges, so G and its orderings are built together, vertex by
    vertex, in one integer transfer over the widths (_chains).  No
    template, fitted form or P memo is read.
    """
    return _direct_counts(p, delta)[delta]


def _direct_counts(p: HTPolygon, delta: int) -> list[int]:
    """The direct counts N^0..N^delta in one pass: reorderings with equal
    widths, or with widths that mirror each other, share one transfer, run
    to the deepest remaining cogenus any of them needs, and a reordering of
    cost c reads N^(c+r) from its f[r].  The count is mirror-symmetric
    because the end rule treats both ends alike."""
    _require_edges(p, "bruteforce", delta)
    costs: dict[tuple[int, ...], Counter] = {}
    for ro in reorderings(p, delta):
        beta = min(ro.beta, ro.beta[::-1])
        costs.setdefault(beta, Counter())[ro.cogenus] += 1
    counts = [0] * (delta + 1)
    for beta, by_cost in costs.items():
        table = _chains(beta, delta - min(by_cost))
        for cost, times in by_cost.items():
            for r in range(delta - cost + 1):
                counts[cost + r] += times * table[r]
    return counts


def q_polygon(p: HTPolygon, delta: int) -> Fraction:
    """Closed form in the polygon's width statistics."""
    stats = _require_edges(p, "closed", delta)
    total = _linear_part(delta, stats)
    total += diffq(stats.tdet, delta) + diffq(stats.bdet, delta)
    for i, count in stats.vprime.items():
        total += b_coeffs(delta, i) * count
    return total


def q_geometric(p: HTPolygon, delta: int) -> Fraction:
    """Universal linear form at the surface's intersection numbers."""
    stats = _require_edges(p, "geometric", delta)
    inv = toric_invariants(p)
    s_all = [Fraction(inv.S)] + [
        Fraction(inv.S_i.get(i, 0)) for i in range(1, delta)
    ]
    value = that_delta(delta).evaluate(
        inv.Lsq, inv.LK, inv.Ksq, inv.c2tilde, s_all
    )
    return value + cor(stats.tdet, delta) + cor(stats.bdet, delta)


def n_from_q(q_values: Sequence[Rational]) -> list[Fraction]:
    """Plain counts from logarithmic ones; input and output start at delta=1."""
    return log_exp_coeffs([Fraction(v) for v in q_values])


def q_from_n(n_values: Sequence[Rational]) -> list[Fraction]:
    """Logarithmic counts from plain ones; input and output start at delta=1."""
    series = RatSeries([Fraction(1), *map(Fraction, n_values)])
    return list(series.log().coeffs[1:])


METHODS = ("bruteforce", "closed", "geometric")


class NodeCountReport(NamedTuple):
    """Per-method counts for one polygon, with exact agreement checks.

    n[method] lists N^0..N^d and q[method] lists Q^1..Q^d as far as the
    method's precondition reaches; skipped[method] maps the first skipped
    delta to the reason.
    """

    polygon: dict
    delta_max: int
    methods: tuple
    n: dict
    q: dict
    skipped: dict
    agree: bool
    disagreements: tuple

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "methods": list(self.methods),
            "n": {m: [str(v) for v in vals] for m, vals in self.n.items()},
            "q": {m: [str(v) for v in vals] for m, vals in self.q.items()},
            "skipped": {m: dict(info) for m, info in self.skipped.items()},
            "disagreements": [dict(d) for d in self.disagreements],
        }


def report(
    p: HTPolygon, delta_max: int, methods: Sequence[str] = METHODS
) -> NodeCountReport:
    if delta_max < 0:
        raise ValueError("delta_max must be >= 0")
    check_cogenus(delta_max)
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    stats = polygon_stats(p)
    n_vals: dict = {}
    q_vals: dict = {}
    skipped: dict = {}
    for m in methods:
        reach = min(delta_max, _reach(stats.min_edge, m))
        if reach < delta_max:
            shortfall = _edge_shortfall(stats.min_edge, m, reach + 1)
            skipped[m] = {str(reach + 1): f"precondition unmet: {shortfall}"}
        if m == "bruteforce":
            ns = [Fraction(n) for n in _direct_counts(p, reach)[1:]]
            qs = q_from_n(ns)
        else:
            fn = q_polygon if m == "closed" else q_geometric
            qs = [fn(p, delta) for delta in range(1, reach + 1)]
            ns = n_from_q(qs)
        n_vals[m] = [Fraction(1), *ns]
        q_vals[m] = qs

    disagreements = []
    for delta in range(1, delta_max + 1):
        for kind, table, offset in (("n", n_vals, 0), ("q", q_vals, 1)):
            present = {
                m: vals[delta - offset]
                for m, vals in table.items()
                if len(vals) > delta - offset
            }
            if len(set(present.values())) > 1:
                disagreements.append(
                    {
                        "delta": delta,
                        "kind": kind,
                        "values": {m: str(v) for m, v in present.items()},
                    }
                )
    return NodeCountReport(
        polygon=polygon_to_dict(p),
        delta_max=delta_max,
        methods=methods,
        n=n_vals,
        q=q_vals,
        skipped=skipped,
        agree=not disagreements,
        disagreements=tuple(disagreements),
    )

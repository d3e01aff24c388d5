"""Brute-force reference implementations used only by the test suite."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from longedge.graphs import LongEdgeGraph, Template, enumerate_graphs
from longedge.orderings import Allowability, _p_count, p_beta_strict
from longedge.polygon import HTPolygon, reorderings


def templates_by_filter(delta: int) -> list[Template]:
    """Templates as every graph on vertices 0..delta+1 that passes
    is_template, in enumerate_graphs' canonical order."""
    return [
        Template(g.edges)
        for g in enumerate_graphs(delta, delta + 1)
        if g.is_template()
    ]


def n_by_graphs(p: HTPolygon, delta: int) -> int:
    """The direct count graph by graph: over every reordering, the sum of
    mu(G) * p_beta_strict(G, beta) over every graph G of the remaining
    cogenus with its vertices in 0..len(beta)."""
    total = 0
    for ro in reorderings(p, delta):
        rest = delta - ro.cogenus
        if rest == 0:
            total += 1  # only the empty graph
            continue
        total += sum(
            g.multiplicity * p_beta_strict(g, ro.beta)
            for g in enumerate_graphs(rest, len(ro.beta))
        )
    return total


def allowability_by_walk(g: LongEdgeGraph, beta) -> Allowability:
    """Allowability read off the graph gap by gap: g must lie in 0..M+1 with
    beta_{j-1} >= lambda_j(g) in every gap it spans, and is strict when no
    weight >= 2 edge touches vertex 0 or M+1."""
    beta = tuple(beta)
    m = len(beta) - 1
    if g.is_empty:
        return Allowability.STRICTLY_ALLOWABLE
    hi = g.maxv
    if hi > m + 1:
        return Allowability.NOT_ALLOWABLE
    if any(beta[j - 1] < g.lambda_(j) for j in range(g.minv + 1, hi + 1)):
        return Allowability.NOT_ALLOWABLE
    # strictness looks at the ends of the ambient vertex range, not of g
    strict = all(e.weight == 1 for e in g.edges if e.lo == 0 or e.hi == m + 1)
    return Allowability.STRICTLY_ALLOWABLE if strict else Allowability.ALLOWABLE


def p_by_walk(g: LongEdgeGraph, beta, strict: bool) -> int:
    """p_beta, or p_beta_strict if strict, gated by allowability_by_walk
    instead of the library's rule."""
    needed = Allowability.STRICTLY_ALLOWABLE if strict else Allowability.ALLOWABLE
    if allowability_by_walk(g, beta).value < needed.value:
        return 0
    if g.is_empty:
        return 1
    lo = g.minv
    shape = tuple(x for e in g.edges for x in (e.lo - lo, e.hi - lo, e.weight))
    return _p_count(shape, tuple(beta[lo : g.maxv]))


def brute_force_orderings(g: LongEdgeGraph, beta) -> int:
    """Count extended orderings by materializing every admissible sequence.

    A sequence interleaves the vertices 0..M+1 (in that order) with all edges,
    each edge sitting strictly between its endpoints.  Indistinguishable edges
    (same endpoints and weight, or filler edges of the same gap) are a single
    symbol, so distinct sequences correspond exactly to equivalence classes.
    """
    beta = tuple(beta)
    m = len(beta) - 1
    if not g.is_empty and g.maxv > m + 1:
        return 0
    symbols: Counter = Counter()
    for e in g.edges:
        symbols[("edge", e.lo, e.hi, e.weight)] += 1
    for j in range(1, m + 2):
        fill = beta[j - 1] - g.lambda_(j)
        if fill < 0:
            return 0  # not allowable; zero by convention
        if fill:
            symbols[("fill", j - 1, j)] += fill

    def count(next_vertex: int, remaining: Counter) -> int:
        if next_vertex > m + 1:
            return 0 if any(c > 0 for c in remaining.values()) else 1
        total = 0
        # the next vertex may be placed once no unplaced edge must precede it
        if not any(
            key[2] == next_vertex and c > 0 for key, c in remaining.items()
        ):
            total += count(next_vertex + 1, remaining)
        for key, c in remaining.items():
            if c == 0:
                continue
            lo, hi = key[1], key[2]
            if lo < next_vertex <= hi:
                remaining[key] -= 1
                total += count(next_vertex, remaining)
                remaining[key] += 1
        return total

    return count(0, symbols)


@lru_cache(maxsize=None)
def _edge_partitions(edges: tuple) -> frozenset[tuple]:
    """Unordered decompositions of a sorted edge tuple into nonempty parts.

    Parts are sorted tuples; identical edges are interchangeable, so each
    decomposition appears once, as a sorted tuple of parts.
    """
    if not edges:
        return frozenset({()})
    first, rest = edges[0], edges[1:]
    seen = set()
    for r in range(len(rest) + 1):
        for picks in set(itertools.combinations(rest, r)):
            part = tuple(sorted((first, *picks)))
            remaining = list(rest)
            for x in picks:
                remaining.remove(x)
            for sub in _edge_partitions(tuple(remaining)):
                seen.add(tuple(sorted((part, *sub))))
    return frozenset(seen)


def phi_by_partitions(g: LongEdgeGraph, beta, count) -> Fraction:
    """phi as the signed sum over the set partitions of g's edge multiset:
    a decomposition into i parts weighs (-1)^(i+1)/i times the number of
    ordered tuples it stands for times the product of count over its parts.
    """
    beta = tuple(beta)
    parts = {}  # count of each distinct part, computed once
    total = Fraction(0)
    for partition in _edge_partitions(g.edges) if g.edges else ():
        for part in partition:
            if part not in parts:
                parts[part] = count(LongEdgeGraph(part), beta)
        pieces = [parts[part] for part in partition]
        i = len(partition)
        tuples = factorial(i) // prod(
            factorial(m) for m in Counter(partition).values()
        )
        total += Fraction((-1) ** (i + 1) * tuples * prod(pieces), i)
    return total

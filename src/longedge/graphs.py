"""Weighted multigraphs on the vertex line 0,1,2,... used for node counting.

An edge joins two distinct vertices lo < hi and carries a positive integer
weight.  Edges of length 1 and weight 1 ("short" edges) are excluded; they
only ever appear implicitly, as the filler edges added when counting
orderings against a width sequence.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple


def _int(value: object, what: str) -> int:
    """An integer input; a bool is rejected, not read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, not {value!r}")


class _EdgeFields(NamedTuple):
    lo: int
    hi: int
    weight: int = 1


class Edge(_EdgeFields):
    __slots__ = ()

    def __new__(cls, lo: int, hi: int, weight: int = 1):
        lo, hi = _int(lo, "edge end"), _int(hi, "edge end")
        weight = _int(weight, "edge weight")
        if not 0 <= lo < hi:
            raise ValueError(f"edge needs 0 <= lo < hi, got ({lo}, {hi})")
        if weight < 1:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if hi - lo == 1 and weight == 1:
            raise ValueError("length-1 weight-1 edges are not allowed")
        return tuple.__new__(cls, (lo, hi, weight))

    @classmethod
    def _make(cls, iterable) -> "Edge":
        # _replace builds through _make: both go through the checks above
        return cls(*iterable)

    @property
    def span(self) -> int:
        return self.hi - self.lo

    @property
    def cogenus(self) -> int:
        # span * weight - 1; always >= 1 because short edges are excluded
        return self.span * self.weight - 1


def _coerce_edge(e) -> Edge:
    if isinstance(e, Edge):
        return e
    return Edge(*e)


class LongEdgeGraph:
    """An immutable multiset of edges, kept sorted by (lo, hi, weight).  The
    other fields are set in one pass; the empty graph has no ends."""

    __slots__ = (
        "edges", "multiplicity", "cogenus", "minv", "maxv", "epsilon0", "epsilon1"
    )

    def __init__(self, edges=()):
        edges = tuple(sorted(map(_coerce_edge, edges)))
        minv = edges[0].lo if edges else 0  # edges are sorted by lower end first
        mu, cogenus, maxv, heavy0, heavy1 = 1, 0, 0, False, False
        for lo, hi, w in edges:
            mu *= w * w
            cogenus += (hi - lo) * w - 1
            heavy0 |= lo == minv and w > 1
            if hi > maxv:
                maxv, heavy1 = hi, False
            heavy1 |= hi == maxv and w > 1
        init = object.__setattr__
        init(self, "edges", edges)
        init(self, "multiplicity", mu)
        init(self, "cogenus", cogenus)
        if edges:
            init(self, "minv", minv)
            init(self, "maxv", maxv)
            # 1 iff every edge at the leftmost (rightmost) vertex has weight 1
            init(self, "epsilon0", int(not heavy0))
            init(self, "epsilon1", int(not heavy1))

    def __getattr__(self, name):
        # reached for a slot left unset: an end field of the empty graph
        if name in ("minv", "maxv", "epsilon0", "epsilon1"):
            raise ValueError(f"{name} is undefined on the empty graph")
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (self.edges,)

    # equality ignores the subclass so enumerated templates compare equal
    # to plain graphs with the same edge multiset
    def __eq__(self, other):
        if isinstance(other, LongEdgeGraph):
            return self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        inner = ", ".join(f"({e.lo},{e.hi},{e.weight})" for e in self.edges)
        return f"{type(self).__name__}([{inner}])"

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    @property
    def length(self) -> int:
        return self.maxv - self.minv

    def lambda_(self, j: int) -> int:
        """Total weight of edges straddling the gap between vertices j-1 and j."""
        return sum(e.weight for e in self.edges if e.lo < j <= e.hi)

    def olambda(self, j: int) -> int:
        """lambda_(j) minus the number of edges running exactly from j-1 to j."""
        return self.lambda_(j) - sum(
            1 for e in self.edges if e.lo == j - 1 and e.hi == j
        )

    def shift(self, k: int) -> "LongEdgeGraph":
        if self.is_empty or k == 0:
            return LongEdgeGraph(self.edges)
        if self.minv + k < 0:
            raise ValueError(f"shift by {k} would push vertices below 0")
        return LongEdgeGraph(
            tuple(Edge(e.lo + k, e.hi + k, e.weight) for e in self.edges)
        )

    def is_template(self) -> bool:
        """True iff minv = 0 and every interior vertex sits strictly inside some edge."""
        if self.is_empty or self.minv != 0:
            return False
        return all(
            any(e.lo < i < e.hi for e in self.edges) for i in range(1, self.length)
        )

    def is_shifted_template(self) -> bool:
        if self.is_empty:
            return False
        return self.shift(-self.minv).is_template()


class Template(LongEdgeGraph):
    """A graph anchored at vertex 0 whose edges cover every interior vertex."""

    __slots__ = ()

    def __init__(self, edges=()):
        super().__init__(edges)
        if not self.is_template():
            raise ValueError(f"not a template: {tuple(self.edges)}")

    def shifts(self, m: int) -> range:
        """The end rule: the shifts k that count against widths beta_0..beta_m,
        1 - epsilon0 <= k <= m - length + epsilon1.  An end of the vertex
        range 0..m+1 admits the template only if no weight >= 2 edge ends there.
        """
        return range(1 - self.epsilon0, m - self.length + self.epsilon1 + 1)


def conjugate(g: LongEdgeGraph) -> LongEdgeGraph:
    """Reflect the graph end to end (vertex n maps to minv + maxv - n)."""
    s = g.minv + g.maxv
    edges = tuple(Edge(s - e.hi, s - e.lo, e.weight) for e in g.edges)
    return type(g)(edges)


# The deepest cogenus whose template table can be built: a cold
# `coeffs --delta 8` takes about 11.3 s (median of 10 runs, 10.3-15.3 s)
# and peaks at 99 MB on a shared 2-CPU box (Python 3.11), and each cogenus
# has about 4.2 times the templates of the one before.
MAX_COGENUS = 8


def check_cogenus(delta: int) -> None:
    """Refuse a cogenus beyond MAX_COGENUS, before any template is built."""
    if delta > MAX_COGENUS:
        raise ValueError(
            f"cogenus {delta} is out of reach: at most {MAX_COGENUS} is supported"
        )


def _edge_pool(delta: int, max_vertex: int) -> list[Edge]:
    pool = []
    for lo in range(max_vertex):
        for hi in range(lo + 1, max_vertex + 1):
            span = hi - lo
            for w in range(1, delta + 2):
                if span == 1 and w == 1:
                    continue
                if span * w - 1 > delta:
                    break
                pool.append(Edge(lo, hi, w))
    return sorted(pool)


@lru_cache(maxsize=None)
def enumerate_templates(delta: int) -> tuple[Template, ...]:
    """All templates of the given cogenus, in canonical order, built once
    per process.

    A template of cogenus d has length at most d+1: each edge of span s
    contributes cogenus >= s-1, and covering the interior forces the spans
    to add up to at least the length.

    Edges are added in canonical order, so their lower ends never decrease,
    starting with an edge at vertex 0.  With reach the largest upper end so
    far, every vertex strictly between 0 and reach is already covered.  An
    edge with lo >= reach would make vertex reach interior, and neither it
    nor any later edge could cover that vertex, so the loop stops there.
    Every edge multiset that survives is a template, and depth-first order
    over the sorted pool is the canonical order.
    """
    if delta < 1:
        return ()
    check_cogenus(delta)
    pool = _edge_pool(delta, delta + 1)
    out: list[Template] = []

    def grow(start: int, chosen: list[Edge], remaining: int, reach: int):
        if remaining == 0:
            out.append(Template(tuple(chosen)))
            return
        for i in range(start, len(pool)):
            e = pool[i]
            if e.lo >= reach:
                break
            if e.cogenus > remaining:
                continue
            chosen.append(e)
            grow(i, chosen, remaining - e.cogenus, max(reach, e.hi))
            chosen.pop()

    grow(0, [], delta, 1)  # reach 1 admits only edges at vertex 0 first
    return tuple(out)

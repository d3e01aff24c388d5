"""Ordering counts of a graph against a width sequence, and their log forms.

Given widths beta = (beta_0, ..., beta_M), a graph G is padded with
beta_{j-1} - lambda_j(G) unweighted filler edges in each gap j, and P_beta(G)
counts the total orderings of vertices and edges (each edge placed strictly
between its endpoints) up to permuting indistinguishable edges.  phi_beta is
the log coefficient phi(S) = [x^S] log(sum_T P_beta(T) x^T) of the edge
multiset S, the sum running over its sub-multisets T.  Both are counted by
recurrences: P by a transfer over the gaps, phi by an integer recurrence
over the sub-multisets in mixed-radix order.  On the semiallowable region
phi_beta is linear in beta, and fit_linear_phi recovers that linear form
exactly.

One rule, in _count, decides whether an edge multiset fits the widths: it
must lie in the vertex range 0..M+1, and every gap's width must cover the
weight crossing it.  It reads a _Sub, the record of the multiset's span,
crossing weights and _p_count key; p_beta, p_beta_shifts and every term of
phi reach P through it.  Only non-strict P is counted here.  The strict
count of a shifted template, where no weight >= 2 edge may end at 0 or
M+1, is P at the shifts that the end rule Template.shifts admits and 0 at
the others.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from typing import NamedTuple, Sequence

from .graphs import Edge, LongEdgeGraph


class BetaSeq(tuple):
    """Width sequence (beta_0, ..., beta_M) of nonnegative integers."""

    def __new__(cls, entries):
        vals = tuple(operator.index(e) for e in entries)
        if not vals:
            raise ValueError("width sequence cannot be empty")
        if any(v < 0 for v in vals):
            raise ValueError(f"widths must be nonnegative, got {vals}")
        return super().__new__(cls, vals)

    @property
    def height(self) -> int:
        return len(self) - 1


def beta_from_divergence(d: Sequence[int]) -> BetaSeq:
    """Prefix sums (d_0, d_0+d_1, ...); rejects sequences that go negative."""
    out = list(itertools.accumulate(d))
    if not out:
        raise ValueError("not a valid width sequence: empty input")
    if min(out) < 0:
        raise ValueError(f"not a valid width sequence: prefix sums {out} go negative")
    return BetaSeq(out)


@lru_cache(maxsize=None)
def _p_count(shape: tuple[int, ...], widths: tuple[int, ...]) -> int:
    """P of a graph whose lowest vertex is 0, given as its edges' (lo, hi,
    weight) run together, where gap j holds widths[j-1] edges in all.

    A transfer over the gaps, left to right, whose state is the copies of
    each open edge class still to place: a class takes any number of copies
    in each gap it straddles but its last, which takes the rest.  A gap with
    fill filler edges and c_i copies of class i multiplies in the ways to
    order them, C(fill + s, s) s! / prod c_i! with s the sum of the c_i.

    P does not change when a graph is shifted or when widths outside its
    span change, so all shifts of one shape at the same local widths share
    one entry.  Plain integers keep the keys small and quick to hash.
    """
    classes = Counter(zip(shape[0::3], shape[1::3], shape[2::3]))
    filler = list(widths)
    opening: list[list[tuple[int, int]]] = [[] for _ in filler]
    for (lo, hi, weight), mult in classes.items():
        for j in range(lo, hi):
            filler[j] -= weight * mult
        opening[lo].append((hi, mult))
    ends: list[int] = []  # right end of each open class, in state order
    states = {(): 1}  # copies left per open class -> ways to have got there
    for j, fill in enumerate(filler):
        if opening[j]:
            ends += [hi for hi, _ in opening[j]]
            more = tuple(mult for _, mult in opening[j])
            states = {left + more: ways for left, ways in states.items()}
        elif not ends:
            continue  # no edge straddles this gap
        last = [hi == j + 1 for hi in ends]
        keep = [i for i, end in enumerate(last) if not end]
        after: dict[tuple[int, ...], int] = {}
        for left, ways in states.items():
            for placed in itertools.product(
                *[(n,) if end else range(n + 1) for n, end in zip(left, last)]
            ):
                # the product of C(fill + c_1 + ... + c_i, c_i) over classes
                term, seated = ways, fill
                for c in placed:
                    if c:
                        seated += c
                        term *= comb(seated, c)
                rest = tuple([left[i] - placed[i] for i in keep])
                after[rest] = after.get(rest, 0) + term
        states = after
        ends = [ends[i] for i in keep]
    return states[()]


@lru_cache(maxsize=None)
def _shared(value):
    """The first value seen equal to this one, so that the many cache keys
    and plans that hold equal values hold one object between them."""
    return value


def p_beta(g: LongEdgeGraph, beta: Sequence[int]) -> int:
    """Number of distinct extended orderings of g against the widths beta."""
    return _count(_sub(g.edges), tuple(beta))


def p_beta_shifts(
    g: LongEdgeGraph, beta: Sequence[int], shifts: Sequence[int]
) -> list[int]:
    """p_beta(g.shift(k), beta) for each k in shifts, without building the
    shifted graphs: g's record moves, and the widths stay whole."""
    beta = tuple(beta)
    t = _sub(g.edges)
    return [_count(t._replace(lo=t.lo + k, hi=t.hi + k), beta) for k in shifts]


class _Sub(NamedTuple):
    """An edge multiset T as the fit rule and _p_count read it."""

    size: int
    lo: int
    hi: int
    # lambda_j(T) for j = lo+1..hi, to be met by the widths beta[lo:hi]
    lams: tuple[int, ...]
    # _p_count's key: the edges' (lo, hi, weight) shifted to start at 0
    shape: tuple[int, ...]


def _sub(edges: tuple[Edge, ...]) -> _Sub:
    """One pass over sorted edges; the empty multiset sits at lo = hi = 0."""
    lo = hi = edges[0].lo if edges else 0
    lams: list[int] = []
    shape: list[int] = []
    for e in edges:
        if e.hi > hi:
            lams += [0] * (e.hi - hi)
            hi = e.hi
        for j in range(e.lo - lo, e.hi - lo):
            lams[j] += e.weight
        shape += (e.lo - lo, e.hi - lo, e.weight)
    return _Sub(len(edges), lo, hi, tuple(lams), tuple(shape))


class _LogPlan(NamedTuple):
    """The sub-multisets T of an edge multiset S as vectors of copies per
    edge class, in itertools.product order: empty first, S last.  That order
    is mixed radix, so T - U sits at position t - u and every U < T comes
    before T; each split T = U + (T - U), 0 < U < T, is stored as u alone.
    scale = lcm(1..|S|) is the common denominator."""

    subs: tuple[_Sub, ...]
    splits: tuple[tuple[int, ...], ...]
    scale: int


@lru_cache(maxsize=None)
def _log_plan(edges: tuple[Edge, ...]) -> _LogPlan:
    classes = sorted(Counter(edges).items())
    vectors = list(itertools.product(*(range(mult + 1) for _, mult in classes)))
    # the position weight of one copy of each class, the last varying fastest
    strides = [prod(m + 1 for _, m in classes[i + 1 :]) for i in range(len(classes))]
    subs = tuple(
        _shared(_sub(tuple(
            e for (e, _), c in zip(classes, v) for _ in range(c)
        )))
        for v in vectors
    )
    # the splits depend on the copies per class alone, so plans share them
    splits = _shared(tuple(
        tuple(map(sum, itertools.product(*(
            range(0, (c + 1) * stride, stride) for c, stride in zip(t, strides)
        ))))[1:-1]
        for t in vectors
    ))
    return _LogPlan(subs, splits, lcm(*range(1, len(edges) + 1)))


def _count(t: _Sub, beta: tuple[int, ...]) -> int:
    """p_beta(T, beta), which is 0 unless T fits: T lies in the vertex range
    0..M+1 and every gap's width covers the weight crossing it."""
    if t.hi > len(beta) or any(map(operator.lt, beta[t.lo : t.hi], t.lams)):
        return 0
    return _p_count(t.shape, _shared(beta[t.lo : t.hi])) if t.size else 1


def phi_beta(g: LongEdgeGraph, beta: Sequence[int]) -> Fraction:
    """Log coefficient of p_beta at g's edge multiset; the log-side weight of g:
    [x^S] log(sum over sub-multisets T of S of p_beta(T) x^T), S = g.edges.

    With h[T] = scale * phi(T), an integer, the log derivative gives
    |T| h[T] = |T| scale P(T) - sum over 0 < U < T of |U| h[U] P(T - U).
    """
    beta = tuple(beta)
    if g.is_empty:
        return Fraction(0)
    plan = _log_plan(g.edges)
    p = [_count(t, beta) for t in plan.subs]
    size_h = [0]  # |T| h[T], in plan order; the empty T has h = 0
    for at in range(1, len(p)):
        t = plan.subs[at]
        acc = t.size * plan.scale * p[at]
        for u in plan.splits[at]:
            acc -= size_h[u] * p[at - u]
        h, r = divmod(acc, t.size)
        if r:
            raise ArithmeticError(
                f"phi of a sub-multiset of {g} at {beta} is not a multiple "
                f"of 1/{plan.scale}"
            )
        size_h.append(acc)
    return Fraction(h, plan.scale)


@dataclass(frozen=True)
class LinearForm:
    """Affine form c_0 + sum_j c_j * beta_{minv+j-1} with exact coefficients.

    eta[0] is the constant term; eta[j] for 1 <= j <= ell multiplies the
    width at position minv+j-1.
    """

    eta: tuple[Fraction, ...]
    minv: int = 0

    @property
    def ell(self) -> int:
        return len(self.eta) - 1

    def _zeta(self, i: int) -> Fraction:
        return sum(
            (comb(j - 1, i) * self.eta[j] for j in range(1, len(self.eta))),
            Fraction(0),
        )

    @property
    def zeta0(self) -> Fraction:
        return self._zeta(0)

    @property
    def zeta1(self) -> Fraction:
        return self._zeta(1)

    @property
    def zeta2(self) -> Fraction:
        return self._zeta(2)

    def evaluate(self, beta: Sequence[int]) -> Fraction:
        return self.eta[0] + sum(
            (
                self.eta[j] * beta[self.minv + j - 1]
                for j in range(1, len(self.eta))
            ),
            Fraction(0),
        )


def fit_linear_phi(g: LongEdgeGraph) -> LinearForm:
    """Recover the linear form that phi_beta takes on the semiallowable region.

    phi_beta only reads the widths at positions minv..maxv-1, and any widths
    >= cogenus+2 are semiallowable with room for unit bumps, so the form is
    pinned down by one base point and one bump per position.
    """
    if g.is_empty:
        raise ValueError("fit_linear_phi is undefined on the empty graph")
    d = g.cogenus
    lo, hi = g.minv, g.maxv
    base_val = d + 2
    base = [base_val] * hi  # height M = maxv-1, the smallest valid ambient range
    f0 = phi_beta(g, base)
    coeffs = []
    for pos in range(lo, hi):
        bumped = list(base)
        bumped[pos] += 1
        coeffs.append(phi_beta(g, bumped) - f0)
    eta0 = f0 - base_val * sum(coeffs)
    form = LinearForm((Fraction(eta0), *map(Fraction, coeffs)), minv=lo)
    check_linear_form(g, form)
    return form


def check_linear_form(g: LongEdgeGraph, form: LinearForm) -> None:
    """Raise ArithmeticError unless form equals phi_beta(g, .) at two probe
    widths, one flat and one uneven, both inside the semiallowable region."""
    d, hi = g.cogenus, g.maxv
    for probe in (
        [d + 5] * hi,
        [d + 2 + (i % 3) for i in range(hi)],
    ):
        if phi_beta(g, probe) != form.evaluate(probe):
            raise ArithmeticError(
                f"linear form disagrees with direct evaluation of {g} at "
                f"{probe}; linearity is guaranteed there, so this is a bug"
            )

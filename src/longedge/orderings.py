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

P is counted in batches.  p_counts(shape, windows) takes one shape, its
edges shifted to start at vertex 0, and the widths under it at many places:
the windows.  It lists the transfer's states and moves once for the shape
and applies each window's own factors to them, and it memoizes every
(shape, window) value.  Callers hand over whole batches: p_beta_shifts
every admitted shift of a template, _scaled_phis every width sequence for
each sub-multiset, fit_linear_phi its base point, bumps and probes at once.
_scaled_phis keeps phi in integers, scaled by lcm(1..|S|), and the fit and
its probe check use those integers; phi_beta and phi_betas divide once.

One rule, in _window, decides whether an edge multiset fits the widths: it
must lie in the vertex range 0..M+1, and every gap's width must cover the
weight crossing it.  It reads a _Sub, the record of the multiset's span,
crossing weights and shape; p_beta, p_beta_shifts and every term of phi
reach P through it.  Only non-strict P is counted here.  The strict
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


# P of each shape, by window: filled in by p_counts, one walk per batch
_P_MEMO: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}


def p_counts(shape: tuple[int, ...], windows: Sequence[tuple[int, ...]]) -> list[int]:
    """P of a graph whose lowest vertex is 0, at each window: the graph is
    given as its edges' (lo, hi, weight) run together, and gap j holds
    window[j-1] edges in all, so each window must cover the weight crossing
    each gap (the fit rule _window checks that).

    Values are memoized by (shape, window).  The windows not yet known are
    counted together, duplicates once, in one walk of the transfer (_walk).
    P does not change when a graph is shifted or when widths outside its
    span change, so all shifts of one shape at the same local widths share
    one entry.
    """
    known = _P_MEMO.setdefault(shape, {})
    missing = [w for w in dict.fromkeys(windows) if w not in known]
    if missing:
        for window, value in zip(missing, _walk(shape, missing)):
            known[_shared(window)] = value
    return [known[w] for w in windows]


def _walk(shape: tuple[int, ...], windows: list[tuple[int, ...]]) -> list[int]:
    """p_counts' transfer over the gaps, left to right, for many windows.

    The state is the copies of each open edge class still to place: a class
    takes any number of copies in each gap it straddles but its last, which
    takes the rest.  A gap with fill filler edges and c_i copies of class i
    multiplies in the ways to order them, C(fill + s, s) s! / prod c_i! with
    s the sum of the c_i.  The states, the moves between them and each
    move's s! / prod c_i! depend on the shape alone, so each gap's moves are
    listed once; each window then applies only its own C(fill + s, s).
    """
    classes = Counter(zip(shape[0::3], shape[1::3], shape[2::3]))
    crossing = [0] * len(windows[0])
    opening: list[list[tuple[int, int]]] = [[] for _ in crossing]
    for (lo, hi, weight), mult in classes.items():
        for j in range(lo, hi):
            crossing[j] += weight * mult
        opening[lo].append((hi, mult))
    ends: list[int] = []  # right end of each open class, in state order
    slots = {(): 0}  # copies left per open class -> the state's slot
    values = [[1] for _ in windows]  # ways to reach each slot, per window
    for j, opened in enumerate(opening):
        if opened:
            ends += [hi for hi, _ in opened]
            more = tuple(mult for _, mult in opened)
            slots = {left + more: at for left, at in slots.items()}
        elif not ends:
            continue  # no edge straddles this gap
        last = tuple([hi == j + 1 for hi in ends])
        after: dict[tuple[int, ...], int] = {}
        moves = [
            (at, after.setdefault(rest, len(after)), s, ways)
            for left, at in slots.items()
            for rest, s, ways in _placements(left, last)
        ]
        most = max(map(sum, slots))  # the most copies one gap can take
        slots = after
        ends = [hi for hi, end in zip(ends, last) if not end]
        for w, window in enumerate(windows):
            fill = window[j] - crossing[j]
            grow = [1]  # C(fill + s, s) for s = 0..most
            for s in range(1, most + 1):
                grow.append(grow[-1] * (fill + s) // s)
            ways = values[w]
            now = [0] * len(after)
            for at, to, s, n in moves:
                now[to] += ways[at] * n * grow[s]
            values[w] = now
    return [ways[0] for ways in values]


@lru_cache(maxsize=None)
def _placements(
    left: tuple[int, ...], last: tuple[bool, ...]
) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The ways to place copies of the open classes in one gap, given the
    copies left per class and whether the gap is each class's last, where
    it places all it has left: (copies left after, s, s! / prod c_i!).
    These depend on small tuples alone, so every walk shares them."""
    out = []
    for placed in itertools.product(
        *[(n,) if end else range(n + 1) for n, end in zip(left, last)]
    ):
        # s! / prod c_i! as the product of C(c_1 + ... + c_i, c_i)
        s, ways = 0, 1
        for c in placed:
            if c:
                s += c
                ways *= comb(s, c)
        rest = tuple([n - c for n, c, end in zip(left, placed, last) if not end])
        out.append((rest, s, ways))
    return tuple(out)


@lru_cache(maxsize=None)
def _shared(value):
    """The first value seen equal to this one, so that the P memo's many
    equal window keys hold one object between them."""
    return value


def p_beta(g: LongEdgeGraph, beta: Sequence[int]) -> int:
    """Number of distinct extended orderings of g against the widths beta."""
    t = _sub(g.edges)
    return _counts(t, [_window(t, tuple(beta))])[0]


def p_beta_shifts(
    g: LongEdgeGraph, beta: Sequence[int], shifts: Sequence[int]
) -> list[int]:
    """p_beta(g.shift(k), beta) for each k in shifts, without building the
    shifted graphs, in one batch: g's record moves, and the widths stay whole."""
    beta = tuple(beta)
    t = _graph_sub(g)
    return _counts(t, [_window(t, beta, k) for k in shifts])


class _Sub(NamedTuple):
    """An edge multiset T as the fit rule and p_counts read it."""

    size: int
    lo: int
    hi: int
    # lambda_j(T) for j = lo+1..hi, to be met by the widths beta[lo:hi]
    lams: tuple[int, ...]
    # p_counts' shape: the edges' (lo, hi, weight) shifted to start at 0
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


@lru_cache(maxsize=None)
def _graph_sub(g: LongEdgeGraph) -> _Sub:
    """_sub of a whole graph, kept: the direct route asks for each template's
    record at every width sequence of every reordering."""
    return _sub(g.edges)


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
    vectors = itertools.product(*(range(mult + 1) for _, mult in classes))
    subs = tuple(
        _plan_sub(tuple(e for (e, _), c in zip(classes, v) for _ in range(c)))
        for v in vectors
    )
    splits = _splits(tuple(mult for _, mult in classes))
    return _LogPlan(subs, splits, lcm(*range(1, len(edges) + 1)))


@lru_cache(maxsize=None)
def _plan_sub(edges: tuple[Edge, ...]) -> _Sub:
    """_sub of a sub-multiset, kept: the plans of many templates hold the
    same sub-multisets, and each record is built once for all of them."""
    return _sub(edges)


@lru_cache(maxsize=None)
def _splits(mults: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A plan's splits, which depend on the copies per class alone, so
    every plan with the same multiplicities shares one table."""
    # the position weight of one copy of each class, the last varying fastest
    strides = [prod(m + 1 for m in mults[i + 1 :]) for i in range(len(mults))]
    return tuple(
        tuple(map(sum, itertools.product(*(
            range(0, (c + 1) * stride, stride) for c, stride in zip(t, strides)
        ))))[1:-1]
        for t in itertools.product(*(range(m + 1) for m in mults))
    )


def _window(t: _Sub, beta: tuple[int, ...], k: int = 0) -> tuple[int, ...] | None:
    """The widths under T shifted by k, or None unless T fits there: it lies
    in the vertex range 0..M+1 and every gap's width covers the weight
    crossing it."""
    if t.hi + k > len(beta):
        return None
    window = beta[t.lo + k : t.hi + k]
    return None if any(map(operator.lt, window, t.lams)) else window


def _counts(t: _Sub, windows: list[tuple[int, ...] | None]) -> list[int]:
    """P of T at each window from _window, 0 where T does not fit, all in
    one p_counts batch."""
    found = iter(p_counts(t.shape, [w for w in windows if w is not None]))
    return [0 if w is None else next(found) for w in windows]


def phi_beta(g: LongEdgeGraph, beta: Sequence[int]) -> Fraction:
    """Log coefficient of p_beta at g's edge multiset; the log-side weight of g:
    [x^S] log(sum over sub-multisets T of S of p_beta(T) x^T), S = g.edges."""
    return phi_betas(g, [beta])[0]


def phi_betas(g: LongEdgeGraph, betas: Sequence[Sequence[int]]) -> list[Fraction]:
    """phi_beta(g, beta) for each beta, with one p_counts batch per
    sub-multiset for all of them."""
    scale, numerators = _scaled_phis(g, betas)
    return [Fraction(h, scale) for h in numerators]


def _scaled_phis(
    g: LongEdgeGraph, betas: Sequence[Sequence[int]]
) -> tuple[int, list[int]]:
    """(scale, [scale * phi_beta(g, beta) for each beta]), all integers.

    With h[T] = scale * phi(T), the log derivative gives
    |T| h[T] = |T| scale P(T) - sum over 0 < U < T of |U| h[U] P(T - U).
    """
    betas = [tuple(beta) for beta in betas]
    if g.is_empty:
        return 1, [0] * len(betas)
    plan = _log_plan(g.edges)
    columns = [_counts(t, [_window(t, beta) for beta in betas]) for t in plan.subs]
    out = []
    for beta, p in zip(betas, zip(*columns)):
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
        out.append(h)
    return plan.scale, out


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
        return _dot([comb(j - 1, i) for j in range(1, len(self.eta))], self.eta[1:])

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
        widths = [beta[self.minv + j - 1] for j in range(1, len(self.eta))]
        return _dot([1, *widths], self.eta)


def _dot(weights: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """sum of w * v over integer weights and rational values, summed in
    integers over the values' common denominator: one Fraction in all."""
    den = lcm(*(v.denominator for v in values))
    return Fraction(
        sum(w * v.numerator * (den // v.denominator) for w, v in zip(weights, values)),
        den,
    )


def fit_linear_phi(g: LongEdgeGraph) -> LinearForm:
    """Recover the linear form that phi_beta takes on the semiallowable region.

    phi_beta only reads the widths at positions minv..maxv-1, and any widths
    >= cogenus+2 are semiallowable with room for unit bumps, so the form is
    pinned down by one base point and one bump per position.  The base, the
    bumps and check_linear_form's two probes are evaluated in one batch.
    """
    if g.is_empty:
        raise ValueError("fit_linear_phi is undefined on the empty graph")
    lo, hi = g.minv, g.maxv
    base_val = g.cogenus + 2
    base = (base_val,) * hi  # height M = maxv-1, the smallest valid ambient range
    bumps = [base[:pos] + (base_val + 1,) + base[pos + 1 :] for pos in range(lo, hi)]
    probes = _probes(g)
    # phi and the form scaled by the plan's scale, so the fit and its
    # probe check stay in integers
    scale, (f0, *values) = _scaled_phis(g, [base, *bumps, *probes])
    coeffs = [v - f0 for v in values[: len(bumps)]]
    eta0 = f0 - base_val * sum(coeffs)
    _check_probes(
        g,
        probes,
        values[len(bumps) :],
        [eta0 + sum(map(operator.mul, coeffs, probe[lo:])) for probe in probes],
    )
    return LinearForm(tuple(Fraction(c, scale) for c in (eta0, *coeffs)), minv=lo)


def _probes(g: LongEdgeGraph) -> list[tuple[int, ...]]:
    """Two widths inside the semiallowable region, one flat and one uneven."""
    d, hi = g.cogenus, g.maxv
    return [(d + 5,) * hi, tuple(d + 2 + (i % 3) for i in range(hi))]


def check_linear_form(g: LongEdgeGraph, form: LinearForm) -> None:
    """Raise ArithmeticError unless form equals phi_beta(g, .) at two probe
    widths, one flat and one uneven, both inside the semiallowable region."""
    probes = _probes(g)
    scale, values = _scaled_phis(g, probes)
    _check_probes(g, probes, values, [scale * form.evaluate(p) for p in probes])


def _check_probes(
    g: LongEdgeGraph,
    probes: list[tuple[int, ...]],
    values: list[int],
    expected: list[Fraction],
) -> None:
    """check_linear_form's test: scale * phi_beta(g, .) at the probes
    against the form at the probes, scaled the same."""
    for probe, value, want in zip(probes, values, expected):
        if value != want:
            raise ArithmeticError(
                f"linear form disagrees with direct evaluation of {g} at "
                f"{list(probe)}; linearity is guaranteed there, so this is a bug"
            )

"""Ordering counts of a graph against a width sequence, and their log forms.

Given widths beta = (beta_0, ..., beta_M), a graph G is padded with
beta_{j-1} - lambda_j(G) unweighted filler edges in each gap j, and P_beta(G)
counts the total orderings of vertices and edges (each edge placed strictly
between its endpoints) up to permuting indistinguishable edges.  phi_beta is
the log coefficient phi(S) = [x^S] log(sum_T P_beta(T) x^T) of the edge
multiset S, the sum running over its sub-multisets T.  Both are counted by
recurrences: P by a transfer over the gaps, phi by an integer recurrence
over the sub-multisets in mixed-radix order.  On the semiallowable region
phi_beta is linear in beta, and fit_templates recovers that linear form
exactly for every template of a cogenus, as the four moments (eta0, zeta0,
zeta1, zeta2) of a LinearForm: all that the coefficient sums read of it,
whatever the template's length.  It is the one way into the fit: it pairs
conjugates, reflects one's moments for the other and probe-checks them
all, and fit_linear_phi is fit_templates of one template.

P is counted in batches.  p_counts(shape, windows) takes one shape, its
edges shifted to start at vertex 0, and the widths under it at many places:
the windows.  It lists the transfer's states and moves once for the shape
and applies each window's own factors to them, and keeps nothing between
calls.  Callers hand over whole batches: phi_betas every width sequence
for each sub-multiset.  The fits of one cogenus evaluate phi at six
widths that depend on the position alone, so a _FitTable counts each
sub-multiset's P there once for all the templates that hold it: that
table, which lives as long as one fit_templates call, is the only place P
is kept, and it owns the sub-multiset records its templates' plans share.
phi is kept in integers, scaled by lcm(1..|S|), and the fit and its probe
check use those integers; phi_beta, phi_betas and the fitted moments
divide once.

One rule, in _window, decides whether an edge multiset fits the widths: it
must lie in the vertex range 0..M+1, and every gap's width must cover the
weight crossing it.  It reads a _Sub, the record of the multiset's span,
crossing weights and shape; p_beta and every term of phi reach P
through it.  Only non-strict P is counted here.  The strict count of a
shifted template, where no weight >= 2 edge may end at 0 or M+1, is P at
the shifts that the end rule Template.shifts admits and 0 at the others.

_chains counts the other way round, with no template: the strict sum
mu * P^strict over every graph of each cogenus on a width sequence, in one
integer transfer over the vertices.  It opens the edges at a vertex one
class and one gap at a time and keeps nothing between calls.  The direct
route reads those counts, and so does coeffs.q_beta_delta through their
log.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from typing import Iterable, NamedTuple, Sequence

from .graphs import Edge, LongEdgeGraph, _int, conjugate


class BetaSeq(tuple):
    """Width sequence (beta_0, ..., beta_M) of nonnegative integers."""

    def __new__(cls, entries):
        vals = tuple(_int(e, "width") for e in entries)
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


def p_counts(shape: tuple[int, ...], windows: Sequence[tuple[int, ...]]) -> list[int]:
    """P of a graph whose lowest vertex is 0, at each window: the graph is
    given as its edges' (lo, hi, weight) run together, and gap j holds
    window[j-1] edges in all, so each window must cover the weight crossing
    each gap (the fit rule _window checks that).

    The distinct windows are counted together in one walk of the transfer
    (_walk), and a call with no window walks nothing.  Nothing is kept:
    a caller that asks again for the same P keeps it itself, as the fit's
    column table does.
    """
    distinct = list(dict.fromkeys(windows))
    if not distinct:
        return []
    found = dict(zip(distinct, _walk(shape, distinct)))
    return [found[w] for w in windows]


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


def p_beta(g: LongEdgeGraph, beta: Sequence[int]) -> int:
    """Number of distinct extended orderings of g against the widths beta."""
    t = _sub(g.edges)
    return _counts(t, [_window(t, tuple(beta))])[0]


class _Sub(NamedTuple):
    """An edge multiset T as the fit rule and p_counts read it."""

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
    return _Sub(lo, hi, tuple(lams), tuple(shape))


class _LogPlan(NamedTuple):
    """The sub-multisets T of an edge multiset S as their sorted edge
    tuples, in the itertools.product order of their vectors of copies per
    edge class: empty first, S last.  That order is mixed radix, so T - U
    sits at position t - u and every U < T comes before T; each split
    T = U + (T - U), 0 < U < T, is stored as u alone.  scale = lcm(1..|S|)
    is the common denominator.  The plan holds no record: its reader builds
    the _Sub of each sub-multiset it counts, or finds it in the fit's table."""

    subs: tuple[tuple[Edge, ...], ...]
    splits: tuple[tuple[int, ...], ...]
    scale: int


def _plan(edges: tuple[Edge, ...]) -> _LogPlan:
    """The log plan of an edge multiset, built afresh: a fit reads each
    template's plan once, and phi_betas reads one plan for all its widths,
    so none is kept."""
    classes = sorted(Counter(edges).items())
    # each sub-multiset's edge tuple, grown one class at a time by that
    # class's runs of 0..mult copies: itertools.product order
    keys: list[tuple[Edge, ...]] = [()]
    for e, mult in classes:
        runs = [(e,) * c for c in range(mult + 1)]
        keys = [key + run for key in keys for run in runs]
    splits = _splits(tuple(mult for _, mult in classes))
    return _LogPlan(tuple(keys), splits, lcm(*range(1, len(edges) + 1)))


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


def _window(t: _Sub, beta: tuple[int, ...]) -> tuple[int, ...] | None:
    """The widths under T, or None unless T fits there: it lies in the
    vertex range 0..M+1 and every gap's width covers the weight crossing
    it."""
    if t.hi > len(beta):
        return None
    window = beta[t.lo : t.hi]
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
    betas = [tuple(beta) for beta in betas]
    if g.is_empty:
        return [Fraction(0)] * len(betas)
    plan = _plan(g.edges)
    rows = [
        _counts(t, [_window(t, beta) for beta in betas]) for t in map(_sub, plan.subs)
    ]
    numerators = _recurrence(g, plan, betas, zip(*rows))
    return [Fraction(h, plan.scale) for h in numerators]


def _recurrence(
    g: LongEdgeGraph,
    plan: _LogPlan,
    betas: Sequence[Sequence[int]],
    columns: Iterable[Sequence[int]],
) -> list[int]:
    """scale * phi_beta(g, beta) for each beta, from P of each of the plan's
    sub-multisets at beta: one column per beta, in plan order.

    With h[T] = scale * phi(T), the log derivative gives
    |T| h[T] = |T| scale P(T) - sum over 0 < U < T of |U| h[U] P(T - U).
    """
    out = []
    for beta, p in zip(betas, columns):
        size_h = [0]  # |T| h[T], in plan order; the empty T has h = 0
        for at in range(1, len(p)):
            size = len(plan.subs[at])
            acc = size * plan.scale * p[at]
            for u in plan.splits[at]:
                acc -= size_h[u] * p[at - u]
            h, r = divmod(acc, size)
            if r:
                raise ArithmeticError(
                    f"phi of a sub-multiset of {g} at {beta} is not a multiple "
                    f"of 1/{plan.scale}"
                )
            size_h.append(acc)
        out.append(h)
    return out


class _FitTable:
    """The sub-multisets of one cogenus's fits, each with its record and P
    at the six widths those fits evaluate, for as long as the fits run.

    The widths are the four fit points, a flat base b = cogenus + 2, b + 1,
    b + j and b + C(j, 2) in position j, then the two probes, the flat b + 3
    and b + 2 + 3j + C(j, 2), which moves along all three moments.  Each
    is a function of the position alone, so a sub-multiset's windows, and
    its P there, are the same in every template that holds it.  Its row is
    counted once: its fit column (the first four values) when a fitted
    template first holds it, its probe column (the last two) when any
    template does, in one _counts batch for all it lacks.  Its record is
    built once, with the first of these, and goes with the table.
    """

    __slots__ = ("widths", "weights", "rows")

    def __init__(self, cogenus: int, length: int):
        b = cogenus + 2
        js = range(length)
        self.widths = [
            (b,) * length,
            (b + 1,) * length,
            tuple(b + j for j in js),
            tuple(b + comb(j, 2) for j in js),
            (b + 3,) * length,
            tuple(b + 2 + 3 * j + comb(j, 2) for j in js),
        ]
        # the form at each probe from its (eta0, zeta0, zeta1, zeta2)
        self.weights = ((1, b + 3, 0, 0), (1, b + 2, 3, 1))
        # edge tuple -> its record, then P at the six widths; None where
        # not yet counted
        self.rows: dict[tuple[Edge, ...], tuple] = {}

    def columns(self, plan: _LogPlan, first: int) -> list[tuple[int, ...]]:
        """P of each of the plan's sub-multisets at widths[first:], one
        column per width; first is 0 for a fit and 4 for a probe check."""
        rows = []
        for sub in plan.subs:
            row = self.rows.get(sub)
            if row is None or row[1 + first] is None:
                t = row[0] if row else _sub(sub)
                # a row that has its probe column lacks at most its fit column
                have = row[5:] if row else ()
                lack = self.widths[first : 6 - len(have)]
                values = _counts(t, [_window(t, beta) for beta in lack])
                row = self.rows[sub] = (t, *(None,) * first, *values, *have)
            rows.append(row)
        return list(zip(*rows))[1 + first :]


def _fit_phis(g: LongEdgeGraph, table: _FitTable, first: int) -> tuple[int, list[int]]:
    """(scale, [scale * phi_beta(g, beta) for beta in table.widths[first:]]),
    with P read from the table: where fits and probe checks get phi."""
    plan = _plan(g.edges)
    betas = [w[: g.maxv] for w in table.widths[first:]]
    return plan.scale, _recurrence(g, plan, betas, table.columns(plan, first))


class LinearForm(NamedTuple):
    """The four moments of the affine form eta_0 + sum_j eta_j beta_{j-1}
    that phi takes on a template's semiallowable widths.

    zeta_i is the sum over j >= 1 of C(j-1, i) eta_j.  The coefficient
    sums read no more of the form than these four numbers, and at the widths
    p*(k, k+1, ...) the form is eta0 + p*(k*zeta0 + zeta1).
    """

    eta0: Fraction
    zeta0: Fraction
    zeta1: Fraction
    zeta2: Fraction

    def reflected(self, ell: int) -> LinearForm:
        """The moments of the conjugate template's form, whose eta_1..eta_ell
        are this form's reversed: C(ell-1-x, i) expanded in C(x, 0..2)."""
        eta0, z0, z1, z2 = self
        return LinearForm(
            eta0, z0, (ell - 1) * z0 - z1, comb(ell - 1, 2) * z0 - (ell - 2) * z1 + z2
        )


def fit_linear_phi(g: LongEdgeGraph) -> LinearForm:
    """Recover the moments of the linear form that phi_beta takes on a
    template's semiallowable region: fit_templates of g alone."""
    if g.is_empty:
        raise ValueError("fit_linear_phi is undefined on the empty graph")
    if g.minv != 0:
        raise ValueError(f"fit_linear_phi needs a template, lowest vertex 0: {g}")
    return fit_templates((g,))[0]


def fit_templates(templates: Sequence[LongEdgeGraph]) -> tuple[LinearForm, ...]:
    """The moments of the linear form that phi_beta takes on each template's
    semiallowable region, in input order: the fit of a cogenus.

    Widths >= cogenus+2 are semiallowable, and the region is closed upwards,
    so with b = 2 + the largest cogenus given, phi is the form at a flat
    base b, at b+1, and at b+j and b+C(j,2) in position j = 0..ell-1; the
    last three differ from the base by zeta0, zeta1 and zeta2.  The first
    template of each conjugate pair met is fitted there; the other takes
    the reflected moments.  Every template is then checked at two probes
    inside the region (see _FitTable).  All of them read P from one column
    table, which goes when the fit returns.  The moments stay integers,
    times their plan's scale, until the end: a template and its conjugate
    have as many edges, so one scale.
    """
    if not templates:
        return ()
    cogenus = max(t.cogenus for t in templates)
    table = _FitTable(cogenus, max(t.maxv for t in templates))
    scaled: dict[LongEdgeGraph, tuple[int, LinearForm]] = {}
    for t in templates:
        mirror = scaled.get(conjugate(t))
        if mirror is None:
            scale, (f0, *values) = _fit_phis(t, table, 0)
            zetas = [v - f0 for v in values[:3]]
            moments = LinearForm(f0 - (cogenus + 2) * zetas[0], *zetas)
            probes = values[3:]
        else:
            scale, moments = mirror[0], mirror[1].reflected(t.length)
            _, probes = _fit_phis(t, table, 4)
        _check_probes(t, table, probes, moments)
        scaled[t] = scale, moments
    return tuple(
        LinearForm(*(Fraction(m, scale) for m in moments))
        for scale, moments in map(scaled.get, templates)
    )


def _check_probes(
    g: LongEdgeGraph, table: _FitTable, values: list[int], moments: Sequence[int]
) -> None:
    """Raise ArithmeticError unless scale * phi_beta(g, .) at the probes
    equals the form there, from its moments times the same scale."""
    for probe, weights, value in zip(table.widths[4:], table.weights, values):
        if value != sum(map(operator.mul, weights, moments)):
            raise ArithmeticError(
                f"linear form disagrees with direct evaluation of {g} at "
                f"{list(probe[: g.maxv])}; linearity is guaranteed there, so "
                "this is a bug"
            )


# A state of _chains packs each gap into two fields of _FIELD bits, the
# crossing weight and then the edges ordered there, the gap nearest first.
# A field holds up to 31, at least the 2 * MAX_COGENUS either value reaches.
_FIELD = 5
_MASK = (1 << _FIELD) - 1
_GAP = 2 * _FIELD


def _chains(beta: Sequence[int], rest: int) -> list[int]:
    """Weighted counts mu * P_beta^strict of the graphs of cogenus 0..rest
    on the vertices 0..len(beta), in one transfer over the vertices.

    At vertex v the long edges (v, v + span, w) open one class and one gap
    at a time: for each class of cost span * w - 1 <= rest, with weight 1
    where the edge starts at the first vertex or ends at the last (the end
    rule), and each gap g < span it straddles, every state takes m = 0, 1,
    ... copies ordered in gap g.  A copy adds its weight to the crossing of
    each gap under it and one edge to gap g, and multiplies the value by
    w^2 (s + m) / m, s the edges gap g held before: over the classes a gap
    takes, that is (s + M)! / (s! prod m!).  Every copy crosses gap v, so
    a state stops taking copies once gap v's crossing passes beta[v].
    Then gap v closes: its fill = beta[v] minus the weight crossing it
    must be >= 0, and its s edges interleave with the fill filler edges,
    C(fill + s, s) ways.  Gap by gap this gives P's
    (fill + s)! / (fill! prod c!).

    A state is one int: the crossing weight and the edges ordered in each
    gap from v's on, _FIELD bits each, interleaved (the low field is gap
    v's crossing weight).  Every long edge has cost >= 1 and weight <=
    cost + 1, so a gap is crossed by weight <= 2 * rest and holds <= rest
    edges; 2 * rest, at most 16 at graphs.MAX_COGENUS, must fit a field,
    so adding never carries.  A copy is one addition and closing gap v
    shifts the state right by two fields.  States are kept apart by the
    cogenus used, and each step walks those layers downwards, so no state
    it makes takes copies again in the same step.
    """
    top = len(beta)
    layers = [{} for _ in range(rest + 1)]  # by cogenus used: state -> weight
    layers[0][0] = 1
    for v, width in enumerate(beta):
        for span in range(1, min(top - v, rest + 1) + 1):
            for weight in range(1, (rest + 1) // span + 1):
                if span * weight == 1 or weight > 1 and (v == 0 or span == top - v):
                    continue
                cost = span * weight - 1
                square = weight * weight
                crossing = weight * sum(1 << _GAP * gap for gap in range(span))
                for gap in range(span):
                    shift = _GAP * gap + _FIELD
                    step = crossing + (1 << shift)
                    for used in range(rest - cost, -1, -1):
                        outs = layers[used + cost :: cost]
                        for state, value in layers[used].items():
                            m = 0
                            for out in outs:
                                state += step
                                if state & _MASK > width:
                                    break
                                m += 1
                                value = value * square * (state >> shift & _MASK) // m
                                out[state] = out.get(state, 0) + value
        for used, states in enumerate(layers):
            closed = layers[used] = {}
            for state, value in states.items():
                fill = width - (state & _MASK)
                if fill < 0:
                    continue
                s = state >> _FIELD & _MASK
                if s:
                    value *= comb(fill + s, s)
                state >>= _GAP  # gap v closes
                closed[state] = closed.get(state, 0) + value
    return [sum(states.values()) for states in layers]

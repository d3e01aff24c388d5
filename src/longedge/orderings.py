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
whatever the template's length.  It is the one way into the fit: it fits
each template from its own row and checks the form against phi at every
width it read, and fit_linear_phi is fit_templates of one template.

Every P goes through p_counts(shape, windows): one shape, its edges
shifted to start at vertex 0, and the widths from that vertex on at many
places, the windows.  It holds the one rule for whether an edge multiset
fits the widths: P is 0 at a window shorter than the shape's span or
short of the weight crossing some gap.  It builds the shape's classes and
crossing weights once and walks the transfer once for the distinct
windows that fit, taking each gap's states and moves from a process-wide
table of gap moves, and keeps no count between calls.  _counts shifts an
edge multiset and each width sequence to the multiset's lowest vertex for
it; p_beta is _counts at one width sequence.

P and phi are kept in a _Table, one row per sub-multiset: P at each of
the table's width sequences, then phi there, scaled by the table's one
scale, lcm(1..most edges), to an integer.  Only _phis makes rows: a
gap-connected sub-multiset the table lacks gets P in one _counts
batch and phi from _recurrence, and one whose edges split into parts that
share no gap is read off its parts, with no walk.  phi_betas is a table
over its widths.  fit_templates is a table over the six widths of one
cogenus's fits and probes, which depend on the position alone, so a
sub-multiset's row serves every template that holds it.  A table lives as
long as the call that made it.  phi_beta, phi_betas and the fitted
moments divide by the scale once.

Only non-strict P is counted here.  The strict count of a shifted
template, where no weight >= 2 edge may end at 0 or M+1, is P at the
shifts that the end rule Template.shifts admits and 0 at the others.

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

from .graphs import Edge, LongEdgeGraph, _int


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


def p_counts(shape: tuple[int, ...], windows: Sequence[Sequence[int]]) -> list[int]:
    """P of a graph whose lowest vertex is 0, at each window: the graph is
    given as its edges' (lo, hi, weight) run together, and gap j holds
    window[j-1] edges in all.  This is the fit rule: P is 0 at a window
    shorter than the graph's span or short of the weight crossing some
    gap.  A window's entries past the span are not read.

    The distinct windows that fit are counted together in one walk of the
    transfer (_walk), and a call where none fits walks nothing.  No count
    is kept: a caller that asks again for the same P keeps it itself, as
    a _Table does.
    """
    classes = Counter(zip(shape[0::3], shape[1::3], shape[2::3]))
    crossing = [0] * max(shape[1::3], default=0)  # weight crossing each gap
    opening: list[list[tuple[int, int]]] = [[] for _ in crossing]
    for (lo, hi, weight), mult in classes.items():
        for j in range(lo, hi):
            crossing[j] += weight * mult
        opening[lo].append((hi, mult))
    span = len(crossing)
    fits = [
        tuple(w[:span]) if len(w) >= span and all(map(operator.ge, w, crossing))
        else None
        for w in windows
    ]
    distinct = list(dict.fromkeys(w for w in fits if w is not None))
    if not distinct:
        return [0] * len(fits)
    found = dict(zip(distinct, _walk(opening, crossing, distinct)))
    return [0 if w is None else found[w] for w in fits]


def _walk(
    opening: list[list[tuple[int, int]]],
    crossing: list[int],
    windows: list[tuple[int, ...]],
) -> list[int]:
    """p_counts' transfer over the gaps, left to right, for many windows
    that fit: opening[j] holds the (right end, copies) of each edge class
    that starts at vertex j, and crossing[j] the weight crossing gap j+1.

    The state is the copies of each open edge class still to place: a class
    takes any number of copies in each gap it straddles but its last, which
    takes the rest.  A gap with fill filler edges and c_i copies of class i
    multiplies in the ways to order them, C(fill + s, s) s! / prod c_i! with
    s the sum of the c_i.  A gap's moves, the states after it and each
    move's s! / prod c_i! depend on the states before it alone, so every
    walk takes them from one table (_moves); each window then applies only
    its own C(fill + s, s).
    """
    ends: list[int] = []  # right end of each open class, in state order
    states: tuple[tuple[int, ...], ...] = ((),)  # copies left per open class
    values = [[1] for _ in windows]  # ways to reach each state, per window
    for j, opened in enumerate(opening):
        if opened:
            ends += [hi for hi, _ in opened]
            more = tuple(mult for _, mult in opened)
            states = tuple([left + more for left in states])
        elif not ends:
            continue  # no edge straddles this gap
        last = tuple([hi == j + 1 for hi in ends])
        moves, states, most = _moves(states, last)
        ends = [hi for hi, end in zip(ends, last) if not end]
        for w, window in enumerate(windows):
            fill = window[j] - crossing[j]
            grow = [1]  # C(fill + s, s) for s = 0..most
            for s in range(1, most + 1):
                grow.append(grow[-1] * (fill + s) // s)
            ways = values[w]
            now = [0] * len(states)
            for at, to, s, n in moves:
                now[to] += ways[at] * n * grow[s]
            values[w] = now
    return [ways[0] for ways in values]


@lru_cache(maxsize=None)
def _moves(
    states: tuple[tuple[int, ...], ...], last: tuple[bool, ...]
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[tuple[int, ...], ...], int]:
    """One gap of the transfer, given the copies left per open class in
    each state and whether the gap is each class's last, where it places
    all it has left: the moves (state, state after, s, s! / prod c_i!), the
    states after, and the most copies the gap can take.  These depend on
    small tuples alone, so every walk shares them."""
    after: dict[tuple[int, ...], int] = {}
    moves = []
    for at, left in enumerate(states):
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
            moves.append((at, after.setdefault(rest, len(after)), s, ways))
    return tuple(moves), tuple(after), max(map(sum, states))


def _counts(edges: tuple[Edge, ...], betas: Sequence[Sequence[int]]) -> list[int]:
    """P of an edge multiset, its edges sorted, at each width sequence, in
    one p_counts batch: the edges and each beta shifted to the multiset's
    lowest vertex."""
    lo = edges[0].lo if edges else 0
    shape = tuple([x for e in edges for x in (e.lo - lo, e.hi - lo, e.weight)])
    return p_counts(shape, [beta[lo:] for beta in betas])


def p_beta(g: LongEdgeGraph, beta: Sequence[int]) -> int:
    """Number of distinct extended orderings of g against the widths beta."""
    return _counts(g.edges, [BetaSeq(beta)])[0]


class _LogPlan(NamedTuple):
    """The sub-multisets T of an edge multiset S as their sorted edge
    tuples, in the itertools.product order of their vectors of copies per
    edge class: empty first, S last.  That order is mixed radix, so T - U
    sits at position t - u and every U < T comes before T; each split
    T = U + (T - U), 0 < U < T, is stored as u alone."""

    subs: tuple[tuple[Edge, ...], ...]
    splits: tuple[tuple[int, ...], ...]


def _plan(edges: tuple[Edge, ...]) -> _LogPlan:
    """The log plan of an edge multiset, built afresh: _phis reads it once
    per table, so none is kept."""
    classes = sorted(Counter(edges).items())
    # each sub-multiset's edge tuple, grown one class at a time by that
    # class's runs of 0..mult copies: itertools.product order
    keys: list[tuple[Edge, ...]] = [()]
    for e, mult in classes:
        runs = [(e,) * c for c in range(mult + 1)]
        keys = [key + run for key in keys for run in runs]
    return _LogPlan(tuple(keys), _splits(tuple(mult for _, mult in classes)))


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


@lru_cache(maxsize=None)
def _lcm_upto(n: int) -> int:
    """lcm(1..n): phi of an n-edge multiset is a multiple of its inverse."""
    return lcm(*range(1, n + 1))


def _parts(edges: tuple[Edge, ...]) -> int:
    """How many of the sorted edges make the first gap-connected part, or
    0 if they all do.  Edges share a gap where their spans overlap, so the
    first part is the run of edges up to the first that starts at or after
    the reach of those before it; no later edge starts any sooner."""
    reach = edges[0].hi
    for at, (lo, hi, _) in enumerate(edges):
        if lo >= reach:
            return at
        reach = max(reach, hi)
    return 0


def phi_beta(g: LongEdgeGraph, beta: Sequence[int]) -> Fraction:
    """Log coefficient of p_beta at g's edge multiset; the log-side weight of g:
    [x^S] log(sum over sub-multisets T of S of p_beta(T) x^T), S = g.edges."""
    return phi_betas(g, [beta])[0]


def phi_betas(g: LongEdgeGraph, betas: Sequence[Sequence[int]]) -> list[Fraction]:
    """phi_beta(g, beta) for each beta, from one table over all of them."""
    table = _Table([BetaSeq(beta) for beta in betas], len(g))
    return [Fraction(h, table.scale) for h in _phis(g, table)]


class _Table:
    """Sub-multisets with P and scale * phi at a list of width sequences,
    for as long as the call that made the table runs: rows keyed by edge
    tuple, P at each width sequence and then scale * phi there.  One scale,
    lcm(1..most edges), serves every row; the empty multiset's P is 1 and
    its phi 0."""

    __slots__ = ("widths", "scale", "rows")

    def __init__(self, widths: list[tuple[int, ...]], most: int):
        self.widths = widths
        self.scale = _lcm_upto(most)
        self.rows = {(): (1,) * len(widths) + (0,) * len(widths)}


def _phis(g: LongEdgeGraph, table: _Table) -> list[int]:
    """[table.scale * phi_beta(g, beta) for beta in table.widths], read
    from g's row, made with the rows of g's sub-multisets that the table
    lacks, in plan order.

    A gap-connected sub-multiset gets P at every width sequence in one
    _counts batch, and phi from the recurrence over g's plan, which reads
    every smaller sub-multiset's row.  One whose edges split into a first
    gap-connected part and a rest that share no gap is counted by neither:
    its P is the product of the parts' P, as each gap's orderings involve
    only the edges crossing it, and so its phi, a log coefficient that
    mixes the parts, is 0.  Both hold at any widths.
    """
    rows, n = table.rows, len(table.widths)
    if g.edges not in rows:
        plan = _plan(g.edges)
        no_phi = (0,) * n  # a row's phi, until the recurrence fills it in
        found, todo = [], []
        for at, sub in enumerate(plan.subs):
            row = rows.get(sub)
            if row is None:
                cut = _parts(sub)
                if cut:
                    head, rest = rows[sub[:cut]], rows[sub[cut:]]
                    row = (*map(operator.mul, head[:n], rest[:n]), *no_phi)
                else:
                    row = (*_counts(sub, table.widths), *no_phi)
                    todo.append(at)
                rows[sub] = row
            found.append(row)
        columns = [list(column) for column in zip(*found)]
        _recurrence(g, plan, table.scale, table.widths, columns[:n], columns[n:], todo)
        for at in todo:
            rows[plan.subs[at]] = tuple([column[at] for column in columns])
    return list(rows[g.edges][n:])


def _recurrence(
    g: LongEdgeGraph,
    plan: _LogPlan,
    scale: int,
    betas: Sequence[Sequence[int]],
    p: Sequence[Sequence[int]],
    h: Sequence[list[int]],
    todo: Iterable[int],
) -> None:
    """Fill in h[i][at] = scale * phi_beta(T, betas[i]) at each position
    at in todo, in increasing order, T the plan's sub-multiset there, from
    P of every sub-multiset at the same widths (p[i], in plan order) and h
    at the positions before it, known or filled in first.

    With h[T] = scale * phi(T), the log derivative gives
    |T| h[T] = |T| scale P(T) - sum over 0 < U < T of |U| h[U] P(T - U).
    phi(T) is a multiple of 1/lcm(1..|T|), of which scale must be a
    multiple, and each h[T] is checked to be one.
    """
    sizes = list(map(len, plan.subs))
    # |T| h[T] must be a multiple of step = |T| scale / lcm(1..|T|)
    steps = [(at, sizes[at], sizes[at] * scale // _lcm_upto(sizes[at])) for at in todo]
    for beta, pw, hw in zip(betas, p, h):
        size_h = list(map(operator.mul, sizes, hw))  # |T| h[T], in plan order
        for at, size, step in steps:
            acc = size * scale * pw[at]
            for u in plan.splits[at]:
                acc -= size_h[u] * pw[at - u]
            if acc % step:
                raise ArithmeticError(
                    f"phi of {LongEdgeGraph(plan.subs[at])} in {g} at "
                    f"{list(beta[: g.maxv])} is not a multiple of 1/{_lcm_upto(size)}"
                )
            size_h[at] = acc
            hw[at] = acc // size


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


def fit_linear_phi(g: LongEdgeGraph) -> LinearForm:
    """Recover the moments of the linear form that phi_beta takes on a
    template's semiallowable region, fitted from g's own row and checked
    at the probes: fit_templates of g alone."""
    if g.is_empty:
        raise ValueError("fit_linear_phi is undefined on the empty graph")
    if g.minv != 0:
        raise ValueError(f"fit_linear_phi needs a template, lowest vertex 0: {g}")
    return fit_templates((g,))[0]


# The widths a fit evaluates phi at, b + c + dj * j + dc * C(j, 2) in
# position j for each (c, dj, dc): four fit points, a flat base b, b + 1,
# b + j and b + C(j, 2), which differ from the base by zeta0, zeta1 and
# zeta2; then two probes, the flat b + 3 and one that moves along all
# three moments.  The form there is eta0 + (b + c) zeta0 + dj zeta1 +
# dc zeta2.
_FIT_WIDTHS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0), (2, 3, 1))


def fit_templates(templates: Sequence[LongEdgeGraph]) -> tuple[LinearForm, ...]:
    """The moments of the linear form that phi_beta takes on each template's
    semiallowable region, in input order: the fit of a cogenus.

    Widths >= cogenus+2 are semiallowable, and the region is closed upwards,
    so with b = 2 + the largest cogenus given, phi is read at the four fit
    points and two probes of _FIT_WIDTHS, which depend on the position
    alone, from one table.  Each template is fitted at the fit points from
    its own row, and its form is checked against phi at all six widths.
    The table goes when the fit returns, and the moments stay integers,
    times its scale, until the end.
    """
    if not templates:
        return ()
    b = max(t.cogenus for t in templates) + 2
    js = range(max(t.maxv for t in templates))
    table = _Table(
        [
            tuple(b + c + dj * j + dc * comb(j, 2) for j in js)
            for c, dj, dc in _FIT_WIDTHS
        ],
        max(map(len, templates)),
    )
    scaled = []
    for t in templates:
        phis = _phis(t, table)
        zeta0, zeta1, zeta2 = [v - phis[0] for v in phis[1:4]]
        eta0 = phis[0] - b * zeta0
        for (c, dj, dc), beta, value in zip(_FIT_WIDTHS, table.widths, phis):
            if value != eta0 + (b + c) * zeta0 + dj * zeta1 + dc * zeta2:
                raise ArithmeticError(
                    f"linear form disagrees with direct evaluation of {t} at "
                    f"{list(beta[: t.maxv])}; linearity is guaranteed there, "
                    "so this is a bug"
                )
        scaled.append((eta0, zeta0, zeta1, zeta2))
    return tuple(
        LinearForm(*(Fraction(m, table.scale) for m in moments)) for moments in scaled
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

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
the windows.  It takes the transfer's states and moves for each gap from a
process-wide table of gap moves and applies each window's own factors to
them, and keeps no count between calls.  Callers hand over whole batches:
phi_betas every width sequence for each sub-multiset.  The fits of one
cogenus evaluate phi at six widths that depend on the position alone, so a
_FitTable keeps each sub-multiset's P and phi there once for all the
templates that hold it: that table, which lives as long as one
fit_templates call, is the only place P and phi are kept.  A sub-multiset
whose edges split into parts that share no gap is read off its parts,
with no walk.  phi is kept in integers, scaled by lcm(1..|S|) or by the
table's one scale, and the fit and its probe check use those integers;
phi_beta, phi_betas and the fitted moments divide once.  _recurrence is
the one routine that computes phi, for phi_betas and the fit alike.

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


def p_counts(shape: tuple[int, ...], windows: Sequence[tuple[int, ...]]) -> list[int]:
    """P of a graph whose lowest vertex is 0, at each window: the graph is
    given as its edges' (lo, hi, weight) run together, and gap j holds
    window[j-1] edges in all, so each window must cover the weight crossing
    each gap (the fit rule _window checks that).

    The distinct windows are counted together in one walk of the transfer
    (_walk), and a call with no window walks nothing.  No count is kept:
    a caller that asks again for the same P keeps it itself, as the fit's
    table does.
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
    s the sum of the c_i.  A gap's moves, the states after it and each
    move's s! / prod c_i! depend on the states before it alone, so every
    walk takes them from one table (_moves); each window then applies only
    its own C(fill + s, s).
    """
    classes = Counter(zip(shape[0::3], shape[1::3], shape[2::3]))
    crossing = [0] * len(windows[0])
    opening: list[list[tuple[int, int]]] = [[] for _ in crossing]
    for (lo, hi, weight), mult in classes.items():
        for j in range(lo, hi):
            crossing[j] += weight * mult
        opening[lo].append((hi, mult))
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
    T = U + (T - U), 0 < U < T, is stored as u alone.  The plan holds no
    record: its reader builds the _Sub of each sub-multiset it counts."""

    subs: tuple[tuple[Edge, ...], ...]
    splits: tuple[tuple[int, ...], ...]


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
    p = [list(column) for column in zip(*rows)]
    h = [[0] * len(rows) for _ in betas]
    scale = _lcm_upto(len(g))
    _recurrence(g, plan, scale, betas, p, h, range(1, len(rows)))
    return [Fraction(column[-1], scale) for column in h]


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
                    f"{list(beta)} is not a multiple of 1/{_lcm_upto(size)}"
                )
            size_h[at] = acc
            hw[at] = acc // size


# A row of a _FitTable whose phi is 0 at all six widths, or not yet known.
_NO_PHI = (0,) * 6


class _FitTable:
    """The sub-multisets of one cogenus's fits, each with P and scale * phi
    at the six widths those fits evaluate, for as long as the fits run.

    The widths are the four fit points, a flat base b = cogenus + 2, b + 1,
    b + j and b + C(j, 2) in position j, then the two probes, the flat b + 3
    and b + 2 + 3j + C(j, 2), which moves along all three moments.  Each
    is a function of the position alone, so a sub-multiset's windows, its
    P there and so its phi are the same in every template that holds it.
    Its row is made once, when a template first holds it: P at all six
    widths in one _counts batch, and phi from the recurrence over the
    template's plan, which reads every smaller sub-multiset's row.  A
    multiset whose edges split into a first gap-connected part and a rest
    that share no gap is counted by neither: its P is the product of the
    parts' P, as each gap's orderings involve only the edges crossing it,
    and so its phi, a log coefficient that mixes the parts, is 0.  One
    scale, lcm(1..most edges), serves every row.
    """

    __slots__ = ("widths", "weights", "scale", "rows")

    def __init__(self, cogenus: int, length: int, most: int):
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
        self.scale = _lcm_upto(most)
        # edge tuple -> P at the six widths, then scale * phi there; the
        # empty multiset's P is 1 and its phi 0
        self.rows = {(): (1,) * 6 + _NO_PHI}


def _fit_phis(g: LongEdgeGraph, table: _FitTable, first: int) -> list[int]:
    """[table.scale * phi_beta(g, beta) for beta in table.widths[first:]]:
    where fits (first = 0) and probe checks (first = 4) get phi.  It is
    read from g's row, made with the rows of g's sub-multisets that the
    table lacks."""
    rows = table.rows
    if g.edges not in rows:
        plan = _plan(g.edges)
        found, todo = [], []
        for at, sub in enumerate(plan.subs):
            row = rows.get(sub)
            if row is None:
                cut = _parts(sub)
                if cut:
                    head, rest = rows[sub[:cut]], rows[sub[cut:]]
                    row = (*map(operator.mul, head[:6], rest[:6]), *_NO_PHI)
                else:
                    t = _sub(sub)
                    windows = [_window(t, beta) for beta in table.widths]
                    row = (*_counts(t, windows), *_NO_PHI)
                    todo.append(at)
                rows[sub] = row
            found.append(row)
        columns = [list(column) for column in zip(*found)]
        betas = [beta[: g.maxv] for beta in table.widths]
        _recurrence(g, plan, table.scale, betas, columns[:6], columns[6:], todo)
        for at in todo:
            rows[plan.subs[at]] = tuple([column[at] for column in columns])
    return list(rows[g.edges][6 + first :])


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
    template of each conjugate pair met is fitted there; the other, found
    by its reflected edges, takes the reflected moments.  Every template is
    then checked at two probes inside the region (see _FitTable).  All of
    them read phi from one table, which goes when the fit returns.  The
    moments stay integers, times the table's scale, until the end.
    """
    if not templates:
        return ()
    cogenus = max(t.cogenus for t in templates)
    table = _FitTable(
        cogenus, max(t.maxv for t in templates), max(map(len, templates))
    )
    scaled: dict[tuple[Edge, ...], LinearForm] = {}
    for t in templates:
        s = t.minv + t.maxv  # the conjugate's edges: vertex n goes to s - n
        reflected = tuple(sorted((s - hi, s - lo, w) for lo, hi, w in t.edges))
        mirror = scaled.get(reflected)
        if mirror is None:
            f0, *values = _fit_phis(t, table, 0)
            zetas = [v - f0 for v in values[:3]]
            moments = LinearForm(f0 - (cogenus + 2) * zetas[0], *zetas)
            probes = values[3:]
        else:
            moments = mirror.reflected(t.length)
            probes = _fit_phis(t, table, 4)
        _check_probes(t, table, probes, moments)
        scaled[t.edges] = moments
    return tuple(
        LinearForm(*(Fraction(m, table.scale) for m in scaled[t.edges]))
        for t in templates
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

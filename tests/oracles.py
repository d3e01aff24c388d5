"""Reference implementations that only the test suite calls: brute-force
counts, rules read off the graph walk, P by spreading each edge class over
its gaps and a replay of a cold fit's P against it, the direct count as a
chain of templates and as a transfer that places each edge when it opens,
the linear form fitted one coefficient per width position and
its reflection for the conjugate template, and the v-local split of
reorderings."""

from __future__ import annotations

import enum
import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterator, NamedTuple, Sequence
from unittest import mock

from longedge import orderings
from longedge.coeffs import template_data
from longedge.graphs import (
    Edge,
    LongEdgeGraph,
    Template,
    _edge_pool,
    conjugate,
    enumerate_templates,
)
from longedge.orderings import LinearForm, _counts, fit_templates, p_counts, phi_betas
from longedge.polygon import (
    HTPolygon,
    InternalVertex,
    Reordering,
    _runs,
    _side_windows,
    reorderings,
)


def enumerate_graphs(delta: int, max_vertex: int) -> list[LongEdgeGraph]:
    """All graphs of the given cogenus with every vertex in [0, max_vertex].

    Edge multisets are built in nondecreasing canonical order, so each graph
    appears exactly once, and depth-first order over the sorted pool is the
    canonical order of the edge tuples.  Every edge contributes cogenus >= 1,
    which bounds the recursion depth by delta.
    """
    if delta < 1:
        return []
    pool = _edge_pool(delta, max_vertex)
    out: list[LongEdgeGraph] = []

    def grow(start: int, chosen: list[Edge], remaining: int):
        if remaining == 0:
            out.append(LongEdgeGraph(tuple(chosen)))
            return
        for i in range(start, len(pool)):
            e = pool[i]
            if e.cogenus > remaining:
                continue
            chosen.append(e)
            grow(i, chosen, remaining - e.cogenus)
            chosen.pop()

    grow(0, [], delta)
    return out


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
    mu(G) * P_beta^strict(G) over every graph G of the remaining cogenus
    with its vertices in 0..len(beta), strictness read off the graph walk."""
    total = 0
    for ro in reorderings(p, delta):
        rest = delta - ro.cogenus
        if rest == 0:
            total += 1  # only the empty graph
            continue
        total += sum(
            g.multiplicity * p_by_walk(g, ro.beta, True)
            for g in enumerate_graphs(rest, len(ro.beta))
        )
    return total


def block_weights(t: Template, beta: Sequence[int]) -> list[int]:
    """The weight of t shifted by k, for k = 0..len(beta) - 1: mu * P_beta
    where the end rule t.shifts admits k, and 0 elsewhere.  P comes from
    one p_counts batch over the admitted shifts: t stays at vertex 0, and
    the widths from k on are its widths at shift k."""
    weights = [0] * len(beta)
    shifts = t.shifts(len(beta) - 1)
    found = _counts(t.edges, [beta[k:] for k in shifts])
    for k, n in zip(shifts, found):
        weights[k] = t.multiplicity * n
    return weights


def chains_by_templates(beta: Sequence[int], rest: int) -> list[int]:
    """The direct count's table, mu * P_beta^strict summed over the graphs
    of cogenus 0..rest on the vertices 0..len(beta), as chains of blocks.

    The vertices that no edge strictly straddles split a graph uniquely
    into shifted templates, ends shared, and empty gaps; mu, cogenus and
    strict P factor over that split.  f[k][r] counts the graphs of cogenus
    r on k..len(beta), whose first block, from k, is an empty gap or a
    template shifted by k, weighed by block_weights.  Returns f[0].
    """
    top = len(beta)
    f = [[0] * (rest + 1) for _ in range(top + 1)]
    f[top][0] = 1
    blocks = [
        (t.cogenus, t.maxv, block_weights(t, beta))
        for c in range(1, rest + 1)
        for t in enumerate_templates(c)
    ]
    for k in range(top - 1, -1, -1):
        row = f[k] = f[k + 1][:]  # the gap from k to k+1 is empty
        for c, length, weights in blocks:
            w = weights[k]
            if w:
                after = f[k + length]
                for r in range(c, rest + 1):
                    row[r] += w * after[r - c]
    return f[0]


# A state of chains_placed_at_opening packs each gap into two fields of
# _FIELD bits, the crossing weight and then the edges ordered there, the
# gap nearest first.
_FIELD = 5
_MASK = (1 << _FIELD) - 1
_GAP = 2 * _FIELD


def chains_placed_at_opening(beta: Sequence[int], rest: int) -> list[int]:
    """Weighted counts mu * P_beta^strict of the graphs of cogenus 0..rest
    on the vertices 0..len(beta), in one transfer over the vertices that
    picks each edge's gap when the edge opens: the direct transfer as it
    was before its edges waited, unplaced, for a gap to take them.

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


class Allowability(enum.Enum):
    NOT_ALLOWABLE = 0
    ALLOWABLE = 1
    STRICTLY_ALLOWABLE = 2


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


def is_semiallowable(g: LongEdgeGraph, beta: Sequence[int]) -> bool:
    beta = tuple(beta)
    m = len(beta) - 1
    if g.is_empty:
        return True
    if g.maxv > m + 1:
        return False
    return all(
        beta[j - 1] >= g.olambda(j) for j in range(g.minv + 1, g.maxv + 1)
    )


def p_by_walk(g: LongEdgeGraph, beta, strict: bool) -> int:
    """p_beta, or the strict count if strict (0 when a weight >= 2 edge
    touches vertex 0 or M+1), gated by allowability_by_walk instead of the
    library's rule."""
    needed = Allowability.STRICTLY_ALLOWABLE if strict else Allowability.ALLOWABLE
    if allowability_by_walk(g, beta).value < needed.value:
        return 0
    if g.is_empty:
        return 1
    lo = g.minv
    shape = tuple(x for e in g.edges for x in (e.lo - lo, e.hi - lo, e.weight))
    return _p_at(shape, tuple(beta[lo : g.maxv]))


@lru_cache(maxsize=None)
def _p_at(shape: tuple[int, ...], window: tuple[int, ...]) -> int:
    """p_counts at one window, kept: the tests ask for the same P many
    times, a graph both strict and loose, a shifted template at every shift
    and a part of one graph in the partitions of many others."""
    return p_counts(shape, [window])[0]


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # weak compositions of n into k ordered parts
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first, *rest)


def p_by_compositions(shape: tuple[int, ...], widths: tuple[int, ...]) -> int:
    """p_counts' value at one window as the sum over every way to spread
    each edge class's copies over the gaps it straddles: a product over the
    gaps of C(fill + placed, placed) placed! / prod c!."""
    edges = list(zip(shape[0::3], shape[1::3], shape[2::3]))
    # the unweighted filler edges of gap j sit at index j-1
    filler = list(widths)
    for lo, hi, weight in edges:
        for j in range(lo, hi):
            filler[j] -= weight
    spreads = [
        [(lo, c) for c in _compositions(mult, hi - lo)]
        for (lo, hi, _), mult in sorted(Counter(edges).items())
    ]
    total = 0
    for combo in itertools.product(*spreads):
        in_gap: list[list[int]] = [[] for _ in filler]
        for lo, counts in combo:
            for j, c in enumerate(counts, lo):
                if c:
                    in_gap[j].append(c)
        term = 1
        for fill, copies in zip(filler, in_gap):
            placed = sum(copies)
            # interleave the placed edges with the identical filler edges,
            # then order the placed ones among themselves
            term *= comb(fill + placed, placed) * factorial(placed)
            for c in copies:
                term //= factorial(c)
        total += term
    return total


def fitting_window(shape: tuple[int, ...], window) -> tuple[int, ...] | None:
    """The window up to the shape's span, or None where P is 0 by the fit
    rule: the window is shorter than the span, or short of the weight
    crossing some gap, summed here edge by edge."""
    edges = [shape[i : i + 3] for i in range(0, len(shape), 3)]
    span = max((hi for _, hi, _ in edges), default=0)
    if len(window) < span or any(
        window[j] < sum(w for lo, hi, w in edges if lo <= j < hi) for j in range(span)
    ):
        return None
    return tuple(window[:span])


def fit_count_mismatches(delta: int) -> tuple[int, int, list[tuple]]:
    """Every P that a cold fit of each cogenus 1..delta asks p_counts for,
    as the fit got it, against p_by_compositions, or 0 where the window
    does not fit: the number of p_counts calls and of values checked, and
    each (shape, window, P found, P expected) that differs.  The fit is
    fit_templates of the cogenus's templates, as template_data runs it on
    a miss, so no P is read from a cache."""
    calls = []
    count = orderings.p_counts

    def record(shape, windows):
        found = count(shape, windows)
        calls.append((shape, windows, found))
        return found

    with mock.patch.object(orderings, "p_counts", record):
        for d in range(1, delta + 1):
            fit_templates(enumerate_templates(d))
    bad = []
    for shape, windows, found in calls:
        for window, p in zip(windows, found):
            fit = fitting_window(shape, window)
            expected = 0 if fit is None else p_by_compositions(shape, fit)
            if p != expected:
                bad.append((shape, window, p, expected))
    return len(calls), sum(len(windows) for _, windows, _ in calls), bad


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


class EtaForm(NamedTuple):
    """An affine form by its ell+1 coefficients:
    eta[0] + sum over j >= 1 of eta[j] * beta[minv+j-1]."""

    eta: tuple[Fraction, ...]
    minv: int = 0

    def evaluate(self, beta) -> Fraction:
        widths = beta[self.minv : self.minv + len(self.eta) - 1]
        return self.eta[0] + sum(map(operator.mul, self.eta[1:], widths), Fraction(0))

    def moments(self) -> LinearForm:
        """(eta0, zeta0, zeta1, zeta2), each summed one Fraction term at a
        time: zeta_i is the sum over j >= 1 of C(j-1, i) eta_j."""
        zetas = (
            sum((comb(j, i) * c for j, c in enumerate(self.eta[1:])), Fraction(0))
            for i in range(3)
        )
        return LinearForm(self.eta[0], *zetas)


def reflected(form: LinearForm, ell: int) -> LinearForm:
    """The moments of the conjugate template's form, for a template of
    length ell: its eta_1..eta_ell are form's reversed, so C(ell-1-x, i)
    is expanded in C(x, 0..2)."""
    eta0, z0, z1, z2 = form
    return LinearForm(
        eta0, z0, (ell - 1) * z0 - z1, comb(ell - 1, 2) * z0 - (ell - 2) * z1 + z2
    )


def conjugate_mismatches(delta: int) -> list[Template]:
    """The templates of one cogenus whose form, as template_data has it
    (read from the cache or fitted), is not the reflection of their
    conjugate's: none, as phi of the mirror image is phi at the mirrored
    widths."""
    forms = dict(template_data(delta))
    return [
        t
        for t, form in forms.items()
        if form != reflected(forms[conjugate(t)], t.length)
    ]


@lru_cache(maxsize=None)
def fit_by_bumps(g: LongEdgeGraph) -> EtaForm:
    """The form phi_beta takes on g's semiallowable region, one coefficient
    per width position under g: phi at a flat base of cogenus + 2 and at
    one unit bump per position, so ell + 1 widths for a graph of length ell."""
    lo, hi = g.minv, g.maxv
    b = g.cogenus + 2
    base = (b,) * hi
    bumps = [base[:pos] + (b + 1,) + base[pos + 1 :] for pos in range(lo, hi)]
    f0, *values = phi_betas(g, [base, *bumps])
    coeffs = [v - f0 for v in values]
    return EtaForm((f0 - b * sum(coeffs), *coeffs), lo)


def q_beta_by_templates(beta, delta: int) -> Fraction:
    """The log-side sum Q_beta as the template loop: phi of every template,
    times its multiplicity, at each shift the end rule admits.  t shifted
    by k >= 0 against beta is t against beta[k:]: the non-strict count
    reads only the widths under the graph."""
    beta = tuple(beta)
    m = len(beta) - 1
    total = Fraction(0)
    for t in enumerate_templates(delta):
        phis = phi_betas(t, [beta[k:] for k in t.shifts(m)])
        total += t.multiplicity * sum(phis, Fraction(0))
    return total


def q_delta_linearized(beta, delta: int) -> Fraction:
    """The template sum of q_beta_by_templates with every term replaced by
    the bump fit's form, evaluated at each admitted shift."""
    beta = tuple(beta)
    total = Fraction(0)
    for t in enumerate_templates(delta):
        form = fit_by_bumps(t)
        shifted = (form.evaluate(beta[k:]) for k in t.shifts(len(beta) - 1))
        total += t.multiplicity * sum(shifted, Fraction(0))
    return total


def template_sums_by_fractions(
    delta: int, data: Sequence[tuple[Template, LinearForm]]
) -> tuple[Fraction, ...]:
    """(A, L, H, D, C) of one cogenus from its templates and moments,
    summed one Fraction at a time, with the same check that the two
    formulas for L agree."""
    # a, l and l_alt are summed without their factor 1/2, applied at the end
    a = l = h = d = c = l_alt = Fraction(0)
    for t, form in data:
        mu = t.multiplicity
        ends = t.length - t.epsilon0 - t.epsilon1
        eta0, zeta0 = mu * form.eta0, mu * form.zeta0
        spread = zeta0 * ends
        a += zeta0
        l -= spread
        h += eta0 + spread
        d -= mu * (form.zeta2 + form.zeta1 * (1 - t.epsilon0))
        c -= eta0 * ends
        l_alt += eta0
    a, l, l_alt = a / 2, l / 2, l_alt / 2
    if l != l_alt:
        raise ArithmeticError(
            f"the two formulas for L disagree at delta={delta}: {l} vs {l_alt}"
        )
    return a, l, h, d, c


def reversal_cogenus(p: HTPolygon, left: Sequence[int], right: Sequence[int]) -> int:
    """Total reversal weight of a reordering of the boundary directions."""
    left = tuple(left)
    right = tuple(right)
    if sorted(left) != sorted(p.left) or sorted(right) != sorted(p.right):
        raise ValueError("not a reordering of this polygon's directions")
    cost = 0
    for i, r in enumerate(right):
        cost += sum(s - r for s in right[i + 1 :] if s > r)
    for i, l in enumerate(left):
        cost += sum(l - s for s in left[i + 1 :] if s < l)
    return cost


class VLocalPiece(NamedTuple):
    vertex: InternalVertex
    word: tuple[int, ...]  # the directions in the vertex's window, in order
    cogenus: int


def _word_cogenus(word: Sequence[int], above: int, below: int, det: int) -> int:
    """det times the number of pairs with the lower run's value first."""
    inversions = 0
    early_belows = 0
    for c in word:
        if c == below:
            early_belows += 1
        elif c == above:
            inversions += early_belows
    return det * inversions


def vlocal_decompose(
    p: HTPolygon, reordering: Sequence[Sequence[int]] | Reordering
) -> tuple[VLocalPiece, ...]:
    """Split a reordering into its per-internal-vertex local pieces.

    Each piece records the two-direction word read off the window between the
    vertices above and below; the pieces' cogenera add up to the reordering's.
    Guaranteed to be a bijection only when every internal edge is at least as
    long as the reordering's cogenus.
    """
    left, right = reordering[0], reordering[1]
    delta = reversal_cogenus(p, left, right)
    internal_edges = []
    for values in (p.left, p.right):
        runs = _runs(values)
        internal_edges.extend(length for _, length in runs[1:-1])
    if any(length < delta for length in internal_edges):
        raise ValueError(
            "decomposition not guaranteed: an internal edge is shorter than "
            f"the reordering cogenus {delta}"
        )
    pieces = []
    for side, default, actual in (
        ("left", p.left, left),
        ("right", p.right, right),
    ):
        for vertex, (a, b) in _side_windows(default, side):
            word = tuple(c for c in actual if c in (a, b))
            cogenus = _word_cogenus(word, a, b, vertex.det)
            pieces.append(VLocalPiece(vertex, word, cogenus))
    total = sum(piece.cogenus for piece in pieces)
    if total != delta:
        raise ArithmeticError(
            "decomposition dropped reversal weight: a direction strayed past "
            "a whole edge, which the edge-length precondition should prevent"
        )
    if recombine_vlocal(p, pieces) != (tuple(left), tuple(right)):
        raise ArithmeticError("recombining the pieces does not restore the input")
    return tuple(pieces)


def recombine_vlocal(
    p: HTPolygon, pieces: Sequence[VLocalPiece]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Merge per-vertex words back into a single reordering.

    Within one chain, letters of runs two or more apart keep their default
    order, which pins down the unique interleaving consistent with all words.
    """
    by_vertex = {piece.vertex: piece.word for piece in pieces}
    out = {}
    for side, default in (("left", p.left), ("right", p.right)):
        runs = _runs(default)
        k = len(runs)
        words = []
        for vertex, (a, b) in _side_windows(default, side):
            word = by_vertex.get(vertex)
            if word is None:
                raise ValueError(f"missing piece for {vertex}")
            if sorted(word) != sorted(
                [a] * dict(runs)[a] + [b] * dict(runs)[b]
            ):
                raise ValueError(f"word for {vertex} has the wrong letters")
            words.append(word)
        remaining = [length for _, length in runs]
        pointers = [0] * len(words)
        merged = []
        while len(merged) < len(default):
            emitted = False
            for j in range(k):
                if remaining[j] == 0:
                    continue
                if any(remaining[i] for i in range(j - 1)):
                    continue
                value = runs[j][0]
                if j >= 1 and words[j - 1][pointers[j - 1]] != value:
                    continue
                if j <= k - 2 and words[j][pointers[j]] != value:
                    continue
                if j >= 1:
                    pointers[j - 1] += 1
                if j <= k - 2:
                    pointers[j] += 1
                remaining[j] -= 1
                merged.append(value)
                emitted = True
                break
            if not emitted:
                raise ValueError("inconsistent pieces: no merge order exists")
        out[side] = tuple(merged)
    return out["left"], out["right"]

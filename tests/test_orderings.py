import gc
from collections import Counter
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longedge import coeffs, orderings
from longedge.graphs import Edge, LongEdgeGraph, conjugate, enumerate_templates
from longedge.orderings import (
    BetaSeq,
    LinearForm,
    beta_from_divergence,
    fit_linear_phi,
    fit_templates,
    p_beta,
    phi_beta,
    phi_betas,
)
from longedge.polygon import reorderings
from longedge.reference import TABLE1
from longedge.severi import n_bruteforce
from longedge.suites import triangle

from oracles import (
    Allowability,
    EtaForm,
    allowability_by_walk,
    brute_force_orderings,
    chains_by_templates,
    conjugate_mismatches,
    enumerate_graphs,
    fit_by_bumps,
    is_semiallowable,
    p_by_compositions,
    p_by_walk,
    phi_by_partitions,
    reflected,
)

EMPTY = LongEdgeGraph()
WT2 = LongEdgeGraph([(0, 1, 2)])
ARC = LongEdgeGraph([(0, 2, 1)])


def test_betaseq_validation():
    b = BetaSeq((1, 2, 3))
    assert b.height == 2
    with pytest.raises(ValueError):
        BetaSeq(())
    with pytest.raises(ValueError):
        BetaSeq((1, -1))
    with pytest.raises(TypeError):
        BetaSeq((1.5, 2))
    with pytest.raises(TypeError):
        BetaSeq((True, 2))  # not read as width 1


@pytest.mark.parametrize(
    "beta, error",
    [((1.5, 2.0), TypeError), ((True, 2), TypeError), ((2, -1), ValueError), ((), ValueError)],
)
def test_counts_read_their_widths_as_a_betaseq(beta, error):
    # no float P, no float inside Fraction, no bool read as width 1
    for count in (p_beta, phi_beta, lambda g, b: phi_betas(g, [(3, 3), b])):
        with pytest.raises(error):
            count(ARC, beta)


def test_beta_from_divergence():
    assert beta_from_divergence((2, 0, 0)) == (2, 2, 2)
    assert beta_from_divergence((0, 1, 1, -1, -1)) == (0, 1, 2, 1, 0)
    with pytest.raises(ValueError, match="not a valid width sequence"):
        beta_from_divergence((1, -2, 5))


def test_allowability():
    walk = allowability_by_walk
    assert walk(EMPTY, (0,)) is Allowability.STRICTLY_ALLOWABLE
    assert walk(WT2, (1,)) is Allowability.NOT_ALLOWABLE
    assert walk(WT2, (2,)) is Allowability.ALLOWABLE
    # same edge away from both ambient ends is strictly allowable
    g = LongEdgeGraph([(1, 2, 2)])
    assert walk(g, (0, 2, 0)) is Allowability.STRICTLY_ALLOWABLE
    assert walk(g, (0, 2)) is Allowability.ALLOWABLE  # hi == M+1
    assert walk(ARC, (1, 1)) is Allowability.STRICTLY_ALLOWABLE
    # maxv beyond the range
    assert walk(ARC, (5,)) is Allowability.NOT_ALLOWABLE
    # the heavy edge reaching M+1 comes first, and a later one ends sooner
    nested = LongEdgeGraph([(1, 4, 2), (2, 3, 2)])
    assert walk(nested, (0, 2, 4, 2)) is Allowability.ALLOWABLE
    assert walk(nested, (0, 2, 4, 2, 0)) is Allowability.STRICTLY_ALLOWABLE


def test_semiallowable_uses_reduced_crossing_weight():
    # a gap edge is discounted: weight 2 across gap 1 but only 1 required
    assert allowability_by_walk(WT2, (1,)) is Allowability.NOT_ALLOWABLE
    assert is_semiallowable(WT2, (1,))
    assert not is_semiallowable(WT2, (0,))
    assert is_semiallowable(EMPTY, (0,))
    assert not is_semiallowable(ARC, (5,))  # maxv > M+1


def test_p_beta_known_values():
    assert p_beta(EMPTY, (3, 1)) == 1
    assert p_by_walk(EMPTY, (3, 1), True) == 1
    assert p_beta(WT2, (3,)) == 2
    assert p_beta(ARC, (2, 3)) == 5
    assert p_beta(WT2, (1,)) == 0
    # strict variant vanishes when a heavy edge touches an ambient end
    assert p_by_walk(WT2, (3,), True) == 0
    assert p_by_walk(ARC, (2, 3), True) == 5


def test_p_beta_matches_brute_force_on_fixed_cases():
    cases = [
        (WT2, (4,)),
        (WT2, (2, 3)),
        (ARC, (2, 3)),
        (ARC, (3, 3, 2)),
        (LongEdgeGraph([(0, 1, 2), (0, 2, 1)]), (3, 2)),
        (LongEdgeGraph([(0, 2, 1), (0, 2, 1), (1, 2, 2)]), (2, 4)),
        (LongEdgeGraph([(1, 2, 3)]), (5, 4, 1)),
        (LongEdgeGraph([(0, 3, 1), (1, 2, 2)]), (2, 3, 2)),
        (LongEdgeGraph([(0, 3, 1)] * 3), (3, 4, 5)),
    ]
    for g, beta in cases:
        assert p_beta(g, beta) == brute_force_orderings(g, beta), (g, beta)


_edges = st.tuples(
    st.integers(0, 2), st.integers(1, 3), st.integers(1, 3)
).map(lambda t: (t[0], t[0] + t[1], t[2])).filter(lambda e: not (e[1] - e[0] == 1 and e[2] == 1))


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(_edges, min_size=1, max_size=3),
    beta=st.lists(st.integers(0, 5), min_size=2, max_size=4),
)
def test_p_beta_matches_brute_force(edges, beta):
    g = LongEdgeGraph(edges)
    assert p_beta(g, beta) == brute_force_orderings(g, beta)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(_edges, min_size=1, max_size=3),
    beta=st.lists(st.integers(0, 5), min_size=4, max_size=4),
    noise=st.lists(st.integers(0, 5), min_size=4, max_size=4),
)
def test_p_beta_reads_only_spanned_positions(edges, beta, noise):
    g = LongEdgeGraph(edges)
    if g.maxv > len(beta):
        return
    base = p_beta(g, beta)
    tweaked = [
        noise[i] if not (g.minv <= i <= g.maxv - 1) else beta[i]
        for i in range(len(beta))
    ]
    assert p_beta(g, tweaked) == base


def _fitting(shape, window):
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


def test_p_count_matches_composition_walk(monkeypatch):
    # every (shape, window) that fitting each template of cogenus <= 4 and
    # the template chain of a direct count at cogenus 5 hand to p_counts,
    # in their batches: 0 where the window does not fit, and the
    # composition walk's value where it does
    keys = set()
    count = orderings.p_counts

    def record(shape, windows):
        keys.update((shape, tuple(w)) for w in windows)
        return count(shape, windows)

    monkeypatch.setattr(orderings, "p_counts", record)
    for d in range(1, 5):
        for t in enumerate_templates(d):
            fit_linear_phi(t)
    for ro in reorderings(triangle(7), 5):
        chains_by_templates(ro.beta, 5 - ro.cogenus)
    monkeypatch.undo()
    walked = {}
    for shape, window in keys:
        fit = _fitting(shape, window)
        if fit is None:
            assert count(shape, [window]) == [0], (shape, window)
        else:
            walked.setdefault((shape, fit), []).append(window)
    # and classes of three or four copies that straddle three or four gaps
    for shape, window in [
        ((0, 3, 1) * 3, (3, 4, 5)),
        ((0, 3, 1) * 3 + (1, 4, 1) * 2 + (2, 3, 2), (4, 6, 8, 3)),
        ((0, 4, 1) * 4 + (1, 2, 3), (5, 9, 4, 6)),
        ((0, 1, 2) + (0, 3, 1) * 3 + (2, 5, 1) * 3, (6, 4, 7, 4, 4)),
    ]:
        walked.setdefault((shape, window), []).append(window)
    assert len(walked) > 1000
    for (shape, fit), windows in walked.items():
        expected = p_by_compositions(shape, fit)
        assert count(shape, windows) == [expected] * len(windows), (shape, fit)


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(_edges, min_size=1, max_size=4),
    extras=st.lists(
        st.lists(st.integers(-2, 3), max_size=7), min_size=1, max_size=5
    ),
)
def test_p_counts_is_zero_where_the_window_does_not_fit(edges, extras):
    # windows around the crossing weights, shorter and longer than the
    # span and below the weight at some gaps: P is 0 at a window shorter
    # than the span or below some gap's crossing weight, and the
    # composition walk's value at every other, one window at a time and
    # in one batch
    g = LongEdgeGraph(edges)
    g = g.shift(-g.minv)
    shape = tuple(x for e in g.edges for x in (e.lo, e.hi, e.weight))
    windows = [
        tuple(max(0, g.lambda_(j) + x) for j, x in enumerate(extra, 1))
        for extra in extras
    ]
    expected = [
        0 if _fitting(shape, w) is None else p_by_compositions(shape, w) for w in windows
    ]
    for w, p in zip(windows, expected):
        assert orderings.p_counts(shape, [w]) == [p], w
    assert orderings.p_counts(shape, windows) == expected


@settings(max_examples=80, deadline=None)
@given(
    edges=st.lists(_edges, min_size=1, max_size=4),
    extras=st.lists(
        st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=1, max_size=4
    ),
    data=st.data(),
)
def test_p_counts_batches_match_composition_walk(edges, extras, data):
    # a batch with a duplicate window and the window that just fits, then a
    # single window from each end of it, each against the composition walk
    g = LongEdgeGraph(edges)
    g = g.shift(-g.minv)
    shape = tuple(x for e in g.edges for x in (e.lo, e.hi, e.weight))
    tight = tuple(g.lambda_(j) for j in range(1, g.maxv + 1))
    windows = [tuple(lam + x for lam, x in zip(tight, extra)) for extra in extras]
    batch = data.draw(st.permutations([*windows, tight, windows[0]]))
    expected = [p_by_compositions(shape, w) for w in batch]
    assert orderings.p_counts(shape, batch) == expected
    assert orderings.p_counts(shape, batch[:1]) == expected[:1]
    assert orderings.p_counts(shape, batch[-1:]) == expected[-1:]
    assert orderings.p_counts(shape, []) == []


def test_transfer_walk_counts(monkeypatch):
    # work counts, never wall time: each p_counts call with a window that
    # fits walks the transfer once, for its distinct windows that fit, and
    # keeps nothing
    calls, windows = [], []
    count, walk = orderings.p_counts, orderings._walk
    monkeypatch.setattr(
        orderings, "p_counts", lambda shape, ws: calls.append(shape) or count(shape, ws)
    )
    monkeypatch.setattr(
        orderings,
        "_walk",
        lambda opening, crossing, ws: windows.append(len(ws)) or walk(opening, crossing, ws),
    )
    monkeypatch.setattr(coeffs, "_disk_cache", False)
    coeffs.template_data.__wrapped__(5)  # a cold template_data(5)
    # each sub-multiset fits at one fit width or more: one walk a call
    assert len(windows) == len(calls)
    assert (len(windows), sum(windows)) == (734, 4230)
    # the direct count is one transfer over the widths, and walks none
    windows.clear()
    for delta in range(6):
        n_bruteforce(triangle(7), delta)
    assert (len(windows), sum(windows)) == (0, 0)


def test_fit_counts_each_record_once_per_cogenus(monkeypatch):
    # work counts, never wall time: over a cold delta <= 5 build, each
    # gap-connected sub-multiset is counted in one _counts batch per
    # cogenus, at all six widths, and its phi computed once there; a
    # multiset whose parts share no gap is neither, no batch is made per
    # plan entry, and no table outlives its cogenus's fit
    batches, phis = [], []
    counts, recurrence = orderings._counts, orderings._recurrence
    monkeypatch.setattr(
        orderings, "_counts", lambda edges, ws: batches.append(len(ws)) or counts(edges, ws)
    )

    def count_phis(g, plan, scale, betas, p, h, todo):
        todo = list(todo)
        phis.append(len(todo) * len(p))
        return recurrence(g, plan, scale, betas, p, h, todo)

    monkeypatch.setattr(orderings, "_recurrence", count_phis)
    monkeypatch.setattr(coeffs, "_disk_cache", False)
    for delta in range(1, 6):
        coeffs.template_data.__wrapped__(delta)
    assert (len(batches), sum(batches)) == (976, 5856)
    # one recurrence per template, and six phi values per batch
    assert (len(phis), sum(phis)) == (551, 5856)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, orderings._Table)]


@settings(max_examples=80, deadline=None)
@given(
    first=st.lists(_edges, min_size=1, max_size=3),
    rest=st.lists(_edges, min_size=1, max_size=2),
    gap=st.integers(0, 2),
    extra=st.lists(st.integers(-1, 2), min_size=12, max_size=12),
)
def test_parts_that_share_no_gap_multiply_p_and_have_phi_zero(first, rest, gap, extra):
    # the two facts a table reads a disconnected multiset by: its P is the
    # product of its parts' and its phi is 0, both against oracles that
    # know nothing of parts, at widths that may be below the weight
    # crossing a gap, so that a part may not fit
    a, b = LongEdgeGraph(first), LongEdgeGraph(rest)
    a = a.shift(-a.minv)
    g = LongEdgeGraph(a.edges + b.shift(a.maxv + gap - b.minv).edges)
    cut = orderings._parts(g.edges)
    head, tail = LongEdgeGraph(g.edges[:cut]), LongEdgeGraph(g.edges[cut:])
    assert cut and head.is_shifted_template() and head.maxv <= tail.minv
    beta = tuple(max(0, g.lambda_(j) + x) for j, x in enumerate(extra[: g.maxv], 1))

    def oracle(h):
        if allowability_by_walk(h, beta) is Allowability.NOT_ALLOWABLE:
            return 0
        lo = h.minv
        shape = tuple(x for e in h.edges for x in (e.lo - lo, e.hi - lo, e.weight))
        return p_by_compositions(shape, beta[lo : h.maxv])

    assert p_beta(g, beta) == oracle(g) == oracle(head) * oracle(tail)
    count = lambda h, widths: p_by_walk(h, widths, False)
    assert phi_beta(g, beta) == 0 == phi_by_partitions(g, beta, count)
    # and a table reads them so: it counts no multiset whose parts share
    # no gap, g included, and its row holds the P that p_beta counts
    table = orderings._Table([beta, (g.cogenus + 2,) * g.maxv], len(g))
    with mock.patch.object(orderings, "_counts", wraps=orderings._counts) as counts:
        assert orderings._phis(g, table) == [0, 0]
    assert not [c for c in counts.call_args_list if orderings._parts(c.args[0])]
    assert table.rows[g.edges][:2] == tuple(p_beta(g, w) for w in table.widths)


def test_fit_does_not_depend_on_what_filled_its_table():
    # a template's form is the same whichever templates filled the table
    # before it: in order, reversed, or alone
    for d in range(1, 5):
        templates = enumerate_templates(d)
        alone = tuple(map(fit_linear_phi, templates))
        assert fit_templates(templates) == alone
        assert fit_templates(templates[::-1]) == alone[::-1]


def test_recurrence_checks_each_phi_against_its_own_size():
    # in a table whose scale is lcm(1..4) = 12, phi of a two-edge multiset
    # must be a multiple of 1/2, not just of 1/12: a known phi of 14/12 at
    # its one-edge part gives it 5/12, and that is refused
    g = LongEdgeGraph([(0, 2, 1)] * 2)
    plan = orderings._plan(g.edges)
    p = [[1, 1, 1]]
    h = [[0, 12, 0]]  # phi = 1 at the one-edge part, as it should be
    orderings._recurrence(g, plan, 12, [(3, 3)], p, h, [2])
    assert h == [[0, 12, 6]]  # phi = P(2 edges) - P(1 edge)^2 / 2 = 1/2
    h = [[0, 14, 0]]
    with pytest.raises(ArithmeticError, match=r"not a multiple of 1/2"):
        orderings._recurrence(g, plan, 12, [(3, 3)], p, h, [2])


def test_log_plan_splits_sit_at_mixed_radix_positions():
    # for each split u of T, position u holds U and position t - u holds T - U
    multisets = [t.edges for d in range(1, 5) for t in enumerate_templates(d)]
    multisets.append(
        LongEdgeGraph([(0, 3, 1)] * 3 + [(1, 2, 2)] * 2 + [(2, 4, 1)]).edges
    )
    for s in multisets:
        plan = orderings._plan(s)
        subs = [Counter((e.lo, e.hi, e.weight) for e in t) for t in plan.subs]
        assert subs[0] == Counter()
        assert subs[-1] == Counter((e.lo, e.hi, e.weight) for e in s)
        assert len({frozenset(t.items()) for t in subs}) == len(subs)
        for at, (t, split) in enumerate(zip(subs, plan.splits)):
            # every U with 0 < U < T, once each
            proper = max(0, prod(c + 1 for c in t.values()) - 2)
            assert len(set(split)) == len(split) == proper
            for u in split:
                assert subs[u] and subs[at - u]
                assert subs[u] + subs[at - u] == t


def test_phi_single_edge_equals_p():
    for beta in [(3,), (5,), (2, 2)]:
        assert phi_beta(WT2, beta) == p_beta(WT2, beta)
    assert phi_beta(ARC, (4, 4)) == p_beta(ARC, (4, 4))


def test_phi_strict_vanishes_off_shifted_templates():
    betas = [(3, 3, 3, 3), (4, 2, 5, 3)]
    strict = lambda h, b: p_by_walk(h, b, True)
    for g in enumerate_graphs(2, 4):
        if not g.is_shifted_template():
            for beta in betas:
                assert phi_by_partitions(g, beta, strict) == 0, g


def test_phi_two_parallel_arcs():
    g = LongEdgeGraph([(0, 2, 1), (0, 2, 1)])
    for b0, b1 in [(4, 4), (5, 7), (6, 4)]:
        expected = Fraction(-3, 2) * b0 + Fraction(-3, 2) * b1 + 1
        assert phi_beta(g, (b0, b1)) == expected


def oracle_widths(d, n):
    """Widths for a graph of cogenus d with highest vertex n."""
    return [
        (d + 2,) * n,  # semiallowable
        tuple(d + 2 + i % 3 for i in range(n)),
        tuple(1 + 2 * i % 5 for i in range(n + 1)),  # often not allowable
        (1,) * n,
        (d + 2,) * max(1, n - 2),  # maxv > M+1
    ]


def test_allowability_matches_walk_oracle():
    # the library's fit rule: P > 0 exactly where the walk allows the graph
    seen = set()
    for d in range(1, 5):
        for g in enumerate_graphs(d, d + 1):
            for beta in oracle_widths(d, g.maxv):
                walk = allowability_by_walk(g, beta)
                fits = walk is not Allowability.NOT_ALLOWABLE
                assert (p_beta(g, beta) > 0) == fits, (g, beta)
                seen.add(walk)
    assert seen == set(Allowability)


def test_phi_matches_partition_oracle():
    # the oracle's P is gated by the graph walk, not by the library's rule;
    # the library's phi comes in one batch per graph, one value per widths
    count = lambda h, b: p_by_walk(h, b, False)
    for d in range(1, 5):
        for g in enumerate_graphs(d, d + 1):
            betas = oracle_widths(d, g.maxv)
            for beta, phi in zip(betas, phi_betas(g, betas), strict=True):
                assert phi == phi_by_partitions(g, beta, count), (g, beta)
                assert p_beta(g, beta) == count(g, beta), (g, beta)


def test_phi_empty_graph_is_zero():
    assert phi_beta(EMPTY, (3,)) == 0


def test_linear_form_zeta():
    # the oracle's moments and evaluation, on a form worked by hand
    form = EtaForm((Fraction(0), Fraction(1), Fraction(1), Fraction(1)))
    assert form.moments() == LinearForm(0, 3, 3, 1)
    assert form.evaluate((2, 3, 4)) == 9
    mixed = EtaForm((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), Fraction(7)), 1)
    assert mixed.moments() == (Fraction(1, 2), Fraction(13, 2), Fraction(79, 6), 7)
    assert mixed.evaluate((9, 1, 2, 3)) == Fraction(121, 6)


def test_fit_linear_phi_table1():
    for row in TABLE1:
        g = LongEdgeGraph(row["edges"])
        moments = (row["eta"][0], row["zeta0"], row["zeta1"], row["zeta2"])
        assert fit_linear_phi(g) == moments, row["edges"]
        assert fit_by_bumps(g).eta == row["eta"], row["edges"]


def test_fit_linear_phi_shifted_graph():
    # the library fits templates only; the oracle reads a shifted graph's
    # widths from its lowest vertex on
    with pytest.raises(ValueError, match="lowest vertex 0"):
        fit_linear_phi(LongEdgeGraph([(2, 3, 2)]))
    base = fit_by_bumps(LongEdgeGraph([(0, 1, 2)]))
    shifted = fit_by_bumps(LongEdgeGraph([(2, 3, 2)]))
    assert shifted.eta == base.eta
    assert shifted.minv == 2
    assert shifted.evaluate((9, 9, 5, 9)) == base.evaluate((5,))


def _count_records(monkeypatch) -> list:
    """The edge tuple of every sub-multiset counted from now on."""
    calls = []
    counts = orderings._counts
    monkeypatch.setattr(
        orderings, "_counts", lambda edges, ws: calls.append(edges) or counts(edges, ws)
    )
    return calls


def test_log_plans_build_each_record_once(monkeypatch):
    # over a cold delta <= 5 build, each gap-connected sub-multiset's record
    # is built once within its cogenus's fit, however many of that fit's
    # plans hold it, and no other record is built; each split table is
    # built once per vector of multiplicities
    calls = _count_records(monkeypatch)
    monkeypatch.setattr(coeffs, "_disk_cache", False)
    orderings._splits.cache_clear()
    builds, entries = [], 0
    for delta in range(1, 6):
        calls.clear()
        coeffs.template_data.__wrapped__(delta)
        plans = [orderings._plan(t.edges) for t in enumerate_templates(delta)]
        held = {sub for plan in plans for sub in plan.subs}
        connected = {sub for sub in held if sub and not orderings._parts(sub)}
        assert set(calls) == connected and len(calls) == len(connected), delta
        builds.append(len(calls))
        entries += sum(len(plan.subs) for plan in plans)
    assert builds == [2, 11, 46, 183, 734]
    assert entries == 6083
    assert orderings._splits.cache_info().misses == 31


def test_a_second_fit_builds_its_records_again(monkeypatch):
    # the records belong to one fit_templates call: fitting the same
    # cogenus again builds every one of them again, so none outlives a fit
    calls = _count_records(monkeypatch)
    templates = enumerate_templates(3)
    first = fit_templates(templates)
    assert len(calls) == 46
    assert fit_templates(templates) == first
    assert len(calls) == 2 * 46
    assert sorted(calls[:46]) == sorted(calls[46:])


def _probe_off_by_one(monkeypatch, probe, conjugates):
    # phi at one probe off by 1/scale wherever the fit reads phi from its
    # table: for every template, or only for one whose conjugate the fit
    # read before it (the table holds a row of the fit's cogenus only for
    # a template it has read)
    phis = orderings._phis

    def off_by_one(g, table):
        after_conjugate = conjugate(g).edges in table.rows
        values = phis(g, table)
        if after_conjugate or not conjugates:
            values[probe] += 1
        return values

    monkeypatch.setattr(orderings, "_phis", off_by_one)


@pytest.mark.parametrize("probe", [-2, -1])
def test_fit_linear_phi_probe_check_rejects(monkeypatch, probe):
    # the fit's own check must catch it, alone and in a cold build
    _probe_off_by_one(monkeypatch, probe, False)
    for t in enumerate_templates(2):
        with pytest.raises(ArithmeticError, match="disagrees"):
            fit_linear_phi(t)
    with pytest.raises(ArithmeticError, match="disagrees"):
        fit_templates(enumerate_templates(2))


@pytest.mark.parametrize("probe", [-2, -1])
def test_fit_templates_conjugate_probe_check_rejects(monkeypatch, probe):
    # a template fitted after its conjugate, whose row the table already
    # holds, has phi at one of its probes off by 1/scale: its own check
    # must catch it, fitted alone after its conjugate and in a cold build
    _probe_off_by_one(monkeypatch, probe, True)
    for t in enumerate_templates(3):
        with pytest.raises(ArithmeticError, match="disagrees"):
            fit_templates((t, conjugate(t)))
    monkeypatch.setattr(coeffs, "_disk_cache", False)
    with pytest.raises(ArithmeticError, match="disagrees"):
        coeffs.template_data.__wrapped__(3)


def test_linear_form_sums_match_fraction_oracle(tmp_path, monkeypatch):
    # the four-point moments of a cold build, each template fitted from its
    # own row, and the same moments read back from the cache, against the
    # moments of the bump fit summed one Fraction at a time, on every
    # template
    monkeypatch.setenv("LONGEDGE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(coeffs, "_disk_cache", True)
    fitted = [row for d in range(1, 6) for row in coeffs.template_data.__wrapped__(d)]
    loaded = [
        row for d in range(1, 6) for row in coeffs._load("templates", d, coeffs._read_templates)
    ]
    assert len(fitted) == 551 and loaded == fitted
    for t, form in fitted:
        assert form == fit_by_bumps(t).moments(), t


def test_phi_at_the_uneven_probe_matches_bump_fit():
    # the widths d+2+(i mod 3) that the fit no longer probes
    for d in range(1, 5):
        for t in enumerate_templates(d):
            beta = tuple(d + 2 + i % 3 for i in range(t.length))
            assert phi_beta(t, beta) == fit_by_bumps(t).evaluate(beta), t


def test_fit_templates_returns_forms_in_input_order():
    # over any order and mix of cogenera, each template's own fit; nothing
    # for no template
    assert fit_templates(()) == ()
    templates = [t for d in (3, 1, 2) for t in reversed(enumerate_templates(d))]
    assert fit_templates(templates) == tuple(map(fit_linear_phi, templates))


def test_fit_linear_phi_rejects_empty():
    with pytest.raises(ValueError):
        fit_linear_phi(EMPTY)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_phi_agrees_with_fit_on_semiallowable_points(data):
    pool = enumerate_graphs(1, 2) + enumerate_graphs(2, 3)
    g = data.draw(st.sampled_from(pool))
    form = fit_by_bumps(g)
    d = g.cogenus
    beta = data.draw(
        st.lists(
            st.integers(d, d + 6), min_size=g.maxv, max_size=g.maxv + 2
        )
    )
    assert is_semiallowable(g, beta)
    assert phi_beta(g, beta) == form.evaluate(beta)
    if g.minv == 0:
        assert fit_linear_phi(g) == form.moments()


def test_conjugate_identities():
    for delta in (1, 2, 3):
        for t in enumerate_templates(delta):
            f = fit_linear_phi(t)
            fc = fit_linear_phi(conjugate(t))
            ell = t.length
            assert fc.eta0 == f.eta0
            assert fc.zeta0 == f.zeta0
            assert f.zeta1 + fc.zeta1 == (ell - 1) * f.zeta0
            assert fc == reflected(f, ell)
            e, ec = fit_by_bumps(t).eta, fit_by_bumps(conjugate(t)).eta
            assert ec == (e[0], *reversed(e[1:]))


@pytest.mark.parametrize("delta", range(1, 7))
def test_cached_forms_of_conjugates_are_reflections(delta):
    # every template's form, as template_data has it, is the reflection of
    # its conjugate's: the fit no longer reads one off the other
    assert conjugate_mismatches(delta) == []

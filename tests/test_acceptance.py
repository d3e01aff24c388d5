"""Acceptance suite: ten numbered criteria, one verdict line each.

Every check recomputes its target through the public interface and compares
against hand-entered constants or an independent second route.  Verdicts
are collected in VERDICTS and printed as a summary section by conftest.
Criteria 1, 2, 7, 8 and 9 run the suites that `longedge verify` runs.
"""

import functools
import time
from collections import Counter
from fractions import Fraction as F

from longedge.coeffs import (
    a_series,
    b_coeffs,
    cor,
    diffq,
    q_beta_delta,
    template_coefficients,
    template_data,
)
from longedge.graphs import conjugate, enumerate_templates
from longedge.orderings import fit_linear_phi, p_beta
from longedge.polygon import internal_vertices, polygon_stats, reorderings
from longedge.series import RatSeries, dg2, partition_series
from longedge.severi import n_bruteforce, n_from_q, q_geometric, q_polygon
from longedge.suites import SHARP, SUITES, TRAPEZOID, TWO_SIDED, triangle

from oracles import brute_force_orderings, enumerate_graphs

VERDICTS: list[tuple[int, str, bool, float]] = []


def criterion(number, label, budget=None):
    """Record a PASS/FAIL verdict for one acceptance criterion, always."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            ok = False
            try:
                fn()
                took = time.perf_counter() - start
                if budget is not None and took >= budget:
                    raise AssertionError(
                        f"took {took:.2f}s, budget {budget:.0f}s"
                    )
                ok = True
            finally:
                VERDICTS.append(
                    (number, label, ok, time.perf_counter() - start)
                )

        return run

    return wrap


def assert_suite(name):
    """Fail on any failed check of a named suite, and on an empty suite."""
    checks = SUITES[name].run()
    assert checks, f"suite {name} ran no checks"
    failed = [label for label, ok in checks if not ok]
    assert not failed, failed


@criterion(1, "template table at cogenus 1 and 2, every column", budget=1.0)
def test_criterion_01_template_table():
    assert_suite("table1")


@criterion(2, "universal coefficients through cogenus 3", budget=10.0)
def test_criterion_02_coefficient_table():
    assert_suite("coeffs")


@criterion(3, "height coefficient vanishes; both edge-length routes agree")
def test_criterion_03_vanishing_and_agreement():
    for delta in range(1, 5):
        table = template_coefficients(delta)
        assert table.H == 0
        # once via the eta constant terms, once via the crossing statistics
        from_eta = F(1, 2) * sum(
            t.multiplicity * form.eta[0] for t, form in template_data(delta)
        )
        from_stats = F(-1, 2) * sum(
            t.multiplicity
            * form.zeta0
            * (t.length - t.epsilon0 - t.epsilon1)
            for t, form in template_data(delta)
        )
        assert from_eta == from_stats == table.L


@criterion(4, "series identities; width coefficient at cogenus 3 is 230",
           budget=10.0)
def test_criterion_04_series_cross_check():
    order = 4
    g = dg2(order).revert()
    a = a_series(order)
    assert g == RatSeries([0, *a.coeffs[:order]])
    assert a.coeffs[:4] == (1, -6, 60, -748)
    # the reversion identity pins the cubic width coefficient
    assert template_coefficients(3).A == 230
    for i in range(1, order + 1):
        power = g
        for _ in range(i - 1):
            power = power * g
        logp = partition_series(order).compose(power).log()
        for delta in range(i, order + 1):
            assert logp[delta] == b_coeffs(delta, i)


@criterion(5, "end-vertex correction values")
def test_criterion_05_corrections():
    for p in range(1, 6):
        assert diffq(p, 1) == -p
    for p in range(2, 6):
        assert diffq(p, 2) == F(19 * p, 2) - 9
    for delta in (1, 2, 3):
        assert cor(1, delta) == 0
        assert cor(2, delta) == 0
    assert cor(3, 1) == -1
    assert cor(3, 2) == F(21, 2)


@criterion(6, "plane-curve node counts by all three routes", budget=60.0)
def test_criterion_06_ground_truth():
    for d in (3, 4, 5):
        p = triangle(d)
        expected = 3 * (d - 1) ** 2
        assert n_bruteforce(p, 1) == expected
        assert n_from_q([q_polygon(p, 1)]) == [expected]
        assert n_from_q([q_geometric(p, 1)]) == [expected]
    quartic = triangle(4)
    assert n_bruteforce(quartic, 2) == 225
    assert n_from_q([q_polygon(quartic, d) for d in (1, 2)]) == [27, 225]


@criterion(7, "direct, closed, and geometric counts agree on the corpus",
           budget=600.0)
def test_criterion_07_oracle_equivalence():
    assert_suite("oracle")


@criterion(8, "determinant and Euler-number identities on random polygons")
def test_criterion_08_toric_identities():
    assert_suite("toric")


@criterion(9, "closed product formula at six rational samples", budget=30.0)
def test_criterion_09_product_formula():
    assert_suite("gyz")


@criterion(10, "property slices: orderings, conjugation, bounds, linearity")
def test_criterion_10_property_slices():
    # ordering counts against the enumeration oracle
    graphs = [
        g
        for delta in (1, 2, 3)
        for g in enumerate_graphs(delta, 3)
        if len(g.edges) <= 3
    ]
    assert graphs
    betas = [(3, 3), (5, 5), (3, 3, 3), (5, 2, 4), (2, 5, 5), (1, 3, 5)]
    for g in graphs:
        for beta in betas:
            assert p_beta(g, beta) == brute_force_orderings(g, beta), (g, beta)

    # conjugation identities on every enumerated template
    for delta in (1, 2, 3):
        for t in enumerate_templates(delta):
            c = conjugate(t)
            assert conjugate(c) == t
            assert (c.cogenus, c.multiplicity) == (t.cogenus, t.multiplicity)
            assert (c.epsilon0, c.epsilon1) == (t.epsilon1, t.epsilon0)
            f, fc = fit_linear_phi(t), fit_linear_phi(c)
            assert fc.eta[0] == f.eta[0]
            assert fc.zeta0 == f.zeta0
            assert f.zeta1 + fc.zeta1 == (t.length - 1) * f.zeta0
            assert tuple(fc.eta[1:]) == tuple(reversed(f.eta[1:]))

            # crossing-weight ceilings
            for i in range(1, t.length + 1):
                assert t.olambda(i) <= min(
                    delta,
                    delta - (t.length - i) + t.epsilon1,
                    delta + 1 - i + t.epsilon0,
                )

    # reordering a long-edged polygon shifts the width-level count linearly
    base = TWO_SIDED.beta()
    for delta in (1, 2):
        a = template_coefficients(delta).A
        q0 = q_beta_delta(base, delta)
        for ro in reorderings(TWO_SIDED, 3 - delta):
            assert q_beta_delta(ro.beta, delta) == q0 - 2 * a * ro.cogenus

    # reorderings graded by cogenus follow the partition product
    for p in (TRAPEZOID, TWO_SIDED, SHARP):
        ell = polygon_stats(p).ell
        expected = RatSeries([1] + [0] * ell)
        for v in internal_vertices(p):
            inner = RatSeries([0] * v.det + [1] + [0] * (ell - v.det))
            expected = expected * partition_series(ell).compose(inner)
        counts = Counter(ro.cogenus for ro in reorderings(p, ell))
        assert [counts.get(k, 0) for k in range(ell + 1)] == [
            int(c) for c in expected.coeffs
        ]

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longedge import severi
from longedge.coeffs import (
    b_coeffs,
    cor,
    diffq,
    q_beta_delta,
    template_coefficients,
)
from longedge.graphs import MAX_COGENUS, enumerate_templates
from longedge.polygon import (
    HTPolygon,
    polygon_stats,
    reorderings,
    toric_invariants,
)
from longedge.severi import (
    METHODS,
    _reach,
    n_bruteforce,
    n_from_q,
    q_from_n,
    q_geometric,
    q_polygon,
    report,
    that_delta,
)
from longedge.suites import (
    SHARP,
    TRAPEZOID,
    TWO_SIDED,
    oracle_corpus,
    random_polygon,
    rectangle,
    triangle,
)
from oracles import (
    block_weights,
    chains_by_templates,
    n_by_graphs,
    p_by_walk,
    q_delta_linearized,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def dilated(p: HTPolygon, s: int) -> HTPolygon:
    """p scaled by s: every width and every edge length times s."""
    def rows(chain):
        return tuple(v for v in chain for _ in range(s))

    return HTPolygon(s * p.dt, rows(p.left), rows(p.right))


_rng = random.Random(20261018)
# dilated by 2, so every edge has length >= 2 and the direct count reaches 3
GRAPH_ORACLE_POLYGONS = oracle_corpus() + [
    (f"random polygon {i}, dilated", dilated(random_polygon(_rng), 2))
    for i in range(20)
]


class TestUniversalPolynomials:
    def test_one_node_form(self):
        assert that_delta(1).linear == (
            ("x", Fraction(3)),
            ("y", Fraction(2)),
            ("z", Fraction(0)),
            ("w", Fraction(1)),
            ("s", Fraction(-1)),
        )

    def test_two_node_form(self):
        assert that_delta(2).linear == (
            ("x", Fraction(-21)),
            ("y", Fraction(-39, 2)),
            ("z", Fraction(-3)),
            ("w", Fraction(-7, 2)),
            ("s", Fraction(9, 2)),
            ("s1", Fraction(1)),
        )
        form = that_delta(2)
        assert form.evaluate(1, 2, 3, 4, [5, 6]) == Fraction(-109, 2)
        # missing s_i count as zero, extra ones are ignored
        assert form.evaluate(1, 2, 3, 4, [5]) == form.evaluate(1, 2, 3, 4, [5, 0])
        assert form.evaluate(1, 2, 3, 4, [5, 6, 7]) == Fraction(-109, 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_node_count_on_smooth_plane_curves(self, d):
        q1 = that_delta(1).evaluate(d * d, -3 * d, 9, 3)
        assert n_from_q([q1]) == [3 * (d - 1) ** 2]

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            that_delta(0)


class TestBruteForce:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_node_plane_curves(self, d):
        assert n_bruteforce(triangle(d), 1) == 3 * (d - 1) ** 2

    def test_classical_plane_values(self):
        assert n_bruteforce(triangle(3), 2) == 21
        assert n_bruteforce(triangle(4), 2) == 225
        assert n_bruteforce(triangle(5), 2) == 882
        assert n_bruteforce(triangle(4), 3) == 675
        assert n_bruteforce(triangle(5), 3) == 7915

    def test_pinned_counts(self):
        # computed graph by graph, before the route counted chains of blocks
        assert n_bruteforce(triangle(7), 5) == 33720354
        assert n_bruteforce(TWO_SIDED, 3) == 696463
        assert n_bruteforce(triangle(8), 6) == 3356773532
        # the octic at eight nodes, where the closed and geometric routes agree
        assert n_bruteforce(triangle(8), 8) == 336507128820
        # the decic at eight nodes, by the tuple-state transfer
        assert n_bruteforce(triangle(10), 8) == 59546865647151

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.lists(st.integers(0, 9), min_size=1, max_size=10),
        rest=st.integers(0, 5),
    )
    def test_transfer_matches_template_chain(self, beta, rest):
        import longedge.orderings as orderings

        assert orderings._chains(tuple(beta), rest) == chains_by_templates(beta, rest)

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.lists(st.integers(0, 9), min_size=1, max_size=10),
        rest=st.integers(0, 5),
    )
    def test_transfer_is_mirror_symmetric(self, beta, rest):
        # the end rule treats both ends alike, so mirrored widths share a
        # transfer in _direct_counts
        from longedge.orderings import _chains

        assert _chains(tuple(beta), rest) == _chains(tuple(beta[::-1]), rest)

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.lists(st.integers(0, 20), min_size=1, max_size=8),
        rest=st.integers(6, 8),
    )
    def test_transfer_is_mirror_symmetric_near_full_fields(self, beta, rest):
        # wide gaps at the deepest cogenera, where a gap's crossing field
        # comes near its bound 2 * rest
        from longedge.orderings import _chains

        assert _chains(tuple(beta), rest) == _chains(tuple(beta[::-1]), rest)

    def test_pinned_deep_transfers(self):
        # computed by the transfer that listed every opening at a vertex
        # before it ran; at (16,) * 4 a gap is crossed by weight 16, one
        # more than a 4-bit field holds
        from longedge.orderings import _chains

        assert _chains((16,) * 4, 8) == [
            1, 216, 22015, 1408700, 63524832, 2148377384, 56621893667,
            1193110716180, 20463444524601,
        ]
        assert _chains((9,) * 10, 8)[-1] == 9130318771729521
        assert _chains(tuple(range(0, 25, 3)), 8)[-1] == 42411421293118500

    def test_packed_fields_hold_the_deepest_cogenus(self):
        # a gap is crossed by weight <= 2 * rest and holds <= rest edges, and
        # one field of a packed state must hold both at every allowed
        # cogenus: every multiset of long-edge classes (span, weight) of
        # total cost span * weight - 1 <= budget could cross one gap
        import longedge.orderings as orderings

        assert 2 * MAX_COGENUS <= orderings._MASK
        classes = [
            (span * weight - 1, weight)
            for span in range(1, MAX_COGENUS + 2)
            for weight in range(1, MAX_COGENUS + 2)
            if 1 <= span * weight - 1 <= MAX_COGENUS
        ]

        def crossings(at, budget):
            """(weight, count) of each multiset of classes[at:] within budget."""
            if at == len(classes):
                yield 0, 0
                return
            cost, weight = classes[at]
            for m in range(budget // cost + 1):
                for w, n in crossings(at + 1, budget - m * cost):
                    yield w + m * weight, n + m

        for budget in range(MAX_COGENUS + 1):
            weights, counts = zip(*crossings(0, budget))
            # budget edges (v, v + 1, 2) reach both bounds
            assert max(weights) == 2 * budget
            assert max(counts) == budget

    @pytest.mark.parametrize(
        "p", [p for _, p in GRAPH_ORACLE_POLYGONS],
        ids=[name for name, _ in GRAPH_ORACLE_POLYGONS],
    )
    def test_matches_graph_oracle(self, p):
        top = min(4, _reach(polygon_stats(p).min_edge, "bruteforce"))
        for delta in range(top + 1):
            assert n_bruteforce(p, delta) == n_by_graphs(p, delta), delta

    @pytest.mark.parametrize(
        "p", [p for _, p in oracle_corpus()],
        ids=[name for name, _ in oracle_corpus()],
    )
    def test_one_pass_matches_each_delta(self, p, monkeypatch):
        # report makes one direct pass, which fills each width sequence's
        # chain table to the deepest cogenus and reads the shallower counts
        # from it; n_bruteforce fills its tables to its own delta only
        import longedge.severi as sv

        top = min(5, _reach(polygon_stats(p).min_edge, "bruteforce"))
        each = [n_bruteforce(p, delta) for delta in range(top + 1)]
        passes = []
        direct = sv._direct_counts
        monkeypatch.setattr(
            sv, "_direct_counts", lambda *a: passes.append(a) or direct(*a)
        )
        rep = report(p, top, ("bruteforce",))
        assert passes == [(p, top)]
        assert rep.n["bruteforce"] == each

    def test_block_weights_match_walk_strictness(self):
        # at every shift, the template chain's weight under the end rule
        # against the strict count read off the graph walk; with ell rows
        # or fewer at most one shift fits, and it reaches both ends of the
        # vertex range
        excluded = single = 0
        for d in range(1, 6):
            for t in enumerate_templates(d):
                ell = t.length
                for n in range(max(1, ell - 1), ell + 3):
                    for beta in (
                        (d + 2,) * n,
                        tuple(d + 2 + i % 3 for i in range(n)),
                        tuple(1 + 2 * i % 5 for i in range(n)),  # often too narrow
                        (1,) * n,
                    ):
                        weights = block_weights(t, beta)
                        assert len(weights) == n
                        for k, w in enumerate(weights):
                            g = t.shift(k)
                            expected = t.multiplicity * p_by_walk(g, beta, True)
                            assert w == expected, (t, beta, k)
                            # the end rule excluded a shift the walk allows
                            excluded += not expected and bool(p_by_walk(g, beta, False))
                            single += n == ell and bool(expected)
        assert excluded > 1000 and single > 100

    def test_never_fits(self, monkeypatch):
        # the direct route reads no fitted form, template or P count
        import longedge.coeffs as coeffs
        import longedge.graphs as graphs
        import longedge.orderings as orderings

        def refuse(*args):
            raise AssertionError("the direct route reached the template route")

        monkeypatch.setattr(coeffs, "template_data", refuse)
        monkeypatch.setattr(coeffs, "fit_templates", refuse)
        monkeypatch.setattr(orderings, "fit_templates", refuse)
        monkeypatch.setattr(orderings, "_phis", refuse)
        monkeypatch.setattr(orderings, "fit_linear_phi", refuse)
        monkeypatch.setattr(graphs, "enumerate_templates", refuse)
        monkeypatch.setattr(orderings, "p_counts", refuse)
        assert n_bruteforce(triangle(5), 4) == 36975

    def test_zero_nodes(self):
        for p in (triangle(2), SHARP, TRAPEZOID):
            assert n_bruteforce(p, 0) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError, match="shortest is 1"):
            n_bruteforce(triangle(1), 3)
        with pytest.raises(ValueError):
            n_bruteforce(triangle(2), -1)


class TestClosedForms:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_plane_one_node(self, d):
        assert q_polygon(triangle(d), 1) == 3 * d * d - 6 * d + 3

    @pytest.mark.parametrize("a,b", [(2, 2), (3, 3), (2, 4)])
    def test_quadric_two_nodes(self, a, b):
        expected = -42 * a * b + 39 * (a + b) - 38
        assert q_polygon(rectangle(a, b), 2) == expected
        assert q_geometric(rectangle(a, b), 2) == expected

    def test_singular_example_one_node(self):
        # 3*area - 2*LL + 4 - 3 + v'_1 at area 36, LL 14, v'_1 = 1
        assert q_polygon(SHARP, 1) == 82
        assert q_geometric(SHARP, 1) == 82

    def test_singular_example_engages_end_correction(self):
        inv = toric_invariants(SHARP)
        bare = that_delta(2).evaluate(
            inv.Lsq, inv.LK, inv.Ksq, inv.c2tilde, [inv.S, inv.S_i.get(1, 0)]
        )
        assert cor(3, 2) == Fraction(21, 2)
        assert q_geometric(SHARP, 2) == bare + Fraction(21, 2)
        assert q_geometric(SHARP, 2) == q_polygon(SHARP, 2)

    def test_gorenstein_needs_no_correction(self):
        inv = toric_invariants(TRAPEZOID)
        assert q_geometric(TRAPEZOID, 2) == that_delta(2).evaluate(
            inv.Lsq, inv.LK, inv.Ksq, inv.c2tilde, [inv.S, inv.S_i.get(1, 0)]
        )

    def test_preconditions(self):
        with pytest.raises(ValueError, match="every edge of length >= 2"):
            q_polygon(rectangle(1, 3), 2)
        with pytest.raises(ValueError, match="every edge of length >= 2"):
            q_geometric(rectangle(1, 3), 2)
        with pytest.raises(ValueError):
            q_polygon(triangle(3), 0)

    def test_edge_rule_is_needed_one_node_past_reach(self, monkeypatch):
        # the side-2 triangle's shortest edge is 2, so the closed and
        # geometric forms reach delta = 2 and the direct count delta = 3.
        # Past their reach both forms give N^3 = -32, a count that cannot
        # be, where the direct count gives 0: relaxing the edge rule by one
        # for every polygon would be wrong
        p = triangle(2)
        assert polygon_stats(p).min_edge == 2
        assert _reach(2, "closed") == _reach(2, "geometric") == 2
        direct = [n_bruteforce(p, d) for d in range(4)]
        assert direct == [1, 3, 0, 0]
        monkeypatch.setattr(
            severi, "_require_edges", lambda p, method, delta: polygon_stats(p)
        )
        q = [3, Fraction(-9, 2), -23]
        assert [q_polygon(p, d) for d in (1, 2, 3)] == q
        assert [q_geometric(p, d) for d in (1, 2, 3)] == q
        assert n_from_q(q) == [3, 0, -32] != direct[1:]


class TestMethodAgreement:
    @pytest.mark.parametrize("a,b", [(2, 3), (1, 4)])
    def test_rotation_invariance(self, a, b):
        tall, wide = rectangle(a, b), rectangle(b, a)
        for d in range(1, min(a, b) + 2):
            assert n_bruteforce(tall, d) == n_bruteforce(wide, d)
        for d in range(1, min(a, b) + 1):
            assert q_polygon(tall, d) == q_polygon(wide, d)


class TestWidthLevelIdentities:
    def test_reordering_shifts_by_leading_coefficient(self):
        # extremal edges have length 3, so cogenus c reorderings with
        # c + delta <= 3 move the width-level count by -2 A(delta) c
        p = TWO_SIDED
        base = p.beta()
        for delta in (1, 2):
            a = template_coefficients(delta).A
            q0 = q_beta_delta(base, delta)
            for ro in reorderings(p, 3 - delta):
                assert q_beta_delta(ro.beta, delta) == q0 - 2 * a * ro.cogenus

    @pytest.mark.parametrize(
        "p", [triangle(3), triangle(4), rectangle(3, 3), TRAPEZOID, TWO_SIDED, SHARP]
    )
    def test_end_corrections_bridge_the_linearization(self, p):
        # width-level count = linear form + end corrections, provided the
        # extremal edges, the height, and both end widths clear delta
        stats = polygon_stats(p)
        beta = p.beta()
        ell = min(stats.ell, stats.min_edge)
        for delta in (1, 2):
            if ell < delta or stats.height < delta:
                continue
            if 0 < p.dt < delta or 0 < p.db < delta:
                continue
            assert q_beta_delta(beta, delta) == (
                q_delta_linearized(beta, delta)
                + diffq(stats.tdet, delta)
                + diffq(stats.bdet, delta)
            )

    @pytest.mark.parametrize("p", [triangle(3), rectangle(2, 2), TRAPEZOID, SHARP])
    def test_internal_vertices_shift_q(self, p):
        # per-vertex corrections measure the gap between the polygon count
        # and the width-level count
        stats = polygon_stats(p)
        for delta in (1, 2):
            if stats.min_edge < delta:
                continue
            gap = q_polygon(p, delta) - q_beta_delta(p.beta(), delta)
            assert gap == sum(
                b_coeffs(delta, i) * n for i, n in stats.vprime.items()
            )


class TestTransforms:
    def test_first_orders(self):
        q1, q2, q3 = Fraction(5), Fraction(-3), Fraction(7, 2)
        assert n_from_q([q1]) == [q1]
        assert n_from_q([q1, q2]) == [q1, q2 + q1 * q1 / 2]
        assert n_from_q([q1, q2, q3])[2] == q3 + q1 * q2 + q1**3 / 6

    @given(st.lists(rationals, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_round_trip(self, qs):
        assert q_from_n(n_from_q(qs)) == [Fraction(q) for q in qs]
        assert n_from_q(q_from_n(qs)) == [Fraction(q) for q in qs]


class TestReport:
    def test_plane_quartic_all_methods(self):
        rep = report(triangle(4), 2)
        assert rep.agree is True
        for m in METHODS:
            assert rep.n[m] == [1, 27, 225]
        assert rep.q["closed"] == [27, Fraction(-279, 2)]
        assert rep.skipped == {}
        assert rep.polygon == {"dt": 0, "left": [[0, 4]], "right": [[1, 4]]}

    def test_short_edges_skip_closed_forms_only(self):
        rep = report(rectangle(1, 3), 2)
        assert len(rep.n["bruteforce"]) == 3
        assert len(rep.n["closed"]) == 2
        assert "precondition unmet" in rep.skipped["closed"]["2"]
        assert "precondition unmet" in rep.skipped["geometric"]["2"]
        assert rep.agree is True

    def test_method_subset_and_validation(self):
        rep = report(triangle(3), 1, methods=("closed",))
        assert set(rep.n) == {"closed"}
        with pytest.raises(ValueError, match="unknown method"):
            report(triangle(3), 1, methods=("magic",))
        with pytest.raises(ValueError):
            report(triangle(3), -1)

    @pytest.mark.parametrize("p, n1", [
        (triangle(1500), 3 * 1499**2),
        (HTPolygon(0, (0,) * 750 + (1,) * 750, (1,) * 750 + (0,) * 750), 3369004),
    ], ids=["triangle", "two-sided"])
    def test_tall_polygons(self, p, n1):
        # the reordering walk's depth does not grow with the height
        rep = report(p, 2)
        assert rep.agree is True
        assert rep.skipped == {}
        assert rep.n["bruteforce"][1] == n1

    def test_disagreement_is_reported_not_raised(self, monkeypatch):
        import longedge.severi as sv

        monkeypatch.setattr(sv, "q_geometric", lambda p, d: Fraction(999))
        rep = sv.report(triangle(3), 1)
        assert rep.agree is False
        assert rep.disagreements[0]["kind"] in {"n", "q"}
        assert "999" in rep.disagreements[0]["values"]["geometric"]

import itertools
from collections import Counter
from fractions import Fraction
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from longedge.polygon import (
    MAX_HEIGHT,
    HTPolygon,
    beta_stats,
    from_directions,
    from_vertices,
    internal_vertices,
    polygon_from_dict,
    polygon_stats,
    polygon_to_dict,
    reorderings,
    toric_invariants,
)
from longedge.series import RatSeries, partition_series_in_power
from longedge.suites import SHARP, TRAPEZOID, TWO_SIDED, rectangle, triangle

from oracles import recombine_vlocal, reversal_cogenus, vlocal_decompose


@st.composite
def polygons(draw, max_height=5, span=3):
    m = draw(st.integers(1, max_height))
    dt = draw(st.integers(0, span))
    left = sorted(draw(st.lists(st.integers(-span, span), min_size=m, max_size=m)))
    right = sorted(
        draw(st.lists(st.integers(-span, span), min_size=m, max_size=m)),
        reverse=True,
    )
    widths = list(
        itertools.accumulate([dt] + [r - l for l, r in zip(left, right)])
    )
    assume(min(widths) >= 0 and max(widths) > 0)
    return HTPolygon(dt, tuple(left), tuple(right))


class TestConstruction:
    def test_basic_fields(self):
        p = SHARP
        assert p.height == 4
        assert p.db == 6
        assert p.beta() == (0, 3, 6, 6, 6)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            HTPolygon(-1, (0,), (0,))
        with pytest.raises(ValueError, match="differ in length"):
            HTPolygon(1, (0,), (0, 0))
        with pytest.raises(ValueError, match="height at least 1"):
            HTPolygon(1, (), ())
        with pytest.raises(ValueError, match="nondecreasing"):
            HTPolygon(1, (1, 0), (0, 0))
        with pytest.raises(ValueError, match="nonincreasing"):
            HTPolygon(1, (0, 0), (0, 1))
        with pytest.raises(ValueError, match="go negative"):
            HTPolygon(0, (1, 1), (0, 0))
        with pytest.raises(ValueError, match="zero-area"):
            HTPolygon(0, (0, 0), (0, 0))

    def test_from_directions_sorts_runs(self):
        p = from_directions(0, [[0, 2], [-1, 2]], [[0, 2], [2, 2]])
        assert p == SHARP
        with pytest.raises(ValueError, match="positive"):
            from_directions(1, [[0, 0]], [[0, 0]])

    def test_from_vertices_triangle_any_orientation(self):
        assert from_vertices([(0, 0), (3, 0), (0, 3)]) == triangle(3)
        assert from_vertices([(0, 0), (0, 3), (3, 0)]) == triangle(3)
        assert from_vertices([(5, 7), (8, 7), (5, 10)]) == triangle(3)

    def test_from_vertices_merges_collinear(self):
        p = from_vertices([(0, 0), (1, 0), (3, 0), (3, 2), (0, 2), (0, 1)])
        assert p == rectangle(3, 2)

    def test_from_vertices_errors(self):
        with pytest.raises(ValueError, match="three distinct"):
            from_vertices([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="zero area"):
            from_vertices([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(ValueError, match="not convex"):
            from_vertices([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])
        with pytest.raises(ValueError, match=r"edge \(2, 0\) -> \(3, 2\)"):
            from_vertices([(0, 0), (2, 0), (3, 2), (0, 2)])
        # each corner turns left, but the boundary is not a convex polygon
        with pytest.raises(ValueError, match=r"\(2, -3\): the boundary doubles back"):
            from_vertices([(4, -4), (4, -3), (2, -3), (3, -3), (3, -2), (-4, -3)])
        with pytest.raises(ValueError, match="turns around 2 times"):
            from_vertices([(2, -1), (-4, 1), (0, 0), (-4, -2), (-4, 2)])

    def test_from_vertices_rejects_non_lattice_polygons(self, monkeypatch):
        with pytest.raises(TypeError, match="vertex x must be an integer"):
            from_vertices([(0, 0), (1, 0), (Fraction(1, 2), 1)])
        # With integral vertices the h-transverse check already keeps every
        # boundary point at an integral height integral; switch it off to
        # reach the integrality check behind it, which must hold under -O.
        monkeypatch.setattr("longedge.polygon.gcd", lambda a, b: b)
        with pytest.raises(ValueError, match=r"not a lattice polygon: edge \(3, 0\)"):
            from_vertices([(0, 0), (3, 0), (0, 2)])

    @given(polygons())
    def test_vertices_round_trip(self, p):
        assert from_vertices(p.vertices()) == p

    def test_dict_round_trip(self):
        data = polygon_to_dict(SHARP)
        assert data == {
            "dt": 0,
            "left": [[-1, 2], [0, 2]],
            "right": [[2, 2], [0, 2]],
        }
        assert polygon_from_dict(data) == SHARP
        assert polygon_from_dict({"vertices": [[0, 0], [3, 0], [0, 3]]}) == triangle(3)
        with pytest.raises(ValueError, match="polygon JSON"):
            polygon_from_dict({"dt": 1})

    def test_dict_errors_name_the_field(self):
        for data, field in (
            ({"dt": 0, "left": 5, "right": [[1, 3]]}, "left runs"),
            ({"dt": 0, "left": [[0, 3]], "right": 5}, "right runs"),
            ({"vertices": 5}, "vertices"),
        ):
            with pytest.raises(ValueError, match=f"{field} must be a list, not 5"):
                polygon_from_dict(data)
        both = {"vertices": [[0, 0], [3, 0], [0, 3]], **polygon_to_dict(triangle(3))}
        with pytest.raises(ValueError, match="not both"):
            polygon_from_dict(both)

    def test_height_limit(self):
        # refused from the run lengths or the y-range, before any row exists
        top = from_directions(0, [[0, MAX_HEIGHT]], [[1, MAX_HEIGHT]])
        assert top == triangle(MAX_HEIGHT)
        with pytest.raises(ValueError, match=f"left runs span {MAX_HEIGHT + 1} rows"):
            from_directions(0, [[0, MAX_HEIGHT], [1, 1]], [[1, MAX_HEIGHT], [0, 1]])
        with pytest.raises(ValueError, match="right runs span 100000000 rows"):
            from_directions(0, [[0, 3]], [[1, 10**8]])
        for tall in (MAX_HEIGHT + 1, 10**8):
            with pytest.raises(ValueError, match=f"vertices span {tall} rows"):
                from_vertices([(0, 0), (tall, 0), (0, tall)])


class TestStats:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_triangle(self, d):
        s = polygon_stats(triangle(d))
        assert (s.area, s.ll, s.height) == (d * d, 3 * d, d)
        assert (s.det, s.tdet, s.bdet, s.idet) == (3, 1, 0, 0)
        assert s.v == {1: 3} and s.vprime == {}
        assert s.min_edge == d and s.ell == inf

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 2), (4, 4)])
    def test_rectangle(self, a, b):
        s = polygon_stats(rectangle(a, b))
        assert (s.area, s.ll, s.height) == (2 * a * b, 2 * a + 2 * b, b)
        assert (s.det, s.tdet, s.bdet) == (4, 0, 0)
        assert s.min_edge == min(a, b) and s.ell == inf

    def test_top_vertex_determinant_adds_slopes(self):
        # adjacent top normals (1, a) and (-1, b) meet with determinant a + b
        a, b = 2, 3
        p = HTPolygon(0, (-b, -b), (a, a))
        assert polygon_stats(p).tdet == a + b

    def test_sharp_example(self):
        s = polygon_stats(SHARP)
        assert (s.area, s.ll, s.idet) == (36, 14, 3)
        assert (s.det, s.tdet, s.bdet) == (8, 3, 0)
        assert s.v == {1: 3, 2: 1, 3: 1}
        assert s.vprime == {1: 1, 2: 1}
        assert s.min_edge == 2 and s.ell == 2
        assert internal_vertices(SHARP) == (
            ("left", 2, 1),
            ("right", 2, 2),
        )

    @given(polygons())
    def test_matches_width_sequence_stats(self, p):
        s = polygon_stats(p)
        bs = beta_stats(p.beta())
        assert (s.area, s.ll, s.idet) == (bs.area, bs.ll, bs.idet)
        assert s.height == len(p.left)
        assert s.det == s.idet + s.tdet + s.bdet + 2 * (p.dt > 0) + 2 * (p.db > 0)

    @given(polygons())
    def test_width_lower_bound(self, p):
        # nonconstant widths stay above the smaller of the two end ramps
        # and the shortest edge touching an internal vertex
        beta = p.beta()
        assume(len(set(beta)) > 1)
        s = polygon_stats(p)
        edge_floor = s.ell if s.ell != inf else max(beta)
        m = len(p.left)
        for i, width in enumerate(beta):
            assert width >= min(p.dt + i, edge_floor, p.db + m - i)


class TestToric:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_projective_plane_multiples(self, d):
        t = toric_invariants(triangle(d))
        assert (t.Lsq, t.LK, t.Ksq, t.c2) == (d * d, -3 * d, 9, 3)
        assert t.S_i == {} and t.S == 0
        assert t.c2tilde == 3 and t.gorenstein

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3)])
    def test_quadric_multiples(self, a, b):
        t = toric_invariants(rectangle(a, b))
        assert (t.Lsq, t.LK, t.Ksq, t.c2) == (2 * a * b, -2 * (a + b), 8, 4)
        assert t.S == 0 and t.gorenstein

    def test_sharp_example(self):
        t = toric_invariants(SHARP)
        assert t.Ksq == Fraction(16, 3)
        assert t.S_i == {1: 1, 2: 1} and t.S == 5
        assert not t.gorenstein
        assert t.c2 == 5 and t.c2tilde == 8

    @given(polygons())
    def test_gorenstein_canonical_square_is_integral(self, p):
        t = toric_invariants(p)
        if t.gorenstein:
            assert t.Ksq.denominator == 1


class TestReorderings:
    def test_constant_chains_only_default(self):
        got = list(reorderings(triangle(3), 5))
        assert got == [((0, 0, 0), (1, 1, 1), 0, (0, 1, 2, 3))]

    def test_small_example(self):
        p = HTPolygon(0, (0, 0, 0), (1, 1, 0))
        assert [(ro.right, ro.cogenus) for ro in reorderings(p, 2)] == [
            ((1, 1, 0), 0),
            ((1, 0, 1), 1),
            ((0, 1, 1), 2),
        ]
        assert [ro.cogenus for ro in reorderings(p, 1)] == [0, 1]
        with pytest.raises(ValueError):
            next(reorderings(p, -1))

    def test_negative_width_reorderings_are_dropped(self):
        # swapping the right directions would dip the middle width below zero
        p = HTPolygon(0, (0, 0), (1, -1))
        assert [ro.right for ro in reorderings(p, 9)] == [(1, -1)]

    def test_reversal_cogenus_checks_multiset(self):
        with pytest.raises(ValueError, match="not a reordering"):
            reversal_cogenus(triangle(3), (0, 0, 0), (1, 1, 2))

    @given(polygons(max_height=4, span=2))
    @settings(max_examples=40, deadline=None)
    def test_cogenus_is_width_deficit(self, p):
        # each reordering's cogenus equals the total width it removes
        beta = p.beta()
        for ro in reorderings(p, 3):
            assert ro.cogenus == reversal_cogenus(p, ro.left, ro.right)
            assert ro.cogenus == sum(b - c for b, c in zip(beta, ro.beta))

    @given(polygons(max_height=4, span=2))
    @settings(max_examples=25, deadline=None)
    def test_adjacent_swap_drops_cogenus_by_gap(self, p):
        for ro in reorderings(p, 2):
            r = list(ro.right)
            for i in range(len(r) - 1):
                if r[i] < r[i + 1]:
                    swapped = r[:i] + [r[i + 1], r[i]] + r[i + 2 :]
                    assert (
                        reversal_cogenus(p, ro.left, swapped)
                        == ro.cogenus - (r[i + 1] - r[i])
                    )

    @pytest.mark.parametrize(
        "p",
        [
            HTPolygon(2, (0, 0, 0, 0, 0, 0), (2, 2, 2, 0, 0, 0)),
            HTPolygon(2, (0, 0, 0, 1, 1, 1), (2, 2, 2, 0, 0, 0)),
            HTPolygon(0, (-1, -1, -1, 0, 0, 0), (1, 1, 1, 1, 0, 0)),
        ],
    )
    def test_counts_match_partition_product(self, p):
        # up to the shortest internal or extremal edge, reorderings are
        # counted by the product of partition series in det-th powers
        ell = polygon_stats(p).ell
        assert ell != inf
        expected = RatSeries([1] + [0] * ell)
        for v in internal_vertices(p):
            expected = expected * partition_series_in_power(ell, v.det)
        counts = Counter(ro.cogenus for ro in reorderings(p, ell))
        assert [counts.get(k, 0) for k in range(ell + 1)] == [
            int(c) for c in expected.coeffs
        ]


class TestVLocal:
    @pytest.mark.parametrize("p,budget", [(TRAPEZOID, 4), (TWO_SIDED, 3)])
    def test_round_trip_and_additivity(self, p, budget):
        seen = set()
        for ro in reorderings(p, budget):
            pieces = vlocal_decompose(p, (ro.left, ro.right))
            assert sum(piece.cogenus for piece in pieces) == ro.cogenus
            assert recombine_vlocal(p, pieces) == (ro.left, ro.right)
            assert pieces not in seen
            seen.add(pieces)

    def test_single_vertex_pieces_are_bounded_words(self):
        # the det-2 vertex sees every word in two 2s and two 0s exactly once,
        # graded by twice the low-high pair count
        p = TRAPEZOID
        by_cogenus = Counter()
        for ro in reorderings(p, 8):
            (piece,) = vlocal_decompose(p, (ro.left, ro.right))
            assert piece.vertex == ("right", 2, 2)
            by_cogenus[piece.cogenus] += 1
        assert by_cogenus == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}

    def test_decompose_needs_long_internal_edges(self):
        # the middle run has length 1, shorter than the cogenus 2 reordering
        p = HTPolygon(3, (0, 0, 0), (2, 1, 0))
        with pytest.raises(ValueError, match="decomposition not guaranteed"):
            vlocal_decompose(p, ((0, 0, 0), (1, 0, 2)))

    def test_recombine_rejects_bad_pieces(self):
        p = TRAPEZOID
        (piece,) = vlocal_decompose(p, ((0, 0, 0, 0), (2, 0, 2, 0)))
        with pytest.raises(ValueError, match="missing piece"):
            recombine_vlocal(p, ())
        with pytest.raises(ValueError, match="wrong letters"):
            recombine_vlocal(p, (piece._replace(word=(2, 2, 2, 0)),))

    def test_recombine_rejects_inconsistent_pieces(self):
        # three runs on the right: words demanding 1s above the 2s but 0s
        # above the 1s would force a 0 above a 2, breaking the far-pair order
        p = HTPolygon(0, (0,) * 6, (2, 2, 1, 1, 0, 0))
        pieces = vlocal_decompose(p, (p.left, p.right))
        bad = tuple(
            piece._replace(word=tuple(sorted(piece.word))) for piece in pieces
        )
        with pytest.raises(ValueError, match="no merge order"):
            recombine_vlocal(p, bad)

import pytest

from longedge.graphs import (
    MAX_COGENUS,
    Edge,
    LongEdgeGraph,
    Template,
    conjugate,
    enumerate_templates,
)
from longedge.reference import TABLE1

from oracles import enumerate_graphs, templates_by_filter

# the three graphs of the running example: G2 is G1 shifted by 3
G1 = LongEdgeGraph([(0, 1, 2), (0, 2, 1)])
G2 = LongEdgeGraph([(3, 4, 2), (3, 5, 1)])
G3 = LongEdgeGraph([(3, 4, 2), (3, 5, 1), (5, 6, 2)])


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(2, 1, 1)
    with pytest.raises(ValueError):
        Edge(0, 1, 0)
    with pytest.raises(ValueError):
        Edge(0, 1, 1)  # short edge
    with pytest.raises(ValueError):
        Edge(-1, 1, 2)
    assert Edge(0, 1, 2).cogenus == 1
    assert Edge(0, 3, 2).span == 3


def test_multiplicity_and_cogenus():
    assert LongEdgeGraph().multiplicity == 1
    assert LongEdgeGraph().cogenus == 0
    assert G1.multiplicity == 4 and G2.multiplicity == 4
    assert G1.cogenus == 2 and G2.cogenus == 2
    assert G3.multiplicity == 16
    assert G3.cogenus == 3


def test_minv_maxv_length():
    assert (G2.minv, G2.maxv, G2.length) == (3, 5, 2)
    assert LongEdgeGraph([(0, 1, 2)]).length == 1
    assert LongEdgeGraph([(0, 3, 1)]).length == 3
    for prop in ("minv", "maxv", "length"):
        with pytest.raises(ValueError, match="empty"):
            getattr(LongEdgeGraph(), prop)


def test_lambda_and_olambda():
    g = LongEdgeGraph([(0, 1, 3)])
    assert g.lambda_(1) == 3 and g.olambda(1) == 2
    arc = LongEdgeGraph([(0, 2, 1)])
    assert (arc.lambda_(1), arc.lambda_(2)) == (1, 1)
    assert (arc.olambda(1), arc.olambda(2)) == (1, 1)
    double = LongEdgeGraph([(0, 1, 2), (0, 1, 2)])
    assert double.lambda_(1) == 4 and double.olambda(1) == 2
    assert arc.lambda_(5) == 0  # beyond maxv


def test_table1_lambda_columns():
    for row in TABLE1:
        g = LongEdgeGraph(row["edges"])
        assert tuple(g.lambda_(j) for j in range(1, g.length + 1)) == row["lam"]
        assert tuple(g.olambda(j) for j in range(1, g.length + 1)) == row["olam"]
        assert (g.epsilon0, g.epsilon1) == (row["eps0"], row["eps1"])
        assert g.multiplicity == row["mu"]
        assert g.cogenus == row["delta"]
        assert g.length == row["ell"]


def test_shift():
    assert G1.shift(3) == G2
    assert G1.shift(0) == G1
    assert G1.shift(1).shift(2) == G1.shift(3)
    assert G1.shift(2).cogenus == G1.cogenus
    assert G1.shift(2).multiplicity == G1.multiplicity
    with pytest.raises(ValueError):
        G1.shift(-1)


def test_template_predicates():
    assert G1.is_template()
    assert not G2.is_template() and G2.is_shifted_template()
    assert not G3.is_shifted_template()
    with pytest.raises(ValueError):
        Template(G3.edges)


def test_conjugate():
    sym = Template([(0, 1, 2)])
    assert conjugate(sym) == sym
    left = LongEdgeGraph([(0, 2, 1), (0, 1, 2)])
    right = LongEdgeGraph([(0, 2, 1), (1, 2, 2)])
    assert conjugate(left) == right
    assert conjugate(conjugate(left)) == left
    assert isinstance(conjugate(Template(left.edges)), Template)


def test_conjugate_preserves_invariants():
    for delta in (1, 2, 3):
        for t in enumerate_templates(delta):
            c = conjugate(t)
            assert (c.cogenus, c.multiplicity, c.length) == (
                t.cogenus,
                t.multiplicity,
                t.length,
            )
            assert (c.epsilon0, c.epsilon1) == (t.epsilon1, t.epsilon0)


def test_enumerate_graphs_small():
    assert set(enumerate_graphs(1, 2)) == {
        LongEdgeGraph([(0, 1, 2)]),
        LongEdgeGraph([(1, 2, 2)]),
        LongEdgeGraph([(0, 2, 1)]),
    }
    assert set(enumerate_graphs(1, 1)) == {LongEdgeGraph([(0, 1, 2)])}
    assert set(enumerate_graphs(2, 1)) == {
        LongEdgeGraph([(0, 1, 3)]),
        LongEdgeGraph([(0, 1, 2), (0, 1, 2)]),
    }
    assert enumerate_graphs(0, 5) == []


def test_enumerate_graphs_no_duplicates():
    gs = enumerate_graphs(3, 4)
    assert len(gs) == len(set(gs))
    assert all(g.cogenus == 3 for g in gs)
    assert all(g.maxv <= 4 for g in gs)


@pytest.mark.parametrize("delta", [1, 2, 3, 4])
def test_enumerate_graphs_in_canonical_order(delta):
    # depth-first order is canonical without a final sort, on vertex ranges
    # wider than any template's
    for max_vertex in (delta + 2, delta + 4):
        keys = [g.edges for g in enumerate_graphs(delta, max_vertex)]
        assert all(a < b for a, b in zip(keys, keys[1:])), max_vertex


def test_enumerate_templates_delta1():
    assert [t.edges for t in enumerate_templates(1)] == [
        (Edge(0, 1, 2),),
        (Edge(0, 2, 1),),
    ]


def test_enumerate_templates_delta2_matches_frozen_rows():
    got = {t.edges for t in enumerate_templates(2)}
    expected = {
        tuple(sorted(Edge(*e) for e in row["edges"]))
        for row in TABLE1
        if row["delta"] == 2
    }
    assert got == expected
    assert len(got) == 7


def test_enumerate_templates_properties():
    for delta in (1, 2, 3):
        ts = enumerate_templates(delta)
        assert len(ts) == len(set(ts))
        assert all(t.is_template() for t in ts)
        assert {conjugate(t) for t in ts} == set(ts)


@pytest.mark.parametrize("delta", [0, 1, 2, 3, 4, 5])
def test_enumerate_templates_matches_filtered_graphs(delta):
    # the pruned generator gives the same list, in the same order, as
    # filtering every graph on delta+2 vertices
    got = enumerate_templates(delta)
    expected = templates_by_filter(delta)
    assert [t.edges for t in got] == [t.edges for t in expected]
    assert all(type(t) is Template for t in got)


def test_template_counts():
    counts = [len(enumerate_templates(delta)) for delta in range(1, 8)]
    assert counts == [2, 7, 26, 102, 414, 1711, 7135]


def test_enumerate_templates_refuses_out_of_reach_cogenus():
    assert MAX_COGENUS == 8
    with pytest.raises(ValueError, match="cogenus 9 is out of reach: at most 8"):
        enumerate_templates(MAX_COGENUS + 1)


def test_template_crossing_weight_bounds():
    # reduced crossing weights obey the cogenus-based ceilings
    for delta in (1, 2, 3):
        for t in enumerate_templates(delta):
            ell = t.length
            for i in range(1, ell + 1):
                bound = min(
                    delta,
                    delta - (ell - i) + t.epsilon1,
                    delta + 1 - i + t.epsilon0,
                )
                assert t.olambda(i) <= bound

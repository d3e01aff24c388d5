"""The package's records: immutable, and validated however they are built.

Most records are NamedTuples, so they index, iterate and compare like the
plain tuple of their fields.  The graphs are slotted classes that compare
only with other graphs.
"""

import copy
import pickle

import pytest

from longedge.coeffs import template_coefficients
from longedge.graphs import Edge, LongEdgeGraph, Template
from longedge.orderings import LinearForm, fit_linear_phi
from longedge.polygon import HTPolygon, polygon_stats, toric_invariants
from longedge.severi import report, that_delta
from longedge.suites import SHARP, triangle

RECORDS = {
    "Edge": lambda: Edge(0, 2),
    "LongEdgeGraph": lambda: LongEdgeGraph([(0, 2, 1)]),
    "Template": lambda: Template([(0, 1, 2)]),
    "LinearForm": lambda: fit_linear_phi(Template([(0, 1, 2)])),
    "CoeffTable": lambda: template_coefficients(1),
    "HTPolygon": lambda: SHARP,
    "PolygonStats": lambda: polygon_stats(SHARP),
    "ToricInvariants": lambda: toric_invariants(SHARP),
    "UniversalPolynomial": lambda: that_delta(1),
    "NodeCountReport": lambda: report(triangle(3), 1),
}

GRAPH_FIELDS = ("edges", "multiplicity", "cogenus", "minv", "maxv", "epsilon0", "epsilon1")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    fields = getattr(record, "_fields", GRAPH_FIELDS)
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_copy_and_pickle(name):
    record = RECORDS[name]()
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Edge(0, 2)._replace(hi=0), ValueError, "lo < hi"),
        (lambda: Edge(0, 2)._replace(weight=0), ValueError, "positive"),
        (lambda: Edge._make((0, 1, 1)), ValueError, "length-1 weight-1"),
        (lambda: SHARP._replace(dt=-1), ValueError, "nonnegative"),
        (lambda: SHARP._replace(left=(0, -1, 0, 0)), ValueError, "nondecreasing"),
        (lambda: SHARP._replace(right="ab"), TypeError, "right direction"),
        (lambda: HTPolygon._make((1, (0,), (0, 0))), ValueError, "differ in length"),
        (lambda: HTPolygon._make((0, (0, 0), (0, 0))), ValueError, "zero-area"),
    ],
)
def test_replace_and_make_validate(build, error, match):
    # _make and _replace must not build a record the constructor refuses
    with pytest.raises(error, match=match):
        build()


def test_replace_and_make_build_valid_records():
    assert Edge(0, 2)._replace(weight=3) == Edge(0, 2, 3)
    assert type(Edge._make((0, 1, 2))) is Edge
    wider = SHARP._replace(dt=2)
    assert type(wider) is HTPolygon and wider.beta() == (2, 5, 8, 8, 8)


def test_records_are_tuples_and_graphs_are_not():
    edge = Edge(0, 2)
    assert edge == (0, 2, 1) and edge[1] == 2 and tuple(edge) == (0, 2, 1)
    assert hash(edge) == hash((0, 2, 1))
    form = LinearForm(1, 2, 3, 4)
    assert form == (1, 2, 3, 4) and form.zeta2 == 4
    assert list(SHARP) == [0, (-1, -1, 0, 0), (2, 2, 0, 0)]
    graph = LongEdgeGraph([(0, 2, 1)])
    assert graph == Template([(0, 2, 1)]) and graph != graph.edges
    assert hash(graph) == hash(((0, 2, 1),))

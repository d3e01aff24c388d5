"""Named verification suites, shared by `longedge verify` and the tests.

Each suite returns (label, ok) pairs; SUITES maps the command line's names
to them.  The polygons, samples and random polygons that the suites and the
tests share are defined here, once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .coeffs import cor_doubleprime, template_coefficients, template_data
from .graphs import check_cogenus
from .polygon import HTPolygon, polygon_stats, toric_invariants
from .reference import COEFF_ROWS, TABLE1
from .series import gyz_check
from .severi import METHODS, _reach, n_bruteforce, report

Check = tuple[str, bool]


def triangle(d: int) -> HTPolygon:
    """The plane triangle of side d: P^2 with O(d)."""
    return HTPolygon(0, (0,) * d, (1,) * d)


def rectangle(a: int, b: int) -> HTPolygon:
    """The rectangle a wide and b tall: P^1 x P^1 with O(a, b)."""
    return HTPolygon(a, (0,) * b, (0,) * b)


def weighted_triangle(a: int, b: int) -> HTPolygon:
    """The triangle (0, b), (0, 0), (ab, 0): the weighted plane P(1, 1, a),
    whose top vertex has determinant a, a singular point for a >= 2."""
    return HTPolygon(0, (0,) * b, (a,) * b)


# widths 2, 4, 6, 6, 6: one internal vertex, of determinant 2
TRAPEZOID = HTPolygon(2, (0, 0, 0, 0), (2, 2, 0, 0))
# widths 0, 3, 6, 6, 6: a top vertex of determinant 3, not Gorenstein
SHARP = HTPolygon(0, (-1, -1, 0, 0), (2, 2, 0, 0))
# widths 2, 4, 6, 8, 7, 6, 5: internal vertices on both chains
TWO_SIDED = HTPolygon(2, (0, 0, 0, 1, 1, 1), (2, 2, 2, 0, 0, 0))

# (x, y, z, w, s, (s_1, ...)) points for the closed product formula
GYZ_SAMPLES: tuple[tuple, ...] = (
    (1, 0, 0, 0, 0, ()),
    (0, 1, 0, 0, 0, ()),
    (0, 0, 1, 0, 0, ()),
    (0, 0, 0, 1, 0, ()),
    (Fraction(1, 2), Fraction(-1, 3), 2, -1, 1, (Fraction(2, 3),)),
    (3, -2, Fraction(5, 6), 4, Fraction(-1, 2), (1, Fraction(1, 4))),
)


def random_polygon(rng: random.Random) -> HTPolygon:
    """A random polygon of height 1..5 with directions in -3..3."""
    while True:
        m = rng.randint(1, 5)
        dt = rng.randint(0, 3)
        left = sorted(rng.randint(-3, 3) for _ in range(m))
        right = sorted((rng.randint(-3, 3) for _ in range(m)), reverse=True)
        try:
            return HTPolygon(dt, tuple(left), tuple(right))
        except ValueError:
            continue


def _depth(order: int | None) -> int:
    depth = 3 if order is None else order
    if depth < 1:
        raise ValueError("order must be at least 1")
    check_cogenus(depth)
    return depth


def table1() -> list[Check]:
    """Templates of cogenus 1 and 2 against TABLE1, every column."""
    checks: list[Check] = []
    computed = {}
    for delta in (1, 2):
        data = template_data(delta)
        expected = sum(ref["delta"] == delta for ref in TABLE1)
        checks.append((f"delta={delta}: {expected} templates", len(data) == expected))
        for t, form in data:
            computed[tuple(sorted((e.lo, e.hi, e.weight) for e in t.edges))] = (t, form)
    for ref in TABLE1:
        key = tuple(sorted(ref["edges"]))
        if key not in computed:
            checks.append((f"template {list(key)}: present", False))
            continue
        t, (eta0, z0, z1, z2) = computed[key]
        gaps = range(1, t.length + 1)
        # eta_1..eta_ell from the moments, exact for ell <= 3, as here
        eta = (eta0, z0 - z1 + z2, z1 - 2 * z2, z2)[: t.length + 1]
        row = dict(
            edges=ref["edges"], delta=t.cogenus, ell=t.length, mu=t.multiplicity,
            eps0=t.epsilon0, eps1=t.epsilon1, lam=tuple(map(t.lambda_, gaps)),
            olam=tuple(map(t.olambda, gaps)), eta=eta, zeta0=z0, zeta1=z1, zeta2=z2,
        )
        checks.append((f"template {list(key)}", row == ref))
    return checks


def coeffs(order: int | None = None) -> list[Check]:
    """Coefficient tables against the frozen rows, and H = 0 at every
    cogenus.  Building a table also checks that the two routes to L agree."""
    checks: list[Check] = []
    for delta in range(1, _depth(order) + 1):
        table = template_coefficients(delta).as_dict()
        if delta in COEFF_ROWS:
            checks.append((f"delta={delta}: frozen row", table == COEFF_ROWS[delta]))
        checks.append((f"delta={delta}: H = 0", Fraction(table["H"]) == 0))
    return checks


def gyz(order: int | None = None) -> list[Check]:
    """The closed product formula at every sample point."""
    top = _depth(order)
    return [
        (f"order {top} at (x,y,z,w,s,...) = {sample}", gyz_check(top, *sample))
        for sample in GYZ_SAMPLES
    ]


def oracle_corpus() -> list[tuple[str, HTPolygon]]:
    """Smooth, Gorenstein and singular polygons, some with internal vertices."""
    sizes = ((1, 1), (2, 2), (2, 3), (3, 3), (4, 4))
    return [
        *((f"triangle side {d}", triangle(d)) for d in range(1, 6)),
        *((f"weighted triangle a={a} b={b}", weighted_triangle(a, b))
          for a in range(2, 5) for b in range(a, 5)),
        *((f"rectangle {a}x{b}", rectangle(a, b)) for a, b in sizes),
        ("trapezoid", TRAPEZOID),
        ("sharp", SHARP),
        ("two-sided", TWO_SIDED),
    ]


def oracle() -> list[Check]:
    """The three routes agree on every corpus polygon, as deep as its
    shortest edge allows up to delta = 5, with no count skipped."""
    checks: list[Check] = []
    for name, p in oracle_corpus():
        min_edge = polygon_stats(p).min_edge
        top = min(5, *(_reach(min_edge, m) for m in METHODS))
        rep = report(p, top)
        direct = n_bruteforce(p, 0) == 1 and rep.n["bruteforce"] == rep.n["closed"]
        geometric = rep.q["geometric"] == rep.q["closed"]
        for route, ok in (("direct count", direct), ("geometric form", geometric)):
            label = f"{name}: {route} matches closed form through delta={top}"
            checks.append((label, ok and not rep.skipped))
    return checks


def toric() -> list[Check]:
    """Vertex-determinant and Euler-number identities on 50 random polygons."""
    rng = random.Random(20260814)
    checks: list[Check] = []
    for index in range(50):
        p = random_polygon(rng)
        t, stats = toric_invariants(p), polygon_stats(p)
        ends = cor_doubleprime(stats.tdet) + cor_doubleprime(stats.bdet)
        blown_up = t.c2 + sum(i * n for i, n in t.S_i.items())
        checks += [
            (f"polygon {index}: corner determinants sum to 12 - K^2 + corrections",
             stats.det == 12 - t.Ksq + ends),
            (f"polygon {index}: blown-up Euler number", t.c2tilde == blown_up),
        ]
    return checks


class Suite(NamedTuple):
    """A suite's checks; one that takes a depth is called with it (or with
    no argument, for its default), one that does not is called bare."""

    run: Callable[..., list[Check]]
    takes_depth: bool


SUITES: dict[str, Suite] = {
    "table1": Suite(table1, takes_depth=False),
    "coeffs": Suite(coeffs, takes_depth=True),
    "gyz": Suite(gyz, takes_depth=True),
    "oracle": Suite(oracle, takes_depth=False),
    "toric": Suite(toric, takes_depth=False),
}

"""h-transverse lattice polygons and the invariants of their toric surfaces.

A polygon is stored as its top width together with the per-height left and
right boundary directions, read top to bottom.  The right directions are
nonincreasing and the left ones nondecreasing; that is the default ordering,
and convexity of the polygon is equivalent to it.  The width sequence and
the boundary reorderings are derived from this data.  Every other invariant
comes from one list of boundary edges: the rays of the surface's fan, each
with its edge's lattice length.  The corners are the running sums of the
edges, and a corner's determinant, the determinant of its two rays, is the
index of the surface's cyclic quotient singularity there.  The vertex
statistics, the edge lengths and K^2 of the surface are read from that list.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, inf
from typing import Iterator, NamedTuple, Sequence

from .graphs import _int
from .orderings import BetaSeq, beta_from_divergence


def _int_seq(values: Sequence[int], what: str) -> tuple[int, ...]:
    return tuple(_int(v, what) for v in values)


def _items(value: object, what: str) -> Iterator[object]:
    """The items of a list input; a value that is not one is rejected by name."""
    try:
        return iter(value)
    except TypeError:
        raise TypeError(f"{what} must be a list, not {value!r}") from None


# Rows are expanded one by one, so a height read from the input is bounded
# before any row exists; the closed route takes about 0.5 s at this height.
MAX_HEIGHT = 100_000


def _check_height(rows: int, what: str) -> None:
    if rows > MAX_HEIGHT:
        raise ValueError(f"{what} span {rows} rows; at most {MAX_HEIGHT} are supported")


def _pair(item: object, what: str) -> tuple[object, object]:
    """A two-item input; anything else is rejected by name."""
    try:
        first, second = item
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a pair, not {item!r}") from None
    return first, second


class _HTPolygonFields(NamedTuple):
    dt: int
    left: tuple[int, ...]
    right: tuple[int, ...]


class HTPolygon(_HTPolygonFields):
    """Convex lattice polygon whose non-horizontal edges have unit height step.

    dt is the top width; left[i] and right[i] are the horizontal moves of the
    two boundary chains between heights i and i+1 below the top.
    """

    __slots__ = ()

    def __new__(cls, dt: int, left: Sequence[int], right: Sequence[int]):
        dt = _int(dt, "top width")
        left = _int_seq(left, "left direction")
        right = _int_seq(right, "right direction")
        self = tuple.__new__(cls, (dt, left, right))
        if self.dt < 0:
            raise ValueError("top width must be nonnegative")
        if len(self.left) != len(self.right):
            raise ValueError("left and right direction sequences differ in length")
        if not self.left:
            raise ValueError("a polygon needs height at least 1")
        if any(a > b for a, b in zip(self.left, self.left[1:])):
            raise ValueError("left directions must be nondecreasing top to bottom")
        if any(a < b for a, b in zip(self.right, self.right[1:])):
            raise ValueError("right directions must be nonincreasing top to bottom")
        beta = self.beta()  # raises on a negative width
        if not any(beta):
            raise ValueError("zero-area polygon")
        return self

    @classmethod
    def _make(cls, iterable) -> "HTPolygon":
        # _replace builds through _make: both go through the checks above
        return cls(*iterable)

    @property
    def height(self) -> int:
        return len(self.left)

    @property
    def db(self) -> int:
        return self.beta()[-1]

    def beta(self) -> BetaSeq:
        return _widths(self.dt, self.left, self.right)

    def vertices(self) -> tuple[tuple[int, int], ...]:
        """Corner lattice points, counterclockwise from the top left."""
        return tuple(point for point, _, _ in _corners(_boundary(self), self.height))


def _widths(dt: int, left: Sequence[int], right: Sequence[int]) -> BetaSeq:
    """The widths from the top down: dt, then each row's r - l added on."""
    return beta_from_divergence((dt, *(r - l for l, r in zip(left, right))))


def from_directions(
    dt: int,
    left_runs: Sequence[Sequence[int]],
    right_runs: Sequence[Sequence[int]],
) -> HTPolygon:
    """Build a polygon from run-length encoded boundary directions.

    Each run is a (direction, length) pair; runs are sorted into the default
    ordering, so the multisets alone determine the polygon.
    """
    def expand(runs, what):
        out: list[int] = []
        for run in _items(runs, f"{what} runs"):
            direction, length = _pair(run, f"{what} run (direction, length)")
            direction = _int(direction, f"{what} direction")
            length = _int(length, f"{what} run length")
            if length < 1:
                raise ValueError(f"{what} run lengths must be positive")
            _check_height(len(out) + length, f"the {what} runs")
            out.extend([direction] * length)
        return out

    left = sorted(expand(left_runs, "left"))
    right = sorted(expand(right_runs, "right"), reverse=True)
    return HTPolygon(dt, tuple(left), tuple(right))


def from_vertices(vertices: Sequence[Sequence[int]]) -> HTPolygon:
    """Build a polygon from its lattice corners (either orientation).

    Collinear intermediate points are merged; the input must be a convex
    lattice polygon whose non-horizontal edges rise one unit per step, i.e.
    all edge normals have integral or infinite slope.
    """
    pts = [
        (_int(x, "vertex x"), _int(y, "vertex y"))
        for x, y in (_pair(v, "vertex (x, y)") for v in _items(vertices, "vertices"))
    ]
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts.pop()
    # drop repeated points
    pts = [p for i, p in enumerate(pts) if p != pts[i - 1]]
    if len(pts) < 3:
        raise ValueError("a polygon needs at least three distinct vertices")
    signed2 = sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1]
        - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )
    if signed2 == 0:
        raise ValueError("degenerate polygon: zero area")
    if signed2 < 0:
        pts.reverse()
    # merge collinear runs, then check strict convexity: every corner turns
    # left, no point doubles back, and the boundary turns around once
    corners, back = [], []
    n = len(pts)
    for i, cur in enumerate(pts):
        prev, nxt = pts[i - 1], pts[(i + 1) % n]
        ux, uy = cur[0] - prev[0], cur[1] - prev[1]
        vx, vy = nxt[0] - cur[0], nxt[1] - cur[1]
        cross, dot = ux * vy - uy * vx, ux * vx + uy * vy
        if cross < 0:
            raise ValueError(f"not convex at vertex {cur}")
        if cross > 0:
            corners.append(cur)
        elif dot < 0:
            back.append(cur)
    if back:
        raise ValueError(f"not convex at vertex {back[0]}: the boundary doubles back")
    edges = [(a, corners[(i + 1) % len(corners)]) for i, a in enumerate(corners)]
    # turning left at every corner, the direction enters the upper half-plane
    # once per turn around
    lower = [b[1] < a[1] or (b[1] == a[1] and b[0] < a[0]) for a, b in edges]
    turns = sum(x and not y for x, y in zip(lower, lower[1:] + lower[:1]))
    if turns != 1:
        raise ValueError(f"not convex: the boundary turns around {turns} times")
    for a, b in edges:
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dy != 0 and abs(dy) != gcd(abs(dx), abs(dy)):
            g = gcd(abs(dx), abs(dy))
            raise ValueError(
                f"not h-transverse: edge {a} -> {b} has primitive direction "
                f"({dx // g}, {dy // g})"
            )
    ys = [y for _, y in corners]
    ytop = max(ys)
    m = ytop - min(ys)
    _check_height(m, "the vertices")
    # counterclockwise, the left chain falls and the right chain rises; each
    # row a non-horizontal edge spans moves -dx/dy going down
    left, right = [0] * m, [0] * m
    for (ax, ay), (bx, by) in edges:
        dx, dy = bx - ax, by - ay
        if dy == 0:
            continue
        if dx % dy:
            y = max(ay, by) - 1  # the edge's first row below its upper end
            raise ValueError(
                f"not a lattice polygon: edge {(ax, ay)} -> {(bx, by)} "
                f"crosses height {y} at x = {Fraction(ax * dy + dx * (y - ay), dy)}"
            )
        row = ytop - max(ay, by)
        (left if dy < 0 else right)[row : row + abs(dy)] = [-(dx // dy)] * abs(dy)
    top = [x for x, y in corners if y == ytop]
    return HTPolygon(max(top) - min(top), tuple(left), tuple(right))


class InternalVertex(NamedTuple):
    side: str  # "left" or "right"
    level: int  # vertical distance below the top
    det: int


def _runs(values: Sequence[int]) -> list[tuple[int, int]]:
    """(value, run length) pairs in order."""
    out: list[tuple[int, int]] = []
    for v in values:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def _boundary(p: HTPolygon) -> list[tuple[tuple[int, int], int, str]]:
    """The boundary's edges as (primitive outward normal, lattice length,
    chain), counterclockwise from the top-left corner: down the left chain,
    across the bottom, up the right chain and back along the top.  The
    normals are the rays of the toric surface's fan."""
    edges = [((-1, -a), length, "left") for a, length in _runs(p.left)]
    db = p.db
    if db > 0:
        edges.append(((0, -1), db, "bottom"))
    edges += [((1, b), length, "right") for b, length in reversed(_runs(p.right))]
    if p.dt > 0:
        edges.append(((0, 1), p.dt, "top"))
    return edges


def _det(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _corners(edges: list, height: int) -> list[tuple[tuple[int, int], int, str | None]]:
    """(point, determinant, chain) of each corner of a _boundary list.

    Corner k joins edges k - 1 and k.  Its point is the top-left corner
    (0, height) plus the vectors of the edges before it, each vector the
    normal turned a quarter turn times the length.  Its determinant
    det(n_{k-1}, n_k) is the index of the surface's cyclic quotient
    singularity there.  chain names the one chain both edges lie on at an
    internal vertex, and is None at every other corner.
    """
    x, y = 0, height
    corners = []
    pairs = zip(edges[-1:] + edges, edges)  # (edge k - 1, edge k)
    for (before, _, chain_before), (normal, length, chain) in pairs:
        internal = chain if chain == chain_before else None
        corners.append(((x, y), _det(before, normal), internal))
        x, y = x - normal[1] * length, y + normal[0] * length
    return corners


def internal_vertices(p: HTPolygon) -> tuple[InternalVertex, ...]:
    """Direction-change vertices on both chains, top to bottom per side."""
    m = p.height
    found = (
        InternalVertex(chain, m - y, det)
        for (_, y), det, chain in _corners(_boundary(p), m)
        if chain
    )
    # the boundary goes up the right chain; sorting lists each side top down
    return tuple(sorted(found))


class PolygonStats(NamedTuple):
    area: int  # normalized: twice the Euclidean area
    ll: int  # lattice length of the boundary
    height: int
    idet: int  # total determinant of the internal vertices
    det: int  # total determinant of all vertices
    tdet: int
    bdet: int
    v: dict  # determinant -> count over all vertices
    vprime: dict  # determinant -> count over internal vertices
    min_edge: int  # shortest lattice length among all edges
    ell: object  # min over internal and extremal edges; inf if no internal vertices


class BetaStats(NamedTuple):
    area: int
    ll: int
    height: int
    idet: int


def beta_stats(beta: Sequence[int]) -> BetaStats:
    """Area, lattice length, height, and internal-determinant sum of widths."""
    beta = tuple(beta)
    m = len(beta) - 1
    if m == 0:
        raise ValueError("stats need height >= 1; a single width has no idet")
    area = beta[0] + beta[m] + 2 * sum(beta[1:m])
    ll = beta[0] + beta[m] + 2 * m
    idet = (beta[1] - beta[0]) - (beta[m] - beta[m - 1])
    return BetaStats(area, ll, m, idet)


def polygon_stats(p: HTPolygon) -> PolygonStats:
    beta = p.beta()
    area, ll, height, _ = beta_stats(beta)  # idet comes from the vertices
    edges = _boundary(p)
    corners = _corners(edges, height)
    dets = [det for _, det, _ in corners]
    internal = [det for _, det, chain in corners if chain]
    # a top vertex is corner 0; a bottom one follows the last left edge
    bottom = sum(chain == "left" for _, _, chain in edges)
    n = len(edges)
    # edge k runs from corner k to corner k + 1
    touching = [
        length
        for k, (_, length, _) in enumerate(edges)
        if corners[k][2] or corners[(k + 1) % n][2]
    ]
    return PolygonStats(
        area=area,
        ll=ll,
        height=height,
        idet=sum(internal),
        det=sum(dets),
        tdet=dets[0] if p.dt == 0 else 0,
        bdet=dets[bottom] if beta[-1] == 0 else 0,
        v=dict(sorted(Counter(dets).items())),
        vprime=dict(sorted(Counter(internal).items())),
        min_edge=min(length for _, length, _ in edges),
        ell=min(touching, default=inf),
    )


class ToricInvariants(NamedTuple):
    Lsq: int
    LK: int
    Ksq: Fraction
    c2: int
    c2tilde: int
    S_i: dict  # index i -> number of singular points of index i + 1
    S: int
    gorenstein: bool


def toric_invariants(p: HTPolygon) -> ToricInvariants:
    stats = polygon_stats(p)
    edges = _boundary(p)
    rays = [normal for normal, _, _ in edges]
    dets = [det for _, det, _ in _corners(edges, p.height)]
    n = len(rays)

    # ray k lies between corners k and k + 1
    ksq = Fraction(0)
    for k in range(n):
        after = (k + 1) % n
        ksq += (
            Fraction(1, dets[k])
            + Fraction(1, dets[after])
            - Fraction(_det(rays[k - 1], rays[after]), dets[k] * dets[after])
        )

    s_i = {d - 1: count for d, count in stats.v.items() if d > 1}
    return ToricInvariants(
        Lsq=stats.area,
        LK=-stats.ll,
        Ksq=ksq,
        c2=sum(stats.v.values()),
        c2tilde=stats.det,
        S_i=s_i,
        S=sum((i + 1) * count for i, count in s_i.items()),
        gorenstein=stats.tdet in (0, 1, 2) and stats.bdet in (0, 1, 2),
    )


class Reordering(NamedTuple):
    left: tuple[int, ...]
    right: tuple[int, ...]
    cogenus: int
    beta: BetaSeq


def _bounded_reversal_perms(
    default_desc: tuple[int, ...], budget: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Permutations of a nonincreasing sequence with reversal weight <= budget.

    The weight of a permutation is the sum of value differences over the
    pairs appearing in increasing order; it is accumulated as each element is
    placed, by charging the gap to every larger element still unplaced.
    """
    remaining = Counter(default_desc)
    values = sorted(remaining, reverse=True)
    prefix: list[int] = []

    def choices(cost: int) -> Iterator[tuple[int, int]]:
        for v in values:
            if remaining[v]:
                inc = sum((w - v) * c for w, c in remaining.items() if w > v)
                if cost + inc <= budget:
                    yield v, cost + inc

    # one iterator of pending choices per placed element, on a list rather
    # than the call stack, so a tall polygon cannot exhaust the recursion
    stack = [choices(0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if prefix:
                remaining[prefix.pop()] += 1
        elif len(prefix) + 1 == len(default_desc):
            yield (*prefix, step[0]), step[1]
        else:
            remaining[step[0]] -= 1
            prefix.append(step[0])
            stack.append(choices(step[1]))


def reorderings(p: HTPolygon, delta: int) -> Iterator[Reordering]:
    """All direction reorderings of cogenus at most delta with valid widths."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    neg_left_default = tuple(-v for v in p.left)
    rights = list(_bounded_reversal_perms(p.right, delta))
    for neg_l, cost_l in _bounded_reversal_perms(neg_left_default, delta):
        left = tuple(-v for v in neg_l)
        for right, cost_r in rights:
            cost = cost_l + cost_r
            if cost > delta:
                continue
            try:
                beta = _widths(p.dt, left, right)
            except ValueError:
                continue
            yield Reordering(left, right, cost, beta)


def polygon_to_dict(p: HTPolygon) -> dict:
    return {
        "dt": p.dt,
        "left": [[value, length] for value, length in _runs(p.left)],
        "right": [[value, length] for value, length in _runs(p.right)],
    }


def polygon_from_dict(data: dict) -> HTPolygon:
    """A polygon from its JSON form; any malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("polygon JSON must be an object")
    if "vertices" in data and data.keys() & {"dt", "left", "right"}:
        raise ValueError(
            "polygon JSON takes either 'vertices' or 'dt'/'left'/'right', not both"
        )
    try:
        if "vertices" in data:
            return from_vertices(data["vertices"])
        return from_directions(data["dt"], data["left"], data["right"])
    except KeyError as exc:
        raise ValueError(
            "polygon JSON needs either a 'vertices' list or 'dt'/'left'/'right'"
        ) from exc
    except TypeError as exc:
        raise ValueError(f"malformed polygon JSON: {exc}") from exc

"""h-transverse lattice polygons and the invariants of their toric surfaces.

A polygon is stored as its top width together with the per-height left and
right boundary directions, read top to bottom.  The right directions are
nonincreasing and the left ones nondecreasing; that is the default ordering,
and convexity of the polygon is equivalent to it.  Everything else -- width
sequences, vertex determinants, boundary reorderings and the intersection
numbers of the associated surface -- is derived from this data.
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
        return self.dt + sum(r - l for l, r in zip(self.left, self.right))

    def beta(self) -> BetaSeq:
        divergence = (self.dt,) + tuple(
            r - l for l, r in zip(self.left, self.right)
        )
        return beta_from_divergence(divergence)

    def vertices(self) -> tuple[tuple[int, int], ...]:
        """Corner lattice points, counterclockwise from the top left."""
        m = self.height
        xl = [0]
        xr = [self.dt]
        for l, r in zip(self.left, self.right):
            xl.append(xl[-1] + l)
            xr.append(xr[-1] + r)
        corners: list[tuple[int, int]] = []
        # down the left chain, then across the bottom, then up the right chain
        for i in range(m + 1):
            y = m - i
            if 0 < i < m and self.left[i - 1] == self.left[i]:
                continue
            corners.append((xl[i], y))
        if self.db > 0:
            corners.append((xr[m], 0))
        for i in range(m, -1, -1):
            y = m - i
            if 0 < i < m and self.right[i - 1] == self.right[i]:
                continue
            if (xr[i], y) != corners[-1] and (xr[i], y) != corners[0]:
                corners.append((xr[i], y))
        return tuple(corners)


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


def _side_windows(values: Sequence[int], side: str):
    """Per-internal-vertex (vertex, adjacent value pair) for one chain."""
    runs = _runs(values)
    out = []
    level = 0
    for (a, la), (b, _) in zip(runs, runs[1:]):
        level += la
        det = b - a if side == "left" else a - b
        out.append((InternalVertex(side, level, det), (a, b)))
    return out


def internal_vertices(p: HTPolygon) -> tuple[InternalVertex, ...]:
    """Direction-change vertices on both chains, top to bottom per side."""
    return tuple(
        v
        for side, values in (("left", p.left), ("right", p.right))
        for v, _ in _side_windows(values, side)
    )


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
    area, ll, height, _ = beta_stats(p.beta())  # idet comes from the vertices

    internal = internal_vertices(p)
    tdet = (p.right[0] - p.left[0]) if p.dt == 0 else 0
    bdet = (p.left[-1] - p.right[-1]) if p.db == 0 else 0
    corner_dets = []
    for end_det, width in ((tdet, p.dt), (bdet, p.db)):
        if width > 0:
            corner_dets.extend((1, 1))
        else:
            corner_dets.append(end_det)

    vprime = Counter(v.det for v in internal)
    v_all = vprime + Counter(corner_dets)

    edges = []  # (lattice length, touches: number of internal endpoints)
    if p.dt > 0:
        edges.append((p.dt, 0))
    if p.db > 0:
        edges.append((p.db, 0))
    for values in (p.left, p.right):
        runs = _runs(values)
        k = len(runs)
        for j, (_, length) in enumerate(runs):
            touches = (j > 0) + (j < k - 1)
            edges.append((length, touches))

    return PolygonStats(
        area=area,
        ll=ll,
        height=height,
        idet=sum(v.det for v in internal),
        det=sum(v_all.elements()),
        tdet=tdet,
        bdet=bdet,
        v=dict(sorted(v_all.items())),
        vprime=dict(sorted(vprime.items())),
        min_edge=min(length for length, _ in edges),
        ell=min((length for length, t in edges if t > 0), default=inf),
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


def _normal_rays(p: HTPolygon) -> list[tuple[int, int]]:
    """Primitive outward edge normals in counterclockwise order."""
    rays = [(-1, -value) for value, _ in _runs(p.left)]
    if p.db > 0:
        rays.append((0, -1))
    rays.extend((1, value) for value, _ in reversed(_runs(p.right)))
    if p.dt > 0:
        rays.append((0, 1))
    return rays


def toric_invariants(p: HTPolygon) -> ToricInvariants:
    stats = polygon_stats(p)
    rays = _normal_rays(p)
    n = len(rays)

    def det2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    ksq = Fraction(0)
    for i in range(n):
        d_before = det2(rays[i - 1], rays[i])
        d_after = det2(rays[i], rays[(i + 1) % n])
        d_skip = det2(rays[i - 1], rays[(i + 1) % n])
        ksq += (
            Fraction(1, d_before)
            + Fraction(1, d_after)
            - Fraction(d_skip, d_before * d_after)
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
            divergence = (p.dt,) + tuple(
                r - l for l, r in zip(left, right)
            )
            try:
                beta = beta_from_divergence(divergence)
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

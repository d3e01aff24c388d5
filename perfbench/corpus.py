"""Seeded polygon corpora for the severi-direct and severi-cli workloads.

Each corpus has a fixed make-up of polygon classes and sizes.  The seed
picks, per polygon, a shear (adding one integer to every boundary
direction) and whether to mirror it left to right.  Shears and mirrors give
lattice-equivalent polygons with the same width sequence, so the seed varies
the program's input without varying the amount of work, which keeps runs
with different seeds comparable.  Every polygon has all edges of lattice
length >= 5, so every route's edge-length precondition holds at delta = 5,
and so at the delta = 4 of severi-cli too.

Polygons use the CLI's JSON form: top width `dt` and (direction, length)
runs for the left and right boundary chains, read top to bottom.
"""

from __future__ import annotations

import random

DELTA = 5  # table-cold and severi-direct
CLI_DELTA = 4  # severi-cli: a process lasts about 0.7 s, so a run holds dozens


def _poly(dt: int, left: list, right: list) -> dict:
    return {"dt": dt, "left": left, "right": right}


def triangle(d: int) -> dict:
    """The plane triangle of side d: P^2 with O(d)."""
    return _poly(0, [[0, d]], [[1, d]])


def rectangle(a: int, b: int) -> dict:
    return _poly(a, [[0, b]], [[0, b]])


def trapezoid(dt: int, h: int, spread: int) -> dict:
    """Top width dt, widening by `spread` per row."""
    return _poly(dt, [[-(spread // 2), h]], [[spread - spread // 2, h]])


def top_det(k: int, h: int) -> dict:
    """A top vertex of determinant k (non-Gorenstein for k >= 3)."""
    return _poly(0, [[-1, h]], [[k - 1, h]])


def bottom_det(k: int, h: int) -> dict:
    """A bottom vertex of determinant k, reached from a top edge of k*h."""
    return _poly(k * h, [[1, h]], [[1 - k, h]])


def diamond(n: int) -> dict:
    """Two internal vertices of determinant 1, one on each chain."""
    return _poly(0, [[0, n], [1, n]], [[1, n], [0, n]])


def _vary(rng: random.Random, poly: dict) -> dict:
    c = rng.randint(-2, 2)
    left = [[v + c, n] for v, n in poly["left"]]
    right = [[v + c, n] for v, n in poly["right"]]
    if rng.random() < 0.5:
        left, right = [[-v, n] for v, n in right], [[-v, n] for v, n in left]
    return _poly(poly["dt"], left, right)


def _item(rng: random.Random, kind: str, poly: dict, **params) -> dict:
    return {"kind": kind, **params, "polygon": _vary(rng, poly)}


def direct_round(rng: random.Random) -> list[dict]:
    """Thirteen polygons: twelve at about 0.9-1.5 s each for n_bruteforce at
    delta 5, so that the median operation is one of many alike, and one with
    internal vertices at about 6 s (height 10 is the least that internal
    vertices allow with edges of length 5)."""
    return [
        _item(rng, "internal-vertices", diamond(5)),
        _item(rng, "triangle", triangle(7), d=7),
        _item(rng, "rectangle", rectangle(5, 6)),
        _item(rng, "rectangle", rectangle(6, 6)),
        _item(rng, "rectangle", rectangle(7, 6)),
        _item(rng, "trapezoid", trapezoid(5, 6, 1)),
        _item(rng, "trapezoid", trapezoid(6, 6, 1)),
        _item(rng, "trapezoid", trapezoid(5, 6, 2)),
        _item(rng, "trapezoid", trapezoid(6, 6, 2)),
        _item(rng, "top-det-2", top_det(2, 6)),
        _item(rng, "top-det-3", top_det(3, 6)),
        _item(rng, "bottom-det-2", bottom_det(2, 6)),
        _item(rng, "bottom-det-3", bottom_det(3, 6)),
    ]


def cli_round(rng: random.Random) -> list[dict]:
    """Seven polygons of height 5: six whose `severi --delta 4` process is
    mostly the same template refit (about 0.6-0.9 s each), so that the
    median operation is one of many alike, and one with internal vertices
    (about 1.5 s)."""
    return [
        _item(rng, "internal-vertices", diamond(5)),
        _item(rng, "triangle", triangle(5), d=5),
        _item(rng, "rectangle", rectangle(5, 5)),
        _item(rng, "trapezoid", trapezoid(5, 5, 1)),
        _item(rng, "top-det-2", top_det(2, 5)),
        _item(rng, "top-det-3", top_det(3, 5)),
        _item(rng, "bottom-det-2", bottom_det(2, 5)),
    ]


def corpus(workload: str, seed: int, rounds: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "severi-direct":
        make, delta = direct_round, DELTA
    else:
        make, delta = cli_round, CLI_DELTA
    items = [item for _ in range(rounds) for item in make(rng)]
    return {"delta": delta, "seed": seed, "items": items}

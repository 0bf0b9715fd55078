"""Generators for polygonal orbit spaces with holes.

The shapes produced here are flat polygons whose boundary consists of
one outer circle of walls and any number of inner circles (holes).
Every consecutive pair of walls meets in a corner, so a characteristic
row assignment is valid exactly when each such pair of rows has
determinant plus or minus one.  Supplied rows are checked; generated
rows are built from an alternating pattern that closes up around each
circle, then scrambled by a seeded unimodular change of basis and
per-row sign flips, which preserve validity.
"""

import random

from .errors import ValidationError
from .fixtures import parse_fixture

# The most walls, over all boundary circles, that ``polygon_with_holes``
# builds.  A 10,000-wall polygon is generated in about 0.25 s and 60 MB
# (Python 3.11 on a Xeon core), far past any size whose homology is
# computed in reasonable time, as the cost grows roughly as the fourth
# power of the wall count.  A larger request is refused before anything
# is allocated, so a typo such as 1000000000 gives an error rather than
# exhausting memory.
MAX_WALLS = 10_000


def polygon_with_holes(lengths, rows=None, seed=0, name=None):
    """A fixture for a polygon with holes.

    ``lengths`` lists the number of walls on each boundary circle, outer
    circle first; every entry must be at least two, and the total at most
    ``MAX_WALLS``.  ``rows`` maps each
    wall id to its characteristic row; when omitted, valid rows are
    generated from the seed.  The result is a parsed fixture; invalid
    supplied rows surface as the usual corner condition error.
    """
    lengths = tuple(int(m) for m in lengths)
    if not lengths:
        raise ValidationError("at least one boundary circle is required")
    if any(m < 2 for m in lengths):
        raise ValidationError(
            "every boundary circle needs at least two walls, got %r"
            % (lengths,))
    if sum(lengths) > MAX_WALLS:
        raise ValidationError(
            "a polygon may have at most %d walls in all, got %d"
            % (MAX_WALLS, sum(lengths)))

    circles = []
    next_id = 1
    for m in lengths:
        circles.append(list(range(next_id, next_id + m)))
        next_id += m
    total_vertices = next_id - 1

    cells = []
    closing_edges = []
    edge_id = total_vertices + 1
    for circle in circles:
        m = len(circle)
        for j in range(m - 1):
            cells.append({"id": edge_id,
                          "vertices": [circle[j], circle[j + 1]]})
            edge_id += 1
        cells.append({"id": edge_id,
                      "vertices": sorted((circle[0], circle[-1]))})
        closing_edges.append(edge_id)
        edge_id += 1

    if rows is None:
        rows = _random_rows(lengths, random.Random(seed))
    lam = {str(v): list(rows[v]) for v in sorted(rows)}

    interior = []
    holes = len(circles) - 1
    for i in range(1, len(circles)):
        label = "estar" if holes == 1 else "estar%d" % i
        interior.append({"id": label, "dim": 1,
                         "boundary": [[closing_edges[0], 1],
                                      [closing_edges[i], 1]]})
    interior.append({"id": "c", "dim": 2,
                     "boundary": [[v, 1] for v in range(1,
                                                        total_vertices + 1)]})

    data = {
        "name": name or "polygon_" + "_".join(str(m) for m in lengths),
        "n": 2,
        "poset": {
            "vertices": list(range(1, total_vertices + 1)),
            "cells": cells,
        },
        "lambda": lam,
        "interior_cells": interior,
        "orientable": True,
    }
    return parse_fixture(data)


def _closing_pattern(m):
    """Alternating rows that stay valid around a circle of length m."""
    out = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(m)]
    if m % 2:
        out[-1] = (1, 1)
    return out


def _mix(pattern, rng):
    """Scramble rows by a change of basis and sign flips.  The basis
    ((p, q), (r, s)) starts at the identity and is multiplied on the right
    by two to five seeded steps, each composed in place: an elementary
    step ((1, k), (0, 1)) or ((1, 0), (k, 1)), or the quarter turn
    ((0, -1), (1, 0))."""
    p, q, r, s = 1, 0, 0, 1
    for _ in range(rng.randrange(2, 6)):
        k = rng.randrange(-3, 4)
        pick = rng.randrange(3)
        if pick == 0:
            q, s = k * p + q, k * r + s
        elif pick == 1:
            p, r = p + k * q, r + k * s
        else:
            p, q, r, s = q, -p, s, -r
    out = []
    for a, b in pattern:
        mixed = (a * p + b * r, a * q + b * s)
        if rng.random() < 0.5:
            mixed = (-mixed[0], -mixed[1])
        out.append(mixed)
    return out


def _random_rows(lengths, rng):
    rows = {}
    vid = 1
    for m in lengths:
        for row in _mix(_closing_pattern(m), rng):
            rows[vid] = row
            vid += 1
    return rows

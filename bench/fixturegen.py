"""Seeded polygon-with-holes fixtures for the benchmark.

The benchmark writes its inputs as fixture JSON files before any timing
and hands the program only those files.  This module is deliberately
separate from the package's own generator, so a change to the package
cannot change the benchmark's load.

A shape is a tuple of wall counts, one per boundary circle, outer circle
first.  Each wall is a vertex of the face poset; consecutive walls on a
circle meet in an edge.  A row assignment is valid when every pair of
meeting walls has rows with determinant +-1.  Rows start from an
alternating pattern that closes up around each circle, are mapped by a
unimodular change of basis and then get sign flips, which keep every
such determinant at +-1.  The change of basis is seeded by the shape
alone and the sign flips by the shape and the row assignment, so every
row assignment of a shape has entries of the same sizes: the work a
call does, and so its time, varies little between row assignments, and
a run's times do not depend on which of them its seed selects.

Every shape has ``POOL`` row assignments, numbered 0..POOL-1, so that the
outputs recorded in ``references.json`` cover every input a seed can
select.
"""

import json
import random

POOL = 8


def shape_key(shape):
    return "_".join(str(m) for m in shape)


def variant_of(seed, index):
    """The row assignment a workload seed uses for its index-th fixture
    of a shape."""
    return (seed + index) % POOL


def fixture_data(shape, variant):
    """Plain fixture data for one shape and row assignment."""
    shape = tuple(int(m) for m in shape)
    if not shape or any(m < 2 for m in shape):
        raise ValueError("every boundary circle needs two walls: %r"
                         % (shape,))
    if not 0 <= variant < POOL:
        raise ValueError("variant %d outside 0..%d" % (variant, POOL - 1))
    basis = _basis(random.Random("torushom-bench/%s" % shape_key(shape)))
    rng = random.Random("torushom-bench/%s/%d" % (shape_key(shape), variant))

    circles = []
    first = 1
    for m in shape:
        circles.append(list(range(first, first + m)))
        first += m
    nwalls = first - 1

    cells = []
    closing = []
    edge = nwalls + 1
    for circle in circles:
        for a, b in zip(circle, circle[1:]):
            cells.append({"id": edge, "vertices": [a, b]})
            edge += 1
        cells.append({"id": edge, "vertices": [circle[0], circle[-1]]})
        closing.append(edge)
        edge += 1

    rows = {}
    for circle in circles:
        for v, row in zip(circle, _scrambled(_pattern(len(circle)), basis,
                                             rng)):
            rows[str(v)] = list(row)

    interior = []
    for i in range(1, len(circles)):
        label = "estar" if len(circles) == 2 else "estar%d" % i
        interior.append({"id": label, "dim": 1,
                         "boundary": [[closing[0], 1], [closing[i], 1]]})
    interior.append({"id": "c", "dim": 2,
                     "boundary": [[v, 1] for v in range(1, nwalls + 1)]})

    return {
        "name": "bench_%s_v%d" % (shape_key(shape), variant),
        "n": 2,
        "poset": {"vertices": list(range(1, nwalls + 1)), "cells": cells},
        "lambda": rows,
        "interior_cells": interior,
        "orientable": True,
    }


def write_fixture(directory, shape, variant):
    """Write one fixture file; returns its path and its data."""
    data = fixture_data(shape, variant)
    path = directory / ("%s_v%d.json" % (shape_key(shape), variant))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path, data


def _pattern(m):
    rows = [(1, 0) if i % 2 == 0 else (0, 1) for i in range(m)]
    if m % 2:
        rows[-1] = (1, 1)
    return rows


def _basis(rng):
    """A random unimodular 2x2 matrix with small entries."""
    basis = ((1, 0), (0, 1))
    for _ in range(rng.randrange(2, 6)):
        k = rng.randrange(-3, 4)
        step = rng.choice((((1, k), (0, 1)), ((1, 0), (k, 1)),
                           ((0, -1), (1, 0))))
        basis = tuple(tuple(sum(basis[i][t] * step[t][j] for t in range(2))
                            for j in range(2)) for i in range(2))
    return basis


def _scrambled(rows, basis, rng):
    out = []
    for a, b in rows:
        row = (a * basis[0][0] + b * basis[1][0],
               a * basis[0][1] + b * basis[1][1])
        if rng.random() < 0.5:
            row = (-row[0], -row[1])
        out.append(row)
    return out

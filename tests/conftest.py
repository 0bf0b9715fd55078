import random
from itertools import combinations, product

import pytest

from torushom.chains import ChainComplex
from torushom.charmat import CharacteristicMatrix
from torushom.fields import Echelon, rref
from torushom.fixtures import parse_fixture
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex
from torushom.posets import SimplicialPoset


def mat_from_int(rows, field):
    """An integer matrix with every entry lifted into ``field``."""
    return [[field.from_int(x) for x in row] for row in rows]


def row_spaces_equal(rows_a, rows_b, field):
    """Whether two lists of dense rows span the same space over ``field``:
    reduced echelon forms are unique, so equal spans have equal ones."""
    return rref(rows_a, field)[0] == rref(rows_b, field)[0]


def echelon_of(rows, field):
    """An ``Echelon`` of dense rows, each added as {column: nonzero
    value}."""
    echelon = Echelon(field)
    for row in rows:
        echelon.add_sparse(sparsify(row))
    return echelon


def int_identity(n):
    """The n x n integer identity matrix."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def densify(row, width, zero=0):
    """A {column: value} row as a dense list of ``width`` entries."""
    out = [zero] * width
    for j, x in row.items():
        out[j] = x
    return out


def sparsify(vec):
    """A dense vector as {column: nonzero value}, the form relation rows,
    ``in_socle`` and ``Echelon.tracked`` take."""
    return {j: x for j, x in enumerate(vec) if x}


def assert_sparse_cycle(c, k, gen):
    """The one form of a homology generator of degree k of ``c``: a dict
    {index into basis(k): nonzero value} whose boundary is {}."""
    assert type(gen) is dict
    assert all(x and 0 <= i < c.dim(k) for i, x in gen.items()), gen
    assert c.boundary_of(k, gen) == {}


def unit_vector(pres, generator):
    """The coordinate vector of one generator of a graded presentation."""
    v = [pres.field.zero] * len(pres.generators)
    v[pres.column(generator)] = pres.field.one
    return v


def mat_vec(a, v, field):
    """The product a @ v over ``field``, computed densely."""
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def dense_complex(bases, matrices, check=True):
    """A ``ChainComplex`` given by dense boundary matrices, as tests write
    them: ``matrices[k]`` has a row per label of ``bases[k - 1]`` and a
    column per label of ``bases[k]``.  Labels must be distinct across
    degrees, since the complex looks up each cell's boundary terms by its
    label alone.  With ``check`` the boundary is validated at once."""
    labels = [c for cells in bases.values() for c in cells]
    assert len(set(labels)) == len(labels), "labels repeat across degrees"
    terms = {}
    for k, mat in matrices.items():
        rows, cols = bases.get(k - 1, []), bases.get(k, [])
        assert len(mat) == len(rows) and all(len(r) == len(cols) for r in mat)
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x:
                    terms.setdefault(cols[j], []).append((rows[i], x))
    cx = ChainComplex(bases, lambda cell: terms.get(cell, ()))
    return cx.validate() if check else cx


def dense_smith(result):
    """The sparse Smith form (factors, U, V, W) that
    ``snf.smith_normal_form`` returns for an nrows x ncols matrix, as dense
    (U, D, V, W) with the factors on the diagonal of D.  U comes as rows,
    V and W as columns, each {index: value}; every index must be in range
    and every stored value nonzero."""
    factors, u, v, w = result
    nrows, ncols = len(u), len(v)
    assert len(w) == nrows
    for vecs, size in ((u, nrows), (v, ncols), (w, nrows)):
        assert all(0 <= k < size and x for vec in vecs for k, x in vec.items())
    d = [[0] * ncols for _ in range(nrows)]
    for t, f in enumerate(factors):
        d[t][t] = f
    return ([[row.get(j, 0) for j in range(nrows)] for row in u], d,
            [[col.get(i, 0) for col in v] for i in range(ncols)],
            [[col.get(i, 0) for col in w] for i in range(nrows)])


# Orbit spaces used throughout the test suite, as vertex/edge data.
# square: boundary of a square, four walls.
# annulus: square outer boundary plus a triangular hole, seven walls in two
#          boundary circles.
# digon: two edges joining the same two vertices.

SQUARE_EDGES = [(5, (1, 2)), (6, (2, 3)), (7, (3, 4)), (8, (1, 4))]
ANNULUS_EDGES = [(8, (1, 2)), (9, (2, 3)), (10, (3, 4)), (11, (1, 4)),
                 (12, (5, 6)), (13, (6, 7)), (14, (5, 7))]


def build_square_poset():
    cells = [{"id": i, "vertices": list(vs)} for i, vs in SQUARE_EDGES]
    return SimplicialPoset([1, 2, 3, 4], cells)


def build_annulus_poset():
    cells = [{"id": i, "vertices": list(vs)} for i, vs in ANNULUS_EDGES]
    return SimplicialPoset(list(range(1, 8)), cells)


def build_digon_poset():
    return SimplicialPoset([1, 2], [{"id": 3, "vertices": [1, 2]},
                                    {"id": 4, "vertices": [1, 2]}])


SQUARE_ROWS = {1: (1, 0), 2: (0, 1), 3: (1, 0), 4: (0, 1)}
ANNULUS_ROWS = {1: (1, 0), 2: (0, 1), 3: (1, 0), 4: (3, 1),
                5: (2, 3), 6: (1, 2), 7: (-3, -5)}
DIGON_ROWS = {1: (1, 0), 2: (0, 1)}


def build_square_charmat(poset=None):
    return CharacteristicMatrix(poset or build_square_poset(), SQUARE_ROWS)


def build_annulus_charmat(poset=None):
    return CharacteristicMatrix(poset or build_annulus_poset(), ANNULUS_ROWS)


def build_digon_charmat(poset=None):
    return CharacteristicMatrix(poset or build_digon_poset(), DIGON_ROWS)


# punctured torus: six walls 1..6 in one circle, λ alternating e1 and e2,
# corners 7..12 (corner 6 + j joins walls j and j + 1), two interleaved
# arcs a = corner 9 - corner 7 and b = corner 11 - corner 8, and one
# 2-cell on the six walls.  Its arcs bound in the boundary circle, so the
# connecting map into degree 0 is zero: the one input here where δ is not
# injective.
PUNCTURED_TORUS = {
    "name": "punctured_torus",
    "n": 2,
    "poset": {"vertices": [1, 2, 3, 4, 5, 6],
              "cells": [{"id": 6 + j, "vertices": sorted((j, j % 6 + 1))}
                        for j in range(1, 7)]},
    "lambda": {str(v): [v % 2, 1 - v % 2] for v in range(1, 7)},
    "interior_cells": [
        {"id": "a", "dim": 1, "boundary": [[9, 1], [7, -1]]},
        {"id": "b", "dim": 1, "boundary": [[11, 1], [8, -1]]},
        {"id": "c", "dim": 2, "boundary": [[v, 1] for v in range(1, 7)]},
    ],
    "orientable": True,
}


def build_punctured_torus():
    """The punctured torus as a parsed fixture."""
    return parse_fixture(PUNCTURED_TORUS)


def build_cross_polytope(n):
    """The boundary of the n-dimensional cross-polytope with its
    characteristic rows: vertex i is +e_i and vertex i + n is -e_i, both
    with row e_i, and the cells are the vertex sets holding no pair
    i, i + n.  Returns (poset, rows)."""
    vertices = list(range(1, 2 * n + 1))
    cells = []
    for k in range(2, n + 1):
        for axes in combinations(range(1, n + 1), k):
            for flips in product((0, n), repeat=k):
                cells.append({"id": 2 * n + 1 + len(cells),
                              "vertices": [a + f for a, f in zip(axes, flips)]})
    rows = {v: tuple(int((v - 1) % n == j) for j in range(n))
            for v in vertices}
    return SimplicialPoset(vertices, cells), rows


def build_gauged_cross_polytope(n, seed, scale=1):
    """``build_cross_polytope(n)`` with every row times a seeded integer
    matrix of determinant ``scale``, made of random elementary row steps,
    so the vertex matrices are no longer signed permutations and their
    minors and inverses are not trivial.  Returns (poset, rows)."""
    poset, rows = build_cross_polytope(n)
    rng = random.Random(seed)
    u = int_identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    u[0] = [scale * x for x in u[0]]
    return poset, {v: tuple(sum(x * y for x, y in zip(row, column))
                            for column in zip(*u))
                   for v, row in rows.items()}


@pytest.fixture
def square_poset():
    return build_square_poset()


@pytest.fixture
def annulus_poset():
    return build_annulus_poset()


@pytest.fixture
def digon_poset():
    return build_digon_poset()


@pytest.fixture
def square_charmat(square_poset):
    return CharacteristicMatrix(square_poset, SQUARE_ROWS)


@pytest.fixture
def annulus_charmat(annulus_poset):
    return CharacteristicMatrix(annulus_poset, ANNULUS_ROWS)


@pytest.fixture
def digon_charmat(digon_poset):
    return CharacteristicMatrix(digon_poset, DIGON_ROWS)

SQUARE_CELLS = [
    {"id": "c0", "dim": 2, "boundary": [[v, 1] for v in range(1, 5)]},
]
ANNULUS_CELLS = [
    {"id": "estar", "dim": 1, "boundary": [[11, 1], [14, 1]]},
    {"id": "c", "dim": 2, "boundary": [[v, 1] for v in range(1, 8)]},
]
DIGON_CELLS = [
    {"id": "c", "dim": 2, "boundary": [[1, 1], [2, 1]]},
]


@pytest.fixture
def square_manifold(square_poset, square_charmat):
    return TorusManifold(CornerComplex(square_poset, SQUARE_CELLS),
                         square_charmat)


@pytest.fixture
def annulus_manifold(annulus_poset, annulus_charmat):
    return TorusManifold(CornerComplex(annulus_poset, ANNULUS_CELLS),
                         annulus_charmat)


@pytest.fixture
def digon_manifold(digon_poset, digon_charmat):
    return TorusManifold(CornerComplex(digon_poset, DIGON_CELLS),
                         digon_charmat)


ANNULUS_GEOMETRY = {
    "classes": [
        {"name": "eta", "kind": "spine", "dim": 1, "support": []},
        {"name": "pt", "kind": "spine", "dim": 0, "support": []},
        {"name": "L", "kind": "diaphragm", "dim": 1, "support": [1, 4, 5, 7]},
        {"name": "Lp", "kind": "diaphragm", "dim": 1, "support": [3, 4, 6, 7]},
        {"name": "Lpp", "kind": "diaphragm", "dim": 1,
         "support": [1, 2, 5, 6]},
    ],
    "pairings": [
        {"left": "eta", "right": "L", "result": [["pt", 1]]},
        {"left": "eta", "right": "eta", "result": []},
    ],
    "disjoint": [["Lp", "Lpp"]],
    "bordism": [
        {"source": "L", "target": "Lp",
         "rows": {"1": [[4, 1], [7, -5]], "2": [[4, -3], [7, 3]]}},
        {"source": "L", "target": "Lpp", "chain": {1: 1, 5: 1}},
    ],
}

"""The incremental echelon basis and ``rref`` against sympy and against the
dense elimination loop, and the work the sparse kernel does."""

import random
from bisect import bisect
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.polys.domains import GF as SympyGF
from sympy.polys.matrices import DomainMatrix

from conftest import mat_from_int, mat_vec
from torushom import fields
from torushom.fields import GF, QQ

WIDTH = st.integers(min_value=1, max_value=5)


def int_matrices(width):
    entry = st.integers(min_value=-3, max_value=3)
    return st.lists(st.lists(entry, min_size=width, max_size=width),
                    min_size=0, max_size=7)


matrices = WIDTH.flatmap(int_matrices)


def _check_against(field, rows, sympy_rank):
    echelon = fields.Echelon(field)
    stacked = []
    for row in rows:
        vec = [field.from_int(x) for x in row]
        before = sympy_rank(stacked)
        grows = sympy_rank(stacked + [row]) > before
        assert echelon.contains(vec) is not grows
        assert echelon.add(vec) is grows
        assert echelon.contains(vec)
        stacked.append(row)
        assert len(echelon) == sympy_rank(stacked)


def _rank_q(rows):
    return Matrix(rows).rank() if rows else 0


def _rank_gf5(rows):
    if not rows:
        return 0
    domain = SympyGF(5)
    return DomainMatrix([[domain(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), domain).rank()


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_add_matches_rank_growth_over_q(rows):
    _check_against(QQ, rows, _rank_q)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_add_matches_rank_growth_over_gf5(rows):
    _check_against(GF(5), rows, _rank_gf5)


def int_stacks(width):
    entry = st.integers(min_value=-3, max_value=3)
    return st.lists(st.lists(entry, min_size=width, max_size=width),
                    min_size=0, max_size=7).map(lambda rows: (width, rows))


stacks = st.integers(min_value=0, max_value=5).flatmap(int_stacks)


def _sympy_rref_q(width, rows):
    ech, pivots = Matrix(len(rows), width, sum(rows, [])).rref()
    return ([[Fraction(int(x.p), int(x.q)) for x in ech.row(i)]
             for i in range(len(pivots))], list(pivots))


def _sympy_rref_mod(p, width, rows):
    domain = SympyGF(p)
    ech, pivots = DomainMatrix([[domain(x) for x in row] for row in rows],
                               (len(rows), width), domain).rref()
    return ([[int(x) % p for x in row] for row in ech.to_list()[:len(pivots)]],
            list(pivots))


# an empty stack, zero-width rows and a stack of zero rows
EDGE_STACKS = [(3, []), (0, [[], []]), (2, [[0, 0], [0, 0]])]


@settings(max_examples=80, deadline=None)
@given(stacks)
@example(EDGE_STACKS[0])
@example(EDGE_STACKS[1])
@example(EDGE_STACKS[2])
def test_rref_matches_sympy_over_q(stack):
    width, rows = stack
    assert fields.rref(mat_from_int(rows, QQ), QQ) == \
        _sympy_rref_q(width, rows)


@settings(max_examples=80, deadline=None)
@given(stacks)
@example(EDGE_STACKS[0])
@example(EDGE_STACKS[1])
@example(EDGE_STACKS[2])
def test_rref_matches_sympy_over_gf5(stack):
    width, rows = stack
    field = GF(5)
    assert fields.rref(mat_from_int(rows, field), field) == \
        _sympy_rref_mod(5, width, rows)


# --- the sparse kernel on boundary-like matrices ---------------------------

FIELDS = [QQ, GF(2), GF(5)]
# mostly ±1, with a few ±2 that are zero over GF(2)
SPARSE_ENTRY = st.sampled_from((1, -1, 1, -1, 1, -1, 2, -2))


@st.composite
def boundary_like(draw):
    """Up to 12 rows by 40 columns with at most 15% of the cells nonzero."""
    nrows = draw(st.integers(min_value=0, max_value=12))
    ncols = draw(st.integers(min_value=1, max_value=40))
    cell = st.tuples(st.integers(min_value=0, max_value=max(nrows - 1, 0)),
                     st.integers(min_value=0, max_value=ncols - 1))
    cells = draw(st.sets(cell, max_size=int(0.15 * nrows * ncols)))
    rows = [[0] * ncols for _ in range(nrows)]
    for i, j in sorted(cells):
        rows[i][j] = draw(SPARSE_ENTRY)
    return ncols, rows


def _sympy_rref(field, width, rows):
    if field is QQ:
        return _sympy_rref_q(width, rows)
    return _sympy_rref_mod(field.p, width, rows)


class DenseEchelon:
    """Reference: the dense elimination loop the sparse kernel replaced."""

    def __init__(self, field):
        self.field, self.rows, self.pivots = field, [], []

    def reduce(self, vec):
        f = self.field
        v = [f.from_int(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if not f.is_zero(v[p]):
                c = v[p]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def add(self, vec):
        f = self.field
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if not f.is_zero(x)), None)
        if p is None:
            return False
        inv = f.inv(v[p])
        v = [f.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            if not f.is_zero(row[p]):
                c = row[p]
                self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        at = bisect(self.pivots, p)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True


@settings(max_examples=60, deadline=None)
@given(boundary_like(), st.sampled_from(FIELDS))
def test_sparse_rref_and_nullspace_match_sympy(matrix, field):
    width, rows = matrix
    ech, pivots = fields.rref(rows, field)
    assert (ech, pivots) == _sympy_rref(field, width, rows)
    basis = fields.nullspace(rows, field)
    if rows:
        assert len(basis) == width - len(pivots)
    for v in basis:
        assert all(field.is_zero(x) for x in mat_vec(
            mat_from_int(rows, field), v, field))


@settings(max_examples=60, deadline=None)
@given(boundary_like(), st.sampled_from(FIELDS))
def test_incremental_echelon_matches_the_dense_loop(matrix, field):
    width, rows = matrix
    sparse, dense = fields.Echelon(field), DenseEchelon(field)
    for row in rows:
        expected = dense.reduce(row)
        assert sparse.reduce(row) == expected
        assert sparse.contains(row) == all(map(field.is_zero, expected))
        assert sparse.add(row) is dense.add(row)
        assert (sparse.rows, sparse.pivots) == (dense.rows, dense.pivots)
        assert sparse.contains(row)


class CountingRationals(fields.Rationals):
    """The rationals, counting multiplications."""

    def __init__(self):
        super().__init__()
        self.products = 0

    def mul(self, a, b):
        self.products += 1
        return a * b


def _signed_permutation(n):
    rng = random.Random(0)
    order = list(range(n))
    rng.shuffle(order)
    return [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)]
            for i in range(n)]


def _polygon_boundary(n):
    """Vertices by edges of an n-gon: edge j runs from vertex j to j+1."""
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] -= 1
        rows[(j + 1) % n][j] += 1
    return rows


@pytest.mark.parametrize("rows", [_signed_permutation(200),
                                  _polygon_boundary(200)],
                         ids=["signed-permutation", "200-gon"])
def test_work_follows_the_nonzero_entries(rows):
    field = CountingRationals()
    echelon = fields.Echelon(field, rows)
    nonzeros = sum(1 for row in rows for x in row if x)
    assert len(echelon) in (199, 200)
    assert field.products <= 2 * nonzeros


def test_vectors_of_another_width_are_rejected():
    echelon = fields.Echelon(QQ, [[1, 0, 0]])
    for bad in ([1], [0, 0], [1, 0, 0, 0]):
        for method in (echelon.add, echelon.reduce, echelon.contains):
            with pytest.raises(ValueError, match="dimension mismatch"):
                method(bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fields.Echelon(QQ, [[0, 0, 1]]).contains([1])
    with pytest.raises(ValueError, match="dimension mismatch"):
        fields.Echelon(QQ, [[0, 0]]).add([1])
    with pytest.raises(ValueError, match="dimension mismatch"):
        fields.rref([[1, 2, 3], [1, 0]], QQ)

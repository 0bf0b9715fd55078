"""The incremental echelon basis and ``rref`` against sympy, against the
dense elimination loop and against the Fraction loop that the integer
loop replaced, and the work the sparse kernel does."""

import dis
import random
import sys
import types
from bisect import bisect
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.polys.domains import GF as SympyGF
from sympy.polys.matrices import DomainMatrix

from conftest import densify, echelon_of, mat_from_int, mat_vec, sparsify
from torushom import fields
from torushom.fields import GF, QQ

WIDTH = st.integers(min_value=1, max_value=5)


def int_matrices(width):
    entry = st.integers(min_value=-3, max_value=3)
    return st.lists(st.lists(entry, min_size=width, max_size=width),
                    min_size=0, max_size=7)


matrices = WIDTH.flatmap(int_matrices)


def dense_rows(echelon, width):
    """The kept rows of an ``Echelon`` as a dense reduced echelon form."""
    return [densify(echelon.row(pc), width, echelon.field.zero)
            for pc in echelon.pivots]


def _check_against(field, rows, sympy_rank):
    echelon = fields.Echelon(field)
    stacked = []
    for row in rows:
        vec = sparsify([field.from_int(x) for x in row])
        before = sympy_rank(stacked)
        grows = sympy_rank(stacked + [row]) > before
        assert echelon.contains_sparse(vec) is not grows
        assert echelon.add_sparse(vec) is grows
        assert echelon.contains_sparse(vec)
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
        vec = sparsify(row)
        assert densify(sparse.reduce_sparse(vec), width,
                       field.zero) == expected
        assert sparse.contains_sparse(vec) == all(map(field.is_zero,
                                                      expected))
        assert sparse.add_sparse(vec) is dense.add(row)
        assert (dense_rows(sparse, width), sparse.pivots) == \
            (dense.rows, dense.pivots)
        assert sparse.contains_sparse(vec)


# --- the integer loop against the Fraction loop it replaced ---------------


class FractionEchelon:
    """Reference: the sparse elimination loop on field values that the
    integer loop replaced.  Each kept row is {column: field value} with
    entry one at its pivot and none on the other pivot columns."""

    def __init__(self, field, rows=()):
        self.field = field
        self.width = None
        self._rows = {}
        for row in rows:
            self.add(row)

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def rows(self):
        out = []
        for pc in self.pivots:
            row = [self.field.zero] * self.width
            for c, x in self._rows[pc].items():
                row[c] = x
            out.append(row)
        return out

    def _sparse(self, vec):
        return {j: fields.lift(x, self.field) for j, x in enumerate(vec)
                if x and not self.field.is_zero(x)}

    def reduce_sparse(self, v):
        f = self.field
        out = dict(v)
        for pc, c in v.items():
            row = self._rows.get(pc)
            if row is None:
                continue
            del out[pc]
            for j, y in row.items():
                if j != pc:
                    d = f.sub(out.get(j, f.zero), f.mul(c, y))
                    if f.is_zero(d):
                        del out[j]
                    else:
                        out[j] = d
        return out

    def add(self, vec):
        f = self.field
        v = self.reduce_sparse(self._sparse(vec))
        if self.width is None:
            self.width = len(vec)
        if not v:
            return False
        pc = min(v)
        inv = f.inv(v.pop(pc))
        v = {j: f.mul(inv, x) for j, x in v.items()}
        for row in self._rows.values():
            c = row.pop(pc, None)
            if c is None:
                continue
            for j, y in v.items():
                d = f.sub(row.get(j, f.zero), f.mul(c, y))
                if f.is_zero(d):
                    del row[j]
                else:
                    row[j] = d
        v[pc] = f.one
        self._rows[pc] = v
        return True


def fraction_nullspace(rows, field):
    if not rows:
        return []
    echelon = FractionEchelon(field, rows)
    ncols = echelon.width
    basis = {}
    for fc in range(ncols):
        if fc not in echelon._rows:
            basis[fc] = [field.zero] * ncols
            basis[fc][fc] = field.one
    for pc, row in echelon._rows.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = field.neg(x)
    return list(basis.values())


def fraction_solve_all(rows, bs, field):
    if not rows or not bs:
        return [[] for _ in bs]
    ncols = len(rows[0])
    echelon = FractionEchelon(field, [list(r) + [b[i] for b in bs]
                                      for i, r in enumerate(rows)])
    out = [[field.zero] * ncols for _ in bs]
    inconsistent = set()
    for pc, row in echelon._rows.items():
        if pc >= ncols:
            inconsistent.update(row)
            continue
        for j, x in row.items():
            if j >= ncols:
                out[j - ncols][pc] = x
    return [None if ncols + i in inconsistent else x
            for i, x in enumerate(out)]


BIG_INT = st.integers(min_value=-50, max_value=50)
# ints and fractions with denominators 2..6, a third of them zero
RATIONAL = st.one_of(
    st.just(0), BIG_INT,
    st.builds(Fraction, st.integers(min_value=-30, max_value=30),
              st.integers(min_value=2, max_value=6)))


@st.composite
def stacks_with_rhs(draw, entry):
    """(rows, right-hand sides): up to 7 rows of width 0..6 and up to
    three right-hand sides, with repeated and combined rows mixed in so
    that stacks are often dependent."""
    width = draw(st.integers(min_value=0, max_value=6))
    vector = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(vector, max_size=7))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(min_value=-3, max_value=3))
            rows.append([x + k * y for x, y in zip(a, b)])
    height = st.lists(entry, min_size=len(rows), max_size=len(rows))
    return rows, draw(st.lists(height, max_size=3))


def _lifted(vec, field):
    return [fields.lift(x, field) for x in vec]


def _assert_values(values, field):
    """Every value a field element: a Fraction over Q, a residue mod p."""
    if field is QQ:
        assert all(type(x) is Fraction for x in values)
    else:
        assert all(type(x) is int and 0 <= x < field.p for x in values)


def _check_against_the_fraction_loop(field, rows, bs):
    new, ref = fields.Echelon(field), FractionEchelon(field)
    for row in rows:
        lifted = _lifted(row, field)
        sparse = ref._sparse(row)
        expected = ref.reduce_sparse(sparse)
        # field values, and the values as given: ints over GF(p) are
        # taken unreduced
        for v in (sparse, sparsify(row)):
            got = new.reduce_sparse(v)
            assert got == expected
            _assert_values(got.values(), field)
            assert new.contains_sparse(v) is not expected
        assert new.add_sparse(sparsify(row)) is ref.add(lifted)
        assert new.pivots == ref.pivots
        kept = dense_rows(new, len(row))
        assert kept == ref.rows
        assert len(new) == len(ref.pivots)
        for dense in kept:
            _assert_values(dense, field)
    matrix = [_lifted(r, field) for r in rows]
    kernel = fields.nullspace(rows, field)
    assert kernel == fraction_nullspace(matrix, field)
    for vec in kernel:
        _assert_values(vec, field)
    rhs = [_lifted(b, field) for b in bs]
    assert fields.solve_all(rows, bs, field) == \
        fraction_solve_all(matrix, rhs, field)
    assert fields.rref(rows, field) == (ref.rows, ref.pivots)


@settings(max_examples=150, deadline=None)
@given(stacks_with_rhs(BIG_INT))
def test_integer_rows_match_the_fraction_loop_over_q(stack):
    _check_against_the_fraction_loop(QQ, *stack)


@settings(max_examples=150, deadline=None)
@given(stacks_with_rhs(RATIONAL))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 6), 0]],
          [[Fraction(5, 6), Fraction(-1, 4)]]))
def test_fraction_rows_match_the_fraction_loop_over_q(stack):
    _check_against_the_fraction_loop(QQ, *stack)


@settings(max_examples=150, deadline=None)
@given(stacks_with_rhs(BIG_INT))
def test_integer_rows_match_the_fraction_loop_over_gf5(stack):
    _check_against_the_fraction_loop(GF(5), *stack)


def test_kept_rows_are_primitive_integer_rows():
    echelon = echelon_of([[2, 4, 6, 1], [Fraction(-1, 2), 0, 3, 0],
                          [0, 0, 0, Fraction(7, 3)]], QQ)
    for pc, row in echelon._rows.items():
        assert all(type(x) is int for x in row.values())
        assert row[pc] > 0 and gcd(*row.values()) == 1
        assert not any(c in echelon._rows for c in row if c != pc)
    over_gf5 = echelon_of([[2, 4, 6, 1], [-1, 0, 3, 0]], GF(5))
    for pc, row in over_gf5._rows.items():
        assert row[pc] == 1 and all(0 < x < 5 for x in row.values())


def test_sparse_ints_are_reduced_mod_p_on_entry():
    # a boundary column as it is kept: -1, a multiple of 5 and 7 over GF(5)
    echelon = fields.Echelon(GF(5))
    assert echelon.add_sparse({0: -1, 1: 5, 2: 7})
    assert echelon._rows == {0: {0: 1, 2: 3}}
    assert not echelon.add_sparse({0: 4, 2: 2, 3: 10})
    assert echelon.contains_sparse({0: 6, 2: 18})
    assert echelon.reduce_sparse({0: 1, 1: -6}) == {1: 4, 2: 2}


def _multiplications(module, call):
    """The value of ``call()`` and the number of multiplications executed
    in the code of ``module``'s functions and methods while it ran, by
    tracing opcodes."""
    targets = {}

    def collect(code):
        targets[code] = {i.offset for i in dis.get_instructions(code)
                         if i.opname in ("BINARY_MULTIPLY",
                                         "INPLACE_MULTIPLY")
                         or (i.opname == "BINARY_OP" and
                             i.argrepr in ("*", "*="))}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                collect(const)

    for obj in vars(module).values():
        for fn in [obj] + list(vars(obj).values() if isinstance(obj, type)
                               else []):
            fn = getattr(fn, "fget", fn)
            code = getattr(fn, "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                collect(code)
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode" and frame.f_lasti in targets[frame.f_code]:
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        if frame.f_code not in targets:
            return None
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        value = call()
    finally:
        sys.settrace(previous)
    return value, count


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
    echelon, products = _multiplications(
        fields, lambda: echelon_of(rows, QQ))
    nonzeros = sum(1 for row in rows for x in row if x)
    assert len(echelon) in (199, 200)
    assert products <= 2 * nonzeros


def test_vectors_of_another_width_are_rejected():
    for bad in ([1], [0, 0], [1, 0, 0, 0]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fields.row_space_contains([[1, 0, 0]], bad, QQ)
        for helper in (fields.rref, fields.rank, fields.nullspace):
            with pytest.raises(ValueError, match="dimension mismatch"):
                helper([[1, 0, 0], bad], QQ)
    # a zero row sets the width too
    with pytest.raises(ValueError, match="dimension mismatch"):
        fields.row_space_contains([[0, 0]], [1], QQ)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fields.rank([[0, 0], [1]], QQ)
    with pytest.raises(ValueError, match="dimension mismatch"):
        fields.rref([[1, 2, 3], [1, 0]], QQ)

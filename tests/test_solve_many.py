"""Solving many right-hand sides against one factorisation.

``snf.int_solve_all`` and ``fields.solve_all`` are checked against
one-at-a-time solvers that factor the matrix again for every vector, and
the homology cache is checked to factor each boundary matrix once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from conftest import (dense_complex, dense_smith, int_identity, mat_from_int,
                      mat_vec)
from torushom import fields, snf
from torushom.fields import GF, QQ, ZZ
from torushom.generator import polygon_with_holes

ENTRY = st.integers(min_value=-3, max_value=3)


@st.composite
def systems(draw, max_rows=6, max_cols=5):
    """A matrix with a batch of right-hand sides: images A @ x of random
    integer vectors, which are always solvable, mixed with random vectors,
    which often are not."""
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    ncols = draw(st.integers(min_value=0, max_value=max_cols)) if nrows else 0
    rows = [draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    bs = []
    for consistent in draw(st.lists(st.booleans(), max_size=6)):
        if consistent:
            x = draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))
            bs.append(mat_vec(rows, x, ZZ))
        else:
            bs.append(draw(st.lists(ENTRY, min_size=nrows, max_size=nrows)))
    return rows, bs


def reference_int_solve(m, b):
    """One Smith form per right-hand side, with dense products."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    u, d, v, _ = dense_smith(snf.smith_normal_form(m))
    y = mat_vec(u, b, ZZ)
    x = [0] * ncols
    for i in range(nrows):
        di = d[i][i] if i < min(nrows, ncols) else 0
        if di:
            if y[i] % di:
                return None
            x[i] = y[i] // di
        elif y[i]:
            return None
    return mat_vec(v, x, ZZ)


def reference_solve(rows, b, field):
    """One elimination of [rows | b] per right-hand side."""
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = fields.rref([list(r) + [bi] for r, bi in zip(rows, b)],
                              field)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = ech[r][ncols]
    return x


def _solves(rows, x, b, field):
    return mat_vec(rows, x, field) == b


class TestIntegerSolveAll:
    @settings(deadline=None, max_examples=150)
    @given(systems())
    def test_matches_one_at_a_time(self, system):
        rows, bs = system
        batch = snf.int_solve_all(rows, bs)
        assert len(batch) == len(bs)
        for b, x in zip(bs, batch):
            assert x == reference_int_solve(rows, b)
            assert x == snf.int_solve(rows, b)
            if x is not None:
                assert mat_vec(rows, x, ZZ) == b

    def test_edge_cases(self):
        assert snf.int_solve_all([[1, 2]], []) == []
        assert snf.int_solve_all([], [[], []]) == [[], []]
        assert snf.int_solve_all([[], []], [[0, 0], [1, 0]]) == [[], None]
        assert snf.int_solve_all([[2, 0], [0, 3]],
                                 [[4, 3], [1, 0], [0, 0]]) == [
            [2, 1], None, [0, 0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            snf.int_solve_all([[1, 0], [0, 1]], [[1, 0], [1]])
        with pytest.raises(ValueError):
            fields.solve_all([[QQ.one]], [[QQ.one, QQ.one]], QQ)


class TestFieldSolveAll:
    @settings(deadline=None, max_examples=150)
    @given(systems(), st.sampled_from([QQ, GF(5)]))
    def test_matches_one_at_a_time(self, system, field):
        rows, bs = system
        rows = mat_from_int(rows, field)
        bs = [[field.from_int(x) for x in b] for b in bs]
        batch = fields.solve_all(rows, bs, field)
        assert len(batch) == len(bs)
        for b, x in zip(bs, batch):
            assert x == reference_solve(rows, b, field)
            assert x == fields.solve(rows, b, field)
            if x is not None:
                assert _solves(rows, x, b, field)

    @settings(deadline=None, max_examples=60)
    @given(systems())
    def test_integers_go_to_the_smith_form(self, system):
        rows, bs = system
        assert fields.solve_all(rows, bs, ZZ) == snf.int_solve_all(rows, bs)

    def test_edge_cases(self):
        for field in (QQ, GF(5)):
            one = field.one
            assert fields.solve_all([[one]], [], field) == []
            assert fields.solve_all([], [[], []], field) == [[], []]
            assert fields.solve_all(
                [[], []], [[field.zero, field.zero], [one, field.zero]],
                field) == [[], None]


def unimodular(ops, n):
    """A product of elementary integer matrices."""
    m = int_identity(n)
    for i, j, q, swap in ops:
        i, j = i % n, j % n
        if swap:
            m[i], m[j] = m[j], m[i]
        elif i != j:
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


class TestInverse:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(-3, 3), st.booleans()),
                    max_size=12))
    def test_matches_sympy(self, n, ops):
        m = unimodular(ops, n)
        inverse = snf.int_inverse(m)
        assert Matrix(inverse) == Matrix(m).inv()


class TestFactorOnce:
    """An integral homology group costs at most two Smith forms, one of the
    boundary into its degree and one for the kernel of the boundary out of
    it, with no inverse and no batch solve; a group is computed once per
    complex."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(snf, name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(snf, name, counting)
        return calls

    @staticmethod
    def _complex(selector):
        corner = polygon_with_holes((6, 4, 3), seed=3).manifold.corner
        return corner.complex_for(selector)

    def test_integral_homology_factors_each_matrix_once(self, monkeypatch):
        complexes = [self._complex(selector)
                     for selector in ("boundary", "space", "pair")]
        calls = self._count(monkeypatch, "smith_normal_form")
        inverses = self._count(monkeypatch, "int_inverse")
        solves = self._count(monkeypatch, "int_solve_all")
        for cx in complexes:
            for k in cx.degrees():
                before = len(calls)
                group = cx.homology(k)
                assert len(calls) - before <= 2
                before = len(calls)
                assert cx.homology(k) is group
                assert cx.homology(k, ZZ) is group
                assert len(calls) == before
        assert calls
        assert not inverses and not solves
    def test_integral_diagonal_is_factored_once_per_degree(self,
                                                          monkeypatch):
        m = polygon_with_holes((6, 4, 3), seed=3).manifold
        calls = self._count(monkeypatch, "invariant_factors")
        table = m.bigraded_table(ZZ)
        first = len(calls)
        assert m.total_betti(ZZ) == tuple(
            sum(comp.free_rank for (k, l), comp in table.items()
                if k + l == total) for total in range(2 * m.n + 1))
        m.euler_characteristic(ZZ)
        assert 0 < first <= m.n
        assert len(calls) == first

    def test_fresh_complex_gives_an_equal_group(self):
        def view(group):
            return (group.free_rank, group.torsion, group.free_generators,
                    group.torsion_generators, group.labels, group.coeffs)

        for k in (0, 1, 2):
            first = self._complex("space").homology(k)
            second = self._complex("space").homology(k)
            assert first is not second
            assert view(first) == view(second)

    def test_coefficients_have_their_own_entries(self):
        cx = self._complex("boundary")
        integral = cx.homology(1)
        rational = cx.homology(1, QQ)
        mod_five = cx.homology(1, GF(5))
        assert rational is not integral and rational.coeffs is QQ
        assert mod_five is not rational and mod_five.coeffs == GF(5)
        assert cx.homology(1, GF(5)) is mod_five
        assert cx.homology(1, QQ) is rational
        assert cx.homology(1, GF(3)) is not mod_five

    def test_torsion_groups_are_cached_too(self, monkeypatch):
        # One vertex, two loops and a disc on twice the first: H_1 = Z + Z/2.
        cx = dense_complex({0: ["v"], 1: ["a", "b"], 2: ["F"]},
                           {1: [[0, 0]], 2: [[2], [0]]})
        calls = self._count(monkeypatch, "smith_normal_form")
        group = cx.homology(1)
        assert (group.free_rank, group.torsion) == (1, [2])
        assert len(calls) <= 2
        calls.clear()
        assert cx.homology(1) is group
        assert not calls

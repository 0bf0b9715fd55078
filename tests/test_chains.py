import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ilcm
from sympy import ZZ as SYMPY_ZZ
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from conftest import (assert_sparse_cycle, boundary_matrix, dense_complex,
                      densify, mat_vec, sparsify)
from test_sparse_snf import boundary_order

from torushom.chains import ChainComplex
from torushom.errors import ValidationError
from torushom.fields import GF, QQ, ZZ
from torushom import snf


def ranks(c, coeffs):
    return {k: c.homology(k, coeffs).rank for k in c.degrees()}


def circle():
    # triangle boundary: three vertices, three edges
    bases = {0: ["a", "b", "c"], 1: ["ab", "bc", "ca"]}
    boundaries = {1: [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]}
    return dense_complex(bases, boundaries)


def projective_plane():
    # one cell in each degree, degree-two boundary multiplies by 2
    return dense_complex({0: ["v"], 1: ["a"], 2: ["F"]},
                         {1: [[0]], 2: [[2]]})


def torus_cw():
    return dense_complex({0: ["v"], 1: ["a", "b"], 2: ["F"]},
                         {1: [[0, 0]], 2: [[0], [0]]})


def klein_bottle_cw():
    return dense_complex({0: ["v"], 1: ["a", "b"], 2: ["F"]},
                         {1: [[0, 0]], 2: [[0], [2]]})


class TestValidation:
    def test_boundary_squared_must_vanish(self):
        with pytest.raises(ValidationError):
            dense_complex({0: ["v"], 1: ["e"], 2: ["F"]},
                          {1: [[1]], 2: [[1]]})

    def test_unchecked_complex_fails_on_integral_homology(self):
        c = dense_complex({0: ["v"], 1: ["e"], 2: ["F"]},
                          {1: [[1]], 2: [[1]]}, check=False)
        with pytest.raises(ValidationError, match="not a cycle in degree 1"):
            c.homology(1)

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
    def test_unchecked_complex_fails_on_field_homology(self, field):
        # d_1 d_2 = 1: the rank formula alone would read H_1 as rank -1
        c = dense_complex({0: ["v"], 1: ["e"], 2: ["F"]},
                          {1: [[1]], 2: [[1]]}, check=False)
        with pytest.raises(ValidationError, match="not a cycle in degree 1"):
            c.homology(1, field)
        assert c.homology(0, field).rank == 0


class TestBoundaryForm:
    def test_columns_are_sparse_with_rows_in_order(self):
        # terms come in any order, repeat, and may cancel
        terms = {"e": [("w", 1), ("v", -1)],
                 "f": [("x", 2), ("v", 1), ("x", -2), ("v", -1), ("w", 3)]}
        c = ChainComplex({0: ["v", "w", "x"], 1: ["e", "f"]},
                         lambda cell: terms.get(cell, ()))
        assert repr(c.boundaries) == "{1: [{0: -1, 1: 1}, {1: 3}]}"
        assert boundary_matrix(c, 1) == [[-1, 0], [1, 3], [0, 0]]
        assert densify(c.boundary_of(1, sparsify([2, 1])), 3) == [-2, 5, 0]
        assert densify(c.boundary_of(1, sparsify([QQ.one, QQ.zero]), QQ),
                       3) == [-1, 1, 0]

    def test_terms_outside_the_lower_basis_are_dropped(self):
        # the pair (interval, endpoints): the edge's boundary drops out
        terms = {"e": [("v", -1), ("w", 1)]}
        c = ChainComplex({1: ["e"]}, lambda cell: terms.get(cell, ()))
        assert c.boundaries == {}
        assert ranks(c, ZZ) == {1: 1}
        c = ChainComplex({0: ["w"], 1: ["e"]},
                         lambda cell: terms.get(cell, ()))
        assert c.boundaries == {1: [{0: 1}]}
        assert ranks(c, ZZ) == {0: 0, 1: 0}

    def test_a_base_must_be_a_prefix(self):
        """A subcomplex given as ``base`` is refused unless its basis
        starts the basis in every degree; one that does lends its columns
        and reads no terms of its cells again."""
        terms = {"e": [("v", -1), ("w", 1)], "f": [("v", -1), ("w", 1)]}
        read = []

        def reading(cell):
            read.append(cell)
            return terms.get(cell, ())

        base = ChainComplex({0: ["v", "w"], 1: ["e"]}, reading)
        with pytest.raises(ValueError, match="not a prefix"):
            ChainComplex({0: ["w", "v"], 1: ["e", "f"]}, reading, base)
        c = ChainComplex({0: ["v", "w"], 1: ["e", "f"]}, reading, base)
        assert c.boundaries[1][0] is base.boundaries[1][0]
        assert read == ["e", "f"]
        assert ranks(c, ZZ) == {0: 1, 1: 1}

    def test_the_square_is_composed_sparsely(self):
        assert ranks(circle().validate(), QQ) == {0: 1, 1: 1}


class TestIntegerHomology:
    def test_circle(self):
        c = circle()
        h0 = c.homology(0)
        h1 = c.homology(1)
        assert (h0.free_rank, h0.torsion) == (1, [])
        assert (h1.free_rank, h1.torsion) == (1, [])
        assert c.boundary_of(1, h1.free_generators[0]) == {}

    def test_projective_plane(self):
        c = projective_plane()
        assert c.homology(0).describe() == "Z"
        h1 = c.homology(1)
        assert h1.free_rank == 0
        assert h1.torsion == [2]
        assert c.homology(2).is_trivial()
        order, gen = h1.torsion_generators[0]
        assert order == 2
        doubled = [2 * x for x in densify(gen, c.dim(1))]
        assert snf.int_solve(boundary_matrix(c, 2), doubled) is not None

    def test_torus(self):
        c = torus_cw()
        assert ranks(c, ZZ) == {0: 1, 1: 2, 2: 1}
        assert all(not c.homology(k).torsion for k in (0, 1, 2))

    def test_klein_bottle(self):
        c = klein_bottle_cw()
        h1 = c.homology(1)
        assert h1.free_rank == 1
        assert h1.torsion == [2]
        assert c.homology(2).is_trivial()

    def test_free_generators_are_independent_cycles(self):
        c = torus_cw()
        h1 = c.homology(1)
        assert len(h1.free_generators) == 2
        for g in h1.free_generators:
            assert c.boundary_of(1, g) == {}
        assert len(snf.invariant_factors(
            [densify(g, c.dim(1)) for g in h1.free_generators])) == 2


ENTRY = st.integers(min_value=-3, max_value=3)


@st.composite
def three_term_complexes(draw):
    """C_2 -> C_1 -> C_0 with a random first boundary and a second boundary
    K @ A, where the columns of K span the kernel of the first over Q
    (scaled to integers, so not always saturated) and A is random: the
    groups often have torsion in degrees 0 and 1."""
    dims = [draw(st.integers(min_value=0, max_value=5)) for _ in range(3)]
    d1 = [draw(st.lists(ENTRY, min_size=dims[1], max_size=dims[1]))
          for _ in range(dims[0])]
    if dims[0]:
        kernel = []
        for vec in Matrix(d1).nullspace():
            scale = ilcm(1, *[x.q for x in vec]) * draw(st.integers(1, 3))
            kernel.append([int(x * scale) for x in vec])
    else:
        kernel = [[int(i == j) for i in range(dims[1])]
                  for j in range(dims[1])]
    mix = [draw(st.lists(ENTRY, min_size=dims[2], max_size=dims[2]))
           for _ in kernel]
    d2 = [[sum(kernel[t][i] * mix[t][j] for t in range(len(kernel)))
           for j in range(dims[2])] for i in range(dims[1])]
    return dims, {1: d1, 2: d2}


def _is_boundary(bdry, vec):
    """Whether ``vec`` is an integer combination of the columns of
    ``bdry``, read off sympy's Smith form S @ bdry @ T = D."""
    if not bdry or not bdry[0]:
        return not any(vec)
    d, s, _ = smith_normal_decomp(Matrix(bdry), domain=SYMPY_ZZ)
    y = s * Matrix(vec)
    for i, yi in enumerate(y):
        di = d[i, i] if i < d.cols else 0
        if (yi % di if di else yi):
            return False
    return True


class TestRandomComplexes:
    @settings(deadline=None, max_examples=150)
    @given(three_term_complexes())
    def test_groups_and_generators_match_sympy(self, complex_data):
        dims, bdry = complex_data
        c = dense_complex({k: ["c%d_%d" % (k, i) for i in range(n)]
                           for k, n in enumerate(dims)}, bdry)
        mats = {k: boundary_matrix(c, k) for k in range(4)}

        def rank(k):
            return Matrix(mats[k]).rank() if mats[k] and mats[k][0] else 0

        for k in range(3):
            group = c.homology(k)
            upper = mats[k + 1]
            factors = []
            if upper and upper[0]:
                factors = [abs(int(f)) for f in invariant_factors(
                    Matrix(upper), domain=SYMPY_ZZ)]
            assert group.free_rank == dims[k] - rank(k) - rank(k + 1)
            assert group.torsion == [f for f in factors if f > 1]
            for gen in group.free_generators + [
                    t for _, t in group.torsion_generators]:
                assert_sparse_cycle(c, k, gen)
            if group.free_rank:
                stacked = [list(col) for col in zip(*upper)] + [
                    densify(g, dims[k]) for g in group.free_generators]
                assert Matrix(stacked).rank() == rank(k + 1) + group.free_rank
            for order, gen in group.torsion_generators:
                dense = densify(gen, dims[k])
                assert _is_boundary(upper, [order * x for x in dense])
                assert not _is_boundary(upper, dense)
                assert boundary_order(upper, dense) == order


class TestFieldHomology:
    def test_projective_plane_mod_two(self):
        c = projective_plane()
        f2 = GF(2)
        assert ranks(c, f2) == {0: 1, 1: 1, 2: 1}

    def test_projective_plane_rational(self):
        c = projective_plane()
        assert ranks(c, QQ) == {0: 1, 1: 0, 2: 0}
        assert ranks(c, GF(3)) == {0: 1, 1: 0, 2: 0}

    def test_klein_bottle_mod_two(self):
        assert ranks(klein_bottle_cw(), GF(2)) == {0: 1, 1: 2, 2: 1}

    def test_field_representatives_are_cycles(self):
        c = circle()
        h = c.homology(1, QQ)
        assert h.free_rank == 1
        v = h.free_generators[0]
        mat = [[QQ.from_int(x) for x in row] for row in boundary_matrix(c, 1)]
        assert all(QQ.is_zero(x)
                   for x in mat_vec(mat, densify(v, c.dim(1), QQ.zero), QQ))


class TestEmptyDegrees:
    def test_missing_degree_is_trivial(self):
        c = circle()
        assert c.homology(5).is_trivial()
        assert c.homology(-1).is_trivial()

    def test_point(self):
        c = dense_complex({0: ["v"]}, {})
        assert c.homology(0).describe() == "Z"
        assert c.homology(1).is_trivial()

import pytest

from conftest import mat_vec

from torushom.chains import ChainComplex, betti_numbers
from torushom.errors import ValidationError
from torushom.fields import GF, QQ, ZZ
from torushom import snf


def circle():
    # triangle boundary: three vertices, three edges
    bases = {0: ["a", "b", "c"], 1: ["ab", "bc", "ca"]}
    boundaries = {1: [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]}
    return ChainComplex(bases, boundaries)


def projective_plane():
    # one cell in each degree, degree-two boundary multiplies by 2
    return ChainComplex({0: ["v"], 1: ["a"], 2: ["F"]},
                        {1: [[0]], 2: [[2]]})


def torus_cw():
    return ChainComplex({0: ["v"], 1: ["a", "b"], 2: ["F"]},
                        {1: [[0, 0]], 2: [[0], [0]]})


def klein_bottle_cw():
    return ChainComplex({0: ["v"], 1: ["a", "b"], 2: ["F"]},
                        {1: [[0, 0]], 2: [[0], [2]]})


class TestValidation:
    def test_boundary_squared_must_vanish(self):
        with pytest.raises(ValidationError):
            ChainComplex({0: ["v"], 1: ["e"], 2: ["F"]},
                         {1: [[1]], 2: [[1]]})

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ChainComplex({0: ["v", "w"], 1: ["e"]}, {1: [[1]]})


class TestIntegerHomology:
    def test_circle(self):
        c = circle()
        h0 = c.homology(0)
        h1 = c.homology(1)
        assert (h0.free_rank, h0.torsion) == (1, [])
        assert (h1.free_rank, h1.torsion) == (1, [])
        assert c.is_cycle(1, h1.free_generators[0])

    def test_projective_plane(self):
        c = projective_plane()
        assert c.homology(0).describe() == "Z"
        h1 = c.homology(1)
        assert h1.free_rank == 0
        assert h1.torsion == [2]
        assert c.homology(2).is_trivial()
        order, gen = h1.torsion_generators[0]
        assert order == 2
        doubled = [2 * x for x in gen]
        assert snf.int_solve(c.boundary_matrix(2), doubled) is not None

    def test_torus(self):
        c = torus_cw()
        assert betti_numbers(c, ZZ) == {0: 1, 1: 2, 2: 1}
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
            assert c.is_cycle(1, g)
        assert len(snf.invariant_factors(
            [list(g) for g in h1.free_generators])) == 2


class TestFieldHomology:
    def test_projective_plane_mod_two(self):
        c = projective_plane()
        f2 = GF(2)
        assert betti_numbers(c, f2) == {0: 1, 1: 1, 2: 1}

    def test_projective_plane_rational(self):
        c = projective_plane()
        assert betti_numbers(c, QQ) == {0: 1, 1: 0, 2: 0}
        assert betti_numbers(c, GF(3)) == {0: 1, 1: 0, 2: 0}

    def test_klein_bottle_mod_two(self):
        assert betti_numbers(klein_bottle_cw(), GF(2)) == {0: 1, 1: 2, 2: 1}

    def test_field_representatives_are_cycles(self):
        c = circle()
        h = c.homology(1, QQ)
        assert h.free_rank == 1
        v = h.free_generators[0]
        mat = [[QQ.from_int(x) for x in row] for row in c.boundary_matrix(1)]
        assert all(QQ.is_zero(x) for x in mat_vec(mat, v, QQ))


class TestEmptyDegrees:
    def test_missing_degree_is_trivial(self):
        c = circle()
        assert c.homology(5).is_trivial()
        assert c.homology(-1).is_trivial()

    def test_point(self):
        c = ChainComplex({0: ["v"]}, {})
        assert c.homology(0).describe() == "Z"
        assert c.homology(1).is_trivial()

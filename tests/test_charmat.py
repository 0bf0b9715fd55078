import pytest
from sympy import Matrix

from torushom.charmat import CharacteristicMatrix
from torushom.errors import StarConditionError, ValidationError
from torushom.facering import FaceRingQuotient
from torushom.fields import GF, QQ, ZZ

from conftest import (ANNULUS_ROWS, build_annulus_poset, build_cross_polytope,
                      build_gauged_cross_polytope, build_square_poset)
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes


class TestConstruction:
    def test_row_access(self, annulus_charmat):
        assert annulus_charmat.row(7) == (-3, -5)
        assert annulus_charmat.n == 2

    def test_missing_row(self, square_poset):
        with pytest.raises(ValidationError):
            CharacteristicMatrix(square_poset, {1: (1, 0)})

    def test_wrong_length(self, square_poset):
        rows = {1: (1, 0, 0), 2: (0, 1), 3: (1, 0), 4: (0, 1)}
        with pytest.raises(ValidationError):
            CharacteristicMatrix(square_poset, rows)

    @pytest.mark.parametrize("bad", [(1.7, 0), (True, 0), ("1", 0), (3.9, 1),
                                     (1.0, 0), 1],
                             ids=["float", "bool", "text", "rounded",
                                  "integral-float", "scalar"])
    def test_non_integer_row_rejected(self, square_poset, bad):
        rows = {1: bad, 2: (0, 1), 3: (1, 0), 4: (0, 1)}
        with pytest.raises(ValidationError, match="vertex 1"):
            CharacteristicMatrix(square_poset, rows)

    def test_extra_row(self, square_poset):
        rows = {1: (1, 0), 2: (0, 1), 3: (1, 0), 4: (0, 1), 99: (1, 1)}
        with pytest.raises(ValidationError):
            CharacteristicMatrix(square_poset, rows)


class TestStarCondition:
    def test_examples_pass_over_z(self, square_charmat, annulus_charmat,
                                  digon_charmat):
        for cm in (square_charmat, annulus_charmat, digon_charmat):
            assert cm.check_star(ZZ)
            assert cm.check_star(QQ)
            assert cm.check_star(GF(2))

    def test_degenerate_row_caught(self):
        poset = build_annulus_poset()
        rows = dict(ANNULUS_ROWS)
        rows[7] = (-3, -6)  # parallel to (1, 2) on the shared cell
        cm = CharacteristicMatrix(poset, rows)
        with pytest.raises(StarConditionError) as err:
            cm.check_star(ZZ)
        assert "13" in str(err.value)

    def test_field_only_matrix(self):
        poset = build_square_poset()
        rows = {1: (1, 0), 2: (0, 2), 3: (1, 0), 4: (0, 1)}
        cm = CharacteristicMatrix(poset, rows)
        with pytest.raises(StarConditionError):
            cm.check_star(ZZ)
        with pytest.raises(StarConditionError):
            cm.check_star(GF(2))
        assert cm.check_star(QQ)
        assert cm.check_star(GF(3))

    def test_failed_integral_check_keeps_the_field_check(self):
        """Only a pass over Z is kept, so a matrix that fails over Z is
        still checked over each field: a face ring over GF(2) rejects it,
        and over Q and GF(3) each cell's substitution is the inverse of
        its vertex matrix, det 2 included."""
        poset = build_square_poset()
        rows = {1: (1, 0), 2: (0, 2), 3: (1, 0), 4: (0, 1)}
        cm = CharacteristicMatrix(poset, rows)
        with pytest.raises(StarConditionError):
            cm.check_star(ZZ)
        with pytest.raises(StarConditionError):
            FaceRingQuotient(poset, cm, field=GF(2))
        for field in (QQ, GF(3)):
            quo = FaceRingQuotient(poset, cm, field=field)
            for top in poset.elements_of_rank(2):
                position, inverse = quo._substitution(top)
                inside = sorted(poset.ver(top))
                assert position == {w: r for r, w in enumerate(inside)}
                for r in range(2):
                    for c, w in enumerate(inside):
                        entry = sum(inverse[r][j] * cm.row(w)[j]
                                    for j in range(2))
                        assert field.is_zero(entry - int(r == c))

    def test_integral_pass_is_kept(self, annulus_charmat, monkeypatch):
        assert annulus_charmat.check_star(ZZ)
        monkeypatch.setattr(CharacteristicMatrix, "_minor_table", None)
        assert annulus_charmat.check_star(GF(2))
        assert annulus_charmat.check_star(QQ)


class TestComplementaryMinors:
    def test_vertex_coefficients(self, annulus_charmat):
        cm = annulus_charmat
        # dropping axis 2 keeps column 1, dropping axis 1 negates column 2
        assert cm.c_coefficient(4, [2]) == 3
        assert cm.c_coefficient(4, [1]) == -1
        assert cm.c_coefficient(7, [1]) == 5
        assert cm.c_coefficient(7, [2]) == -3

    def test_edge_coefficients(self, annulus_charmat):
        cm = annulus_charmat
        expected = {8: 1, 9: -1, 10: 1, 11: 1, 12: 1, 13: 1, 14: -1}
        for edge, value in expected.items():
            assert cm.c_coefficient(edge, []) == value

    def test_axis_validation(self, annulus_charmat):
        with pytest.raises(ValidationError):
            annulus_charmat.c_coefficient(4, [3])
        with pytest.raises(ValidationError):
            annulus_charmat.c_coefficient(4, [1, 2])
        with pytest.raises(ValidationError):
            annulus_charmat.c_coefficient(8, [1])


MINOR_SHAPES = {
    "cross3": lambda: CharacteristicMatrix(*build_cross_polytope(3)),
    "cross4": lambda: CharacteristicMatrix(*build_cross_polytope(4)),
    "cross5": lambda: CharacteristicMatrix(*build_cross_polytope(5)),
    "cross3-gauged": lambda: CharacteristicMatrix(
        *build_gauged_cross_polytope(3, seed=1)),
    "cross4-gauged": lambda: CharacteristicMatrix(
        *build_gauged_cross_polytope(4, seed=2)),
    "polygon_5_4_3": lambda: polygon_with_holes(
        (5, 4, 3), seed=7).manifold.charmat,
    "square_hole": lambda: resolve_fixture("square_hole").manifold.charmat,
}


def sympy_minor(cm, g, axes):
    """c(g, A) from its definition: (-1)^(m(m+1)/2 + the sum of the kept
    columns, counted from 1) times the sympy determinant of the rows of
    the m vertices of g, in increasing order, on the columns outside A."""
    verts = sorted(cm.poset.ver(g))
    kept = [j for j in range(1, cm.n + 1) if j not in axes]
    m = len(verts)
    det = Matrix([[cm.row(v)[j - 1] for j in kept] for v in verts]).det()
    return (-1) ** (m * (m + 1) // 2 + sum(kept)) * int(det)


class TestMinorTable:
    @pytest.mark.parametrize("shape", sorted(MINOR_SHAPES))
    def test_table_is_the_complementary_minors(self, shape):
        """Every entry of every rank's table, and ``c_coefficient``, which
        reads it, is the signed minor c(g, A) that sympy computes
        (``sympy_minor``), in ``axis_subsets`` and ``elements_of_rank``
        order.  The gauged cross-polytopes and square_hole carry vertex
        matrices that are not signed permutations."""
        cm = MINOR_SHAPES[shape]()
        for k in range(cm.n + 1):
            gens = cm.poset.elements_of_rank(k)
            table = cm._minor_table(k)
            assert [axes for axes, _ in table] == [
                tuple(sorted(axes)) for axes in cm.axis_subsets(cm.n - k)]
            for axes, minors in table:
                expected = [sympy_minor(cm, g, axes) for g in gens]
                assert minors == expected
                assert [cm.c_coefficient(g, axes) for g in gens] == expected

    def test_star_check_reads_the_top_table(self, monkeypatch):
        """The top-cell determinants of ``check_star`` are the rank-n
        table, kept: a second check over another field and the top-rank
        push compute none again."""
        cm = CharacteristicMatrix(*build_cross_polytope(4))
        assert cm.check_star(QQ)
        [(axes, dets)] = cm._minors[cm.n]
        assert axes == ()
        assert all(d in (1, -1) for d in dets)
        monkeypatch.setattr(CharacteristicMatrix, "_cell_minors", None)
        assert cm.check_star(GF(3))
        tops = cm.poset.elements_of_rank(cm.n)
        rows, _ = cm.push(cm.n, [("x", {0: 1})])
        assert rows == [{0: dets[0]}] and len(dets) == len(tops)


class TestTheta:
    def test_annulus_parameters(self, annulus_charmat):
        assert annulus_charmat.theta(1) == {1: 1, 3: 1, 4: 3, 5: 2, 6: 1,
                                            7: -3}
        assert annulus_charmat.theta(2) == {2: 1, 4: 1, 5: 3, 6: 2, 7: -5}

    def test_square_parameters(self, square_charmat):
        assert square_charmat.theta(1) == {1: 1, 3: 1}
        assert square_charmat.theta(2) == {2: 1, 4: 1}

    def test_out_of_range(self, square_charmat):
        with pytest.raises(ValidationError):
            square_charmat.theta(0)

    def test_axis_subsets(self, annulus_charmat):
        assert annulus_charmat.axis_subsets(1) == [frozenset([1]),
                                                   frozenset([2])]
        assert annulus_charmat.axis_subsets(0) == [frozenset()]

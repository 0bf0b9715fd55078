import pytest

from torushom.charmat import CharacteristicMatrix
from torushom.errors import StarConditionError, ValidationError
from torushom.fields import GF, QQ, ZZ

from conftest import ANNULUS_ROWS, build_annulus_poset, build_square_poset


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

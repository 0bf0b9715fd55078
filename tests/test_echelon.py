"""The incremental echelon basis against sympy's ranks."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.polys.domains import GF as SympyGF
from sympy.polys.matrices import DomainMatrix

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


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_built_basis_is_the_rref(rows):
    lifted = fields.mat_from_int(rows, QQ)
    echelon = fields.Echelon(QQ)
    for row in lifted:
        echelon.add(row)
    assert echelon.rows == fields.Echelon(QQ, lifted).rows
    assert echelon.pivots == fields.rref(lifted, QQ)[1]

"""The incremental echelon basis and ``rref`` against sympy."""

from fractions import Fraction

from hypothesis import example, given, settings
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


def int_stacks(width):
    entry = st.integers(min_value=-3, max_value=3)
    return st.lists(st.lists(entry, min_size=width, max_size=width),
                    min_size=0, max_size=7).map(lambda rows: (width, rows))


stacks = st.integers(min_value=0, max_value=5).flatmap(int_stacks)


def _sympy_rref_q(width, rows):
    ech, pivots = Matrix(len(rows), width, sum(rows, [])).rref()
    return ([[Fraction(int(x.p), int(x.q)) for x in ech.row(i)]
             for i in range(len(pivots))], list(pivots))


def _sympy_rref_gf5(width, rows):
    domain = SympyGF(5)
    ech, pivots = DomainMatrix([[domain(x) for x in row] for row in rows],
                               (len(rows), width), domain).rref()
    return ([[int(x) % 5 for x in row] for row in ech.to_list()[:len(pivots)]],
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
    assert fields.rref(fields.mat_from_int(rows, QQ), QQ) == \
        _sympy_rref_q(width, rows)


@settings(max_examples=80, deadline=None)
@given(stacks)
@example(EDGE_STACKS[0])
@example(EDGE_STACKS[1])
@example(EDGE_STACKS[2])
def test_rref_matches_sympy_over_gf5(stack):
    width, rows = stack
    field = GF(5)
    assert fields.rref(fields.mat_from_int(rows, field), field) == \
        _sympy_rref_gf5(width, rows)


"""Multiplication by a vertex through the kept sparse products, checked
against the dense loop it replaced: every vertex times every generator in
every degree, the action matrices and socle membership.  The Buchsbaum
check, which reads the homology of each link from the local complex of
its element and only in the degrees that can fail, is checked against
the loop over every degree of every link, built as a poset
(``test_posets.reference_buchsbaum``)."""

import random

import pytest

from torushom.errors import ValidationError
from torushom.facering import FaceRingQuotient
from torushom.fields import GF, QQ, lift, solve_all
from torushom.fixtures import bundled_names, resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.posets import BOTTOM, SimplicialPoset

from conftest import build_cross_polytope, densify, sparsify, unit_vector
from test_cross_polytope import build_digon_square_join
from test_posets import reference_buchsbaum, triangle_pair_at_vertex
from test_push import SHAPES, _fixture, _poset_and_charmat, \
    tetrahedron_boundary

FIELDS = [QQ, GF(2), GF(5)]
FIELD_IDS = ["QQ", "GF2", "GF5"]


# --- the dense loop, as it was before the kept products ------------------


class DenseReference:
    """Multiplication by a vertex as one dense loop over the coordinates of
    the input, solving for every vertex outside the chosen maximal cell."""

    def __init__(self, quo):
        self.quo = quo
        self._tables = {}

    def simplex_above(self, e):
        quo = self.quo
        tops = [m for m in quo.poset.elements_of_rank(quo.n)
                if quo.poset.le(e, m)]
        if "simplex_above" in vars(quo):  # a custom choice, set by _quotient
            return quo.simplex_above(e)
        return min(tops, key=lambda m: (sorted(map(repr, quo.poset.ver(m))),
                                        repr(m)))

    def substitution(self, top):
        table = self._tables.get(top)
        if table is not None:
            return table
        quo, field = self.quo, self.quo.field
        inside = sorted(quo.poset.ver(top))
        outside = [v for v in quo.poset.vertices() if v not in inside]
        matrix = [[field.from_int(quo.charmat.row(w)[j]) for w in inside]
                  for j in range(quo.n)]
        rhs = [[field.neg(field.from_int(quo.charmat.row(u)[j]))
                for j in range(quo.n)] for u in outside]
        table = {w: {} for w in inside}
        for u, x in zip(outside, solve_all(matrix, rhs, field)):
            assert x is not None
            for w, c in zip(inside, x):
                if not field.is_zero(c):
                    table[w][u] = c
        self._tables[top] = table
        return table

    def vertex_action(self, i, vec, k):
        quo, field = self.quo, self.quo.field
        src, dst = quo.presentation(k), quo.presentation(k + 1)
        out = [field.zero] * len(dst.generators)

        def add_joins(a, elt, coeff, base):
            for j_elt in quo.poset.join_set(a, elt):
                c = dst.column(j_elt)
                signed = field.mul(
                    coeff, field.from_int(base * quo._orient(j_elt)))
                out[c] = field.add(out[c], signed)

        for idx, coeff in enumerate(lift(x, field) for x in vec):
            if field.is_zero(coeff):
                continue
            elt = src.generators[idx]
            base = quo._orient(i) * quo._orient(elt)
            if elt is BOTTOM:
                c = dst.column(i)
                out[c] = field.add(out[c], coeff)
            elif not quo.poset.le(i, elt):
                add_joins(i, elt, coeff, base)
            else:
                top = self.simplex_above(elt)
                for u, cu in self.substitution(top)[i].items():
                    add_joins(u, elt, field.mul(coeff, cu), base)
        return dst.reduce(out)

    def action_matrix(self, i, k):
        src, dst = self.quo.presentation(k), self.quo.presentation(k + 1)
        cols = []
        for g in src.basis:
            image = self.vertex_action(i, unit_vector(src, g), k)
            cols.append([image[c] for c in dst._basis_cols])
        return [[col[r] for col in cols] for r in range(len(dst.basis))]

    def in_socle(self, vec, k):
        quo = self.quo
        dst = quo.presentation(k + 1)
        v = quo.presentation(k).reduce(vec)
        return all(all(quo.field.is_zero(x) for x in dst.reduce(
            self.vertex_action(i, v, k))) for i in quo.poset.vertices())


# --- helpers -------------------------------------------------------------


def _flips(poset):
    return {e for k in range(1, poset.top_rank + 1)
            for e in poset.elements_of_rank(k)[::2]}


def _last_top(e, tops):
    return max(tops, key=repr)


def _quotient(shape, field, flipped=False, choice=None):
    """The quotient of a shape; with ``choice``, its ``simplex_above``
    takes choice(e, tops above e) in place of the least cell."""
    poset, charmat = _poset_and_charmat(shape)
    flips = _flips(poset) if flipped else ()
    quo = FaceRingQuotient(poset, charmat, field, flips=flips)
    if choice is not None:
        quo.simplex_above = lambda e: choice(e, poset.tops_above(e))
    return quo


def _pushed_vectors(shape, quo, flipped):
    """The socle-placement vectors of ``novik_swartz_check``, by degree k
    of the quotient, moved to the gauge-flipped signs by negating the
    flipped generators (none for the tetrahedron, which has no
    manifold)."""
    if shape == "tetrahedron":
        return {}
    m = _fixture(shape).manifold
    flips = _flips(m.poset) if flipped else set()
    out = {}
    for q in range(m.n):
        k = m.n - q
        hq = m.corner.homology("boundary", q, quo.field)
        vectors, _ = m.charmat.push(k, enumerate(hq.free_generators),
                                    quo.field)
        gens = m.poset.elements_of_rank(k)
        out[k] = [[quo.field.neg(x) if g in flips else x for g, x in
                   zip(gens, densify(vec, len(gens), quo.field.zero))]
                  for vec in vectors]
    return out


def _seeded_vectors(quo, k, rng, count=6):
    size = len(quo.presentation(k).generators)
    return [[rng.randint(-3, 3) for _ in range(size)] for _ in range(count)]


def _check_products(quo):
    ref = DenseReference(quo)
    checked = 0
    for k in range(quo.n + 1):
        pres = quo.presentation(k)
        for i in quo.poset.vertices():
            for g in pres.generators:
                unit = unit_vector(pres, g)
                assert quo.vertex_action(i, unit, k) == \
                    ref.vertex_action(i, unit, k), (i, g, k)
                checked += 1
            assert quo.action_matrix(i, k) == ref.action_matrix(i, k), (i, k)
    assert checked


def _check_socle(shape, quo, flipped=False, seed=3):
    ref = DenseReference(quo)
    rng = random.Random(seed)
    pushed = _pushed_vectors(shape, quo, flipped)
    verdicts = []
    for k in range(quo.n + 1):
        vectors = (pushed.get(k, []) + quo.socle_basis(k)
                   + _seeded_vectors(quo, k, rng))
        for vec in vectors:
            got = quo.in_socle(sparsify(vec), k)
            assert got == ref.in_socle(vec, k), (k, vec)
            verdicts.append(got)
        assert all(quo.in_socle(sparsify(vec), k)
                   for vec in pushed.get(k, []))
    assert True in verdicts
    # every degree of the digon quotient is socle
    assert (False in verdicts) is (shape != "digon")


# --- products and socle membership ---------------------------------------


ALL_SHAPES = SHAPES + ["tetrahedron"]


@pytest.mark.parametrize("flipped", [False, True], ids=["default", "gauged"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_products_match_the_dense_loop(shape, field, flipped):
    _check_products(_quotient(shape, field, flipped))


@pytest.mark.parametrize("flipped", [False, True], ids=["default", "gauged"])
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_socle_membership_matches_the_dense_loop(shape, field, flipped):
    _check_socle(shape, _quotient(shape, field, flipped), flipped)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", ["square_hole", "polygon-6-4-3",
                                   "tetrahedron"])
def test_custom_simplex_choice_matches_the_dense_loop(shape, field):
    quo = _quotient(shape, field, choice=_last_top)
    _check_products(quo)
    _check_socle(shape, quo)


def test_general_vectors_match_the_dense_loop():
    quo = _quotient("polygon-6-4-3", GF(5), flipped=True)
    ref = DenseReference(quo)
    rng = random.Random(7)
    for k in range(quo.n + 1):
        for vec in _seeded_vectors(quo, k, rng):
            for i in quo.poset.vertices():
                assert quo.vertex_action(i, vec, k) == \
                    ref.vertex_action(i, vec, k)


@pytest.mark.parametrize("bad", ["nope", 99, BOTTOM, 8])
def test_non_vertices_are_rejected(bad):
    """An id that is no poset element, the bottom and an edge (id 8 of
    square_hole) are all refused with the same message."""
    quo = resolve_fixture("square_hole").manifold.quotient(QQ)
    assert 8 in quo.poset.elements_of_rank(2)
    unit = unit_vector(quo.presentation(1), quo.poset.vertices()[0])
    with pytest.raises(ValidationError, match="is not a vertex"):
        quo.vertex_action(bad, unit, 1)
    with pytest.raises(ValidationError, match="is not a vertex"):
        quo.action_matrix(bad, 1)


def test_maximal_cells_above_each_element():
    poset, _ = tetrahedron_boundary()
    tops = poset.elements_of_rank(poset.top_rank)
    for e in poset.elements(include_bottom=True):
        assert poset.tops_above(e) == [m for m in tops if poset.le(e, m)]


def test_elements_are_a_fresh_list_each_call():
    poset = triangle_pair_at_vertex()
    first = poset.elements()
    first.clear()
    assert poset.elements() == sorted(
        poset.elements(), key=lambda e: (poset.rank(e), repr(e)))
    assert len(poset.elements()) == 13
    assert poset.elements(include_bottom=True)[0] is BOTTOM
    assert len(poset.elements()) == 13


# --- the Buchsbaum check -------------------------------------------------


def _impure_poset():
    return SimplicialPoset([1, 2, 3, 4],
                           [{"id": "e12", "vertices": [1, 2]},
                            {"id": "e13", "vertices": [1, 3]},
                            {"id": "e23", "vertices": [2, 3]},
                            {"id": "T", "vertices": [1, 2, 3]},
                            {"id": "tail", "vertices": [1, 4]}])


BUCHSBAUM_POSETS = {
    "triangle_pair_at_vertex": triangle_pair_at_vertex,
    "impure": _impure_poset,
    "tetrahedron": lambda: tetrahedron_boundary()[0],
    "cross3": lambda: build_cross_polytope(3)[0],
    "cross4": lambda: build_cross_polytope(4)[0],
    "digon_square_join": lambda: build_digon_square_join()[0],
    "12,6,6 seed 3": lambda: polygon_with_holes((12, 6, 6), seed=3).poset,
}
for _name in bundled_names():
    BUCHSBAUM_POSETS[_name] = (lambda name=_name:
                               resolve_fixture(name).poset)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("name", sorted(BUCHSBAUM_POSETS))
def test_buchsbaum_failures_match_the_all_degrees_loop(name, field):
    poset = BUCHSBAUM_POSETS[name]()
    assert poset.buchsbaum_check(field) == reference_buchsbaum(poset, field)


def test_buchsbaum_failures_are_found():
    ok, failures = _impure_poset().buchsbaum_check()
    assert not ok
    assert failures == reference_buchsbaum(_impure_poset(), QQ)[1]
    assert ("purity", None) in failures and ("tail", -1) in failures
    ok, failures = triangle_pair_at_vertex().buchsbaum_check()
    assert (1, 0) in failures

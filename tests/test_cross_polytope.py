"""Face products at n = 3 and 4, against the face ring modulo the linear
system.

Two shapes carry the products.  The boundary of the 4-dimensional
cross-polytope has vertices ±e_i with λ(±e_i) = e_i and no interior
cells.  The join of a digon and the boundary of a square is a 3-sphere
whose vertex sets {a1, a2} ∪ τ each carry two faces, one over each edge
of the digon, so it is not a simplicial complex.

A product x_a·x_b from ``IntersectionCalculator.intersect`` of faces of
ranks adding to n is a combination Σ c_g x_g of facets.  Under the
orientation of the sign table, x_e stands for ``_orient(e)``·v_e in the
face ring, so the product is right exactly when

    _orient(a)·_orient(b)·v_a·v_b − Σ c_g·_orient(g)·v_g

lies in the weight-n part of the parameter ideal, spanned by
``theta_rows`` (the reference ring of ``test_facering``).  Every product
must resolve and match it, under the default signs and after a gauge
change of ten seeded elements.  Products of three faces must also be
associative and commutative on both shapes and the 3-cross-polytope.
"""

import random
from itertools import count

import pytest

from conftest import build_cross_polytope, echelon_of, sparsify
from test_facering import FaceRing, theta_rows
from torushom.charmat import CharacteristicMatrix
from torushom.cycles import (CycleExpression, GeometryOracle,
                             IntersectionCalculator)
from torushom.errors import UnresolvableError
from torushom.fields import GF, QQ
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex
from torushom.posets import BOTTOM, SimplicialPoset

FIELDS = [QQ, GF(5)]
FIELD_IDS = ["QQ", "GF5"]


def build_digon_square_join():
    """The join of a digon (vertices a1 = 1 and a2 = 2, edges 7 and 8)
    and the boundary of a square (vertices b1..b4 = 3..6, edges 9..12):
    one face per pair of faces, with λ(a1) = e1, λ(a2) = e1 + e2,
    λ(b1) = λ(b3) = e3 and λ(b2) = λ(b4) = e4.  Returns (poset, rows)."""
    # the faces of each side: id -> (vertices, codimension-one faces)
    digon = {BOTTOM: ((), ()), 1: ((1,), (BOTTOM,)), 2: ((2,), (BOTTOM,)),
             7: ((1, 2), (1, 2)), 8: ((1, 2), (1, 2))}
    square = {BOTTOM: ((), ())}
    square.update({v: ((v,), (BOTTOM,)) for v in (3, 4, 5, 6)})
    square.update({e: (vs, vs) for e, vs in
                   ((9, (3, 4)), (10, (4, 5)), (11, (5, 6)), (12, (3, 6)))})
    fresh = count(13)
    ids = {(s, t): t if s is BOTTOM else s if t is BOTTOM else next(fresh)
           for s in digon for t in square}
    cells = [{"id": ids[(s, t)], "vertices": list(sv + tv),
              "faces": ([ids[(f, t)] for f in sf]
                        + [ids[(s, f)] for f in tf])}
             for s, (sv, sf) in digon.items()
             for t, (tv, tf) in square.items() if len(sv + tv) >= 2]
    rows = {1: (1, 0, 0, 0), 2: (1, 1, 0, 0), 3: (0, 0, 1, 0),
            4: (0, 0, 0, 1), 5: (0, 0, 1, 0), 6: (0, 0, 0, 1)}
    return SimplicialPoset([1, 2, 3, 4, 5, 6], cells), rows


SHAPES = {
    "cross3": lambda: build_cross_polytope(3),
    "cross4": lambda: build_cross_polytope(4),
    "join": build_digon_square_join,
}


def calculator(shape, flip_seed=None, field=QQ):
    """The calculator on a shape with no interior cells.  With
    ``flip_seed`` ten seeded faces are reversed."""
    poset, rows = SHAPES[shape]()
    flips = ()
    if flip_seed is not None:
        flips = random.Random(flip_seed).sample(poset.elements(), 10)
    manifold = TorusManifold(CornerComplex(poset, [], flips=flips),
                             CharacteristicMatrix(poset, rows))
    return IntersectionCalculator(manifold, GeometryOracle(), field=field)


def products(flip_seed=None, field=QQ, ranks=(2, 2), shape="cross4"):
    """Each product x_a·x_b over faces a, b of the given ranks, as
    (a, b, True when it matches the reference, False when not, None when
    it raises ``UnresolvableError``)."""
    calc = calculator(shape, flip_seed, field)
    poset, n = calc.poset, calc.n
    quo = calc.manifold.quotient(field)
    ring = FaceRing(poset)
    monos, theta = theta_rows(quo, n)
    column = {m: i for i, m in enumerate(monos)}
    ideal = echelon_of(theta, field)
    out = []
    for a in poset.elements_of_rank(ranks[0]):
        for b in poset.elements_of_rank(ranks[1]):
            try:
                expr = calc.intersect(CycleExpression.face(a),
                                      CycleExpression.face(b))
            except UnresolvableError:
                out.append((a, b, None))
                continue
            diff = [0] * len(monos)
            for mono, c in ring.mul(ring.generator(a),
                                    ring.generator(b)).items():
                diff[column[mono]] += c * quo._orient(a) * quo._orient(b)
            diff = [field.from_int(x) for x in diff]
            for (_, g), c in expr.iter_terms():
                at = column[(g,)]
                diff[at] = field.sub(
                    diff[at], field.mul(c, field.from_int(quo._orient(g))))
            out.append((a, b, ideal.contains_sparse(sparsify(diff))))
    return out


def test_join_has_two_faces_on_each_vertex_set_with_both_a():
    poset, _ = build_digon_square_join()
    assert poset.f_vector() == (1, 6, 14, 16, 8)
    for e in poset.elements():
        same = [x for x in poset.elements() if poset.ver(x) == poset.ver(e)]
        assert len(same) == (2 if {1, 2} <= poset.ver(e) else 1)


@pytest.mark.parametrize("flip_seed", [None, 1, 2])
@pytest.mark.parametrize("ranks", [(1, 3), (3, 1)])
def test_vertex_products_match_the_ring(flip_seed, ranks):
    found = products(flip_seed, ranks=ranks)
    assert len(found) == 8 * 32
    assert all(ok for _, _, ok in found)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_edge_product_resolves(field):
    found = products(field=field)
    assert len(found) == 24 * 24
    assert [(a, b) for a, b, ok in found if ok is None] == []
    assert all(ok for _, _, ok in found)


@pytest.mark.parametrize("flip_seed", [1, 2])
def test_edge_products_follow_a_gauge_change(flip_seed):
    found = products(flip_seed)
    assert len(found) == 24 * 24
    assert [(a, b) for a, b, ok in found if ok is not True] == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("flip_seed", [None, 1, 2])
@pytest.mark.parametrize("ranks", [(2, 2), (1, 3)])
def test_join_products_match_the_ring(ranks, flip_seed, field):
    found = products(flip_seed, field, ranks, shape="join")
    assert len(found) == {(2, 2): 14 * 14, (1, 3): 6 * 16}[ranks]
    assert [(a, b) for a, b, ok in found if ok is not True] == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("flip_seed", [None, 1, 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_products_are_associative_and_commutative(shape, flip_seed, field):
    calc = calculator(shape, flip_seed, field)
    elements = calc.poset.elements()
    rng = random.Random("%s/%s" % (shape, flip_seed))
    triples = []
    while len(triples) < 200:
        triple = [rng.choice(elements) for _ in range(3)]
        if sum(calc.poset.rank(e) for e in triple) <= calc.n:
            triples.append([CycleExpression.face(e) for e in triple])
    for a, b, c in triples:
        ab = calc.intersect(a, b)
        assert calc.reduced_faces(ab) == \
            calc.reduced_faces(calc.intersect(b, a)), (a, b)
        assert calc.reduced_faces(calc.intersect(ab, c)) == \
            calc.reduced_faces(calc.intersect(a, calc.intersect(b, c))), \
            (a, b, c)

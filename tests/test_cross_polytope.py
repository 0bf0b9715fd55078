"""Face products at n = 4, against the face ring modulo the linear system.

The shape is the boundary of the 4-dimensional cross-polytope: vertices
±e_i with λ(±e_i) = e_i and no interior cells.  A product x_a·x_b of
faces of ranks adding to 4 from ``IntersectionCalculator.intersect`` is a
combination Σ c_g x_g of facets.  Under the orientation of the sign
table, x_e stands for ``_orient(e)``·v_e in the face ring, so the product
is right exactly when

    _orient(a)·_orient(b)·v_a·v_b − Σ c_g·_orient(g)·v_g

lies in the weight-4 part of the parameter ideal, spanned by
``theta_rows(4)``.  The products through a vertex match this reference
under any signs.  The rank-2 × rank-2 products do not yet: the 24
squares x_σ² cannot be reduced at all (every other product matches under
the default signs), and ``_ring_product`` ignores the orientation, so a
gauge change of the signs makes some products wrong.  Both are pinned as
strict expected failures.
"""

import random

import pytest

from conftest import build_cross_polytope
from torushom.charmat import CharacteristicMatrix
from torushom.cycles import (CycleExpression, GeometryOracle,
                             IntersectionCalculator)
from torushom.errors import UnresolvableError
from torushom.facering import FaceRing
from torushom.fields import GF, QQ, Echelon
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex

N = 4


def products(flip_seed=None, field=QQ, ranks=(2, 2)):
    """Each product x_a·x_b over faces a, b of the given ranks, as
    (a, b, True when it matches the reference, False when not, None when
    it raises ``UnresolvableError``).  With ``flip_seed`` the signs are
    gauged by ten seeded elements."""
    poset, rows = build_cross_polytope(N)
    signs = None
    if flip_seed is not None:
        flips = random.Random(flip_seed).sample(poset.elements(), 10)
        signs = poset.gauge_transform(poset.default_sign_convention(), flips)
    manifold = TorusManifold(CornerComplex(poset, [], signs=signs),
                             CharacteristicMatrix(poset, rows))
    calc = IntersectionCalculator(manifold, GeometryOracle(), field=field)
    orient = manifold.quotient(field)._orient
    ring = FaceRing(poset)
    monos, theta = manifold.quotient(field).theta_rows(N)
    column = {m: i for i, m in enumerate(monos)}
    ideal = Echelon(field, theta)
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
                diff[column[mono]] += c * orient(a) * orient(b)
            diff = [field.from_int(x) for x in diff]
            for (_, g), c in expr.iter_terms():
                at = column[(g,)]
                diff[at] = field.sub(diff[at],
                                     field.mul(c, field.from_int(orient(g))))
            out.append((a, b, ideal.contains(diff)))
    return out


@pytest.mark.parametrize("flip_seed", [None, 1, 2])
@pytest.mark.parametrize("ranks", [(1, 3), (3, 1)])
def test_vertex_products_match_the_ring(flip_seed, ranks):
    found = products(flip_seed, ranks=ranks)
    assert len(found) == 8 * 32
    assert all(ok for _, _, ok in found)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a square x_σ² is a nested face product that "
                          "_monomial_vector cannot reduce")
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_every_edge_product_resolves(field):
    found = products(field=field)
    assert [(a, b) for a, b, ok in found if ok is None] == []
    assert all(ok for _, _, ok in found)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_ring_product multiplies in the face ring "
                          "without the orientation of the sign table")
@pytest.mark.parametrize("flip_seed", [1, 2])
def test_edge_products_follow_a_gauge_change(flip_seed):
    found = products(flip_seed)
    assert sum(ok is not None for _, _, ok in found) >= 24 * 23
    assert [(a, b) for a, b, ok in found if ok is False] == []

"""The connecting map over a field against the dense solve it replaced.

``CornerComplex.delta_image`` reads the homology coordinates of each
connecting-map chain off one echelon of the kept boundary columns, with
the boundary homology generators tagged past the basis, and
``_inclusion_kernel`` reads the kernel of the inclusion off the same kind
of echelon over the space complex.  The reference below is the earlier
route: a dense matrix [generators | boundaries], solved with
``fields.solve_all`` for the coordinates and cut down with
``fields.nullspace`` for the kernel.  Coordinates are unique, so the
chains and coordinates must be equal exactly, and the kernels must span
the same rows.

The inputs are the bundled fixtures, seeded polygons with holes, and two
3-spheres of ``test_cross_polytope`` (the boundary of the 4-dimensional
cross-polytope and the join of a digon and a square), each filled by one
4-cell on its fundamental cycle so that the connecting map is not zero.
"""

import pytest

from conftest import build_cross_polytope
from test_cross_polytope import build_digon_square_join
from torushom import fields
from torushom.fields import GF, QQ
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.orbit import CornerComplex

FIELDS = [QQ, GF(2), GF(5)]
FIELD_IDS = ["QQ", "GF2", "GF5"]


def coordinate_matrix(hgroup, source, target, q, coeffs):
    """The matrix [generators | boundaries] over the degree-q basis of the
    complex ``target``: first the free generators of ``hgroup``, given
    over the degree-q basis of ``source``, then the boundary columns of
    ``target`` from degree q+1.  Returns the rows and the number of
    generator columns."""
    gens = hgroup.free_generators
    bmat = target.boundary_matrix(q + 1)
    zero = coeffs.zero
    mat = [[zero] * len(gens) + [coeffs.from_int(x) if x else zero
                                 for x in row]
           for row in bmat]
    index = {c: i for i, c in enumerate(target.basis(q))}
    for j, gen in enumerate(gens):
        for label, value in zip(source.basis(q), gen):
            mat[index[label]][j] = fields.lift(value, coeffs)
    return mat, len(gens)


def reference_delta_image(cx, q, coeffs):
    pair, space, face = (cx.pair_complex(), cx.space_complex(),
                         cx.boundary_complex())
    hpair = pair.homology(q + 1, coeffs)
    hface = face.homology(q, coeffs)
    if not hpair.free_generators or not hface.free_generators:
        return [], []
    faces = [coeffs.zero] * (space.dim(q + 1) - pair.dim(q + 1))
    nface = face.dim(q)
    chains = [space.boundary_of(q + 1, faces + rep, coeffs)[:nface]
              for rep in hpair.free_generators]
    mat, ngen = coordinate_matrix(hface, face, face, q, coeffs)
    coords = [sol[:ngen] for sol in fields.solve_all(mat, chains, coeffs)]
    return CornerComplex._independent_rows(chains, coords, coeffs)


def reference_inclusion_kernel(cx, q, field):
    face, space = cx.boundary_complex(), cx.space_complex()
    hface = face.homology(q, field)
    mat, ngen = coordinate_matrix(hface, face, space, q, field)
    return [vec[:ngen] for vec in fields.nullspace(mat, field)
            if any(vec[:ngen])]


def filled_sphere(build):
    """A sphere with no interior cells, then filled by one top cell whose
    boundary is the integral fundamental cycle of its face cells."""
    poset = build()
    n = poset.top_rank
    hollow = CornerComplex(poset)
    face = hollow.boundary_complex()
    (cycle,) = face.homology(n - 1).free_generators
    ball = {"id": "ball", "dim": n,
            "boundary": [[c, x] for c, x in zip(face.basis(n - 1), cycle)
                         if x]}
    return CornerComplex(poset, [ball])


SHAPES = {
    "square": lambda: resolve_fixture("square").manifold.corner,
    "square_hole": lambda: resolve_fixture("square_hole").manifold.corner,
    "digon": lambda: resolve_fixture("digon").manifold.corner,
    "polygon-643-s1": lambda: polygon_with_holes((6, 4, 3), seed=1)
    .manifold.corner,
    "polygon-643-s3": lambda: polygon_with_holes((6, 4, 3), seed=3)
    .manifold.corner,
    "polygon-844-s2": lambda: polygon_with_holes((8, 4, 4), seed=2)
    .manifold.corner,
    "polygon-6-s5": lambda: polygon_with_holes((6,), seed=5).manifold.corner,
    "cross4": lambda: filled_sphere(lambda: build_cross_polytope(4)[0]),
    "join": lambda: filled_sphere(lambda: build_digon_square_join()[0]),
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_connecting_map_matches_the_dense_solve(shape, field):
    cx = SHAPES[shape]()
    seen = 0
    for q in range(cx.n):
        chains, coords = cx.delta_image(q, field)
        assert (chains, coords) == reference_delta_image(cx, q, field)
        seen += len(chains)
        kernel = cx._inclusion_kernel(q, field)
        expected = reference_inclusion_kernel(cx, q, field)
        assert fields.row_spaces_equal(kernel, expected, field)
        assert len(kernel) == len(expected) == len(coords)
    assert seen


def test_coordinates_are_field_values():
    """Over Q the coordinates are ``Fraction``s, as the solve gave them,
    and over GF(p) residues."""
    cx = SHAPES["square_hole"]()
    for field in FIELDS:
        for q in range(cx.n):
            _, coords = cx.delta_image(q, field)
            expected = reference_delta_image(cx, q, field)[1]
            assert [[type(x) for x in row] for row in coords] == \
                [[type(x) for x in row] for row in expected]

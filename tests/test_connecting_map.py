"""The connecting map against the dense solves it replaced.

``CornerComplex.delta_image`` reads the homology coordinates of each
connecting-map chain off one echelon of the kept boundary columns, with
the boundary homology generators tagged past the basis, over Q for the
integers; the kernel of the inclusion is the tail of the same kind of
echelon over the space complex (``_tracked_echelon``).  The reference
below is the earlier route: a dense matrix [generators | boundaries],
solved with ``fields.solve_all`` over a field and ``snf.int_solve_all``
over Z for the coordinates, and cut down with ``fields.nullspace`` for
the kernel.  The kept rows were then chosen greedily over a field, and
over Z mixed by one Smith form of the coordinates into a lattice basis.

Coordinates are unique, so over a field the chains and coordinates must be
equal exactly, and the kernels must span the same rows.  Over Z every
chain with a nonzero coordinate is kept, with the coordinates the Smith
solve gives; the relation rows of the limit page (first kind plus the
pushed chains) must span the same lattice as with the recombined chains,
and the integral bigraded table must be the same.

The inputs are the bundled fixtures, seeded polygons with holes, the
punctured torus of ``conftest`` (where a connecting-map chain has zero
coordinates), and two 3-spheres of ``test_cross_polytope`` (the boundary
of the 4-dimensional cross-polytope and the join of a digon and a
square), each filled by one 4-cell on its fundamental cycle so that the
connecting map is not zero.  The integral tests also run on square_hole
with a second arc, where two chains have dependent nonzero coordinates.
"""

import pytest

from conftest import (boundary_matrix, build_cross_polytope,
                      build_punctured_torus, densify, row_spaces_equal,
                      sparsify)
from test_cross_polytope import build_digon_square_join
from torushom import fields, snf
from torushom.charmat import CharacteristicMatrix
from torushom.fields import GF, QQ, ZZ
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex, InteriorCell

FIELDS = [QQ, GF(2), GF(5)]
FIELD_IDS = ["QQ", "GF2", "GF5"]


def coordinate_matrix(hgroup, source, target, q, coeffs):
    """The matrix [generators | boundaries] over the degree-q basis of the
    complex ``target``: first the free generators of ``hgroup``, given
    over the degree-q basis of ``source``, then the boundary columns of
    ``target`` from degree q+1.  Returns the rows and the number of
    generator columns."""
    gens = hgroup.free_generators
    bmat = boundary_matrix(target, q + 1)
    zero = coeffs.zero
    mat = [[zero] * len(gens) + [coeffs.from_int(x) if x else zero
                                 for x in row]
           for row in bmat]
    index = {c: i for i, c in enumerate(target.basis(q))}
    labels = source.basis(q)
    for j, gen in enumerate(gens):
        for i, value in gen.items():
            mat[index[labels[i]]][j] = fields.lift(value, coeffs)
    return mat, len(gens)


def reference_chains(cx, q, coeffs):
    """Every connecting-map chain with its coordinates, solved densely:
    one Smith form over Z, one elimination over a field."""
    pair, space, face = (cx.pair_complex(), cx.space_complex(),
                         cx.boundary_complex())
    hpair = pair.homology(q + 1, coeffs)
    hface = face.homology(q, coeffs)
    if not hpair.free_generators or not hface.free_generators:
        return [], []
    shift = space.dim(q + 1) - pair.dim(q + 1)
    chains = [densify(space.boundary_of(
        q + 1, {shift + i: x for i, x in rep.items()}, coeffs),
        face.dim(q), coeffs.zero) for rep in hpair.free_generators]
    mat, ngen = coordinate_matrix(hface, face, face, q, coeffs)
    if coeffs is ZZ:
        solutions = snf.int_solve_all(mat, chains)
    else:
        solutions = fields.solve_all(mat, chains, coeffs)
    return chains, [sol[:ngen] for sol in solutions]


def independent_rows(chains, coords, coeffs):
    """The earlier choice of kept rows.  Over a field the greedy choice.
    Over Z the first r rows of U in one Smith form U·coords·V = D, r the
    rank, mix the chains and the coordinates into a lattice basis."""
    if coeffs is not ZZ:
        span = fields.Echelon(coeffs)
        kept = [i for i, row in enumerate(coords)
                if span.add_sparse(sparsify(row))]
        return [chains[i] for i in kept], [coords[i] for i in kept]
    if not coords:
        return [], []
    factors, u, _, _ = snf.smith_normal_form(coords)

    def mix(weights, vectors):
        out = [0] * len(vectors[0])
        for j, q in weights.items():
            for i, x in enumerate(vectors[j]):
                out[i] += q * x
        return out

    rows = u[:len(factors)]
    return ([mix(w, chains) for w in rows],
            [mix(w, coords) for w in rows])


def reference_delta_image(cx, q, coeffs):
    return independent_rows(*reference_chains(cx, q, coeffs), coeffs)


def reference_inclusion_kernel(cx, q, field):
    face, space = cx.boundary_complex(), cx.space_complex()
    hface = face.homology(q, field)
    mat, ngen = coordinate_matrix(hface, face, space, q, field)
    return [vec[:ngen] for vec in fields.nullspace(mat, field)
            if any(vec[:ngen])]


def same_lattice(rows, kept):
    """Every row is an integer combination of the kept rows, and back."""
    if not kept or not rows:
        return not any(any(row) for row in rows + kept)
    by_kept = [list(col) for col in zip(*kept)]
    by_rows = [list(col) for col in zip(*rows)]
    return (None not in snf.int_solve_all(by_kept, rows)
            and None not in snf.int_solve_all(by_rows, kept))


def filled_sphere(build):
    """A sphere with no interior cells, then filled by one top cell whose
    boundary is the integral fundamental cycle of its face cells, with
    its characteristic rows."""
    poset, rows = build()
    n = poset.top_rank
    hollow = CornerComplex(poset)
    face = hollow.boundary_complex()
    (cycle,) = face.homology(n - 1).free_generators
    ball = {"id": "ball", "dim": n,
            "boundary": [[face.basis(n - 1)[i], x]
                         for i, x in sorted(cycle.items())]}
    return TorusManifold(CornerComplex(poset, [ball]),
                         CharacteristicMatrix(poset, rows))


def square_hole_two_arcs():
    """square_hole with a second arc between its circles, which no 2-cell
    meets: a cell structure, not a manifold, whose connecting map into
    degree 0 has two nonzero dependent chains.  Z keeps both; a field
    keeps one."""
    fixture = resolve_fixture("square_hole")
    arc = InteriorCell("estar2", 1, [(9, 1), (12, 1)])
    cx = fixture.manifold.corner
    return TorusManifold(CornerComplex(cx.poset, cx.interior + [arc]),
                         fixture.manifold.charmat)


SHAPES = {
    "square": lambda: resolve_fixture("square").manifold,
    "square_hole": lambda: resolve_fixture("square_hole").manifold,
    "digon": lambda: resolve_fixture("digon").manifold,
    "punctured_torus": lambda: build_punctured_torus().manifold,
    "polygon-643-s1": lambda: polygon_with_holes((6, 4, 3), seed=1).manifold,
    "polygon-643-s3": lambda: polygon_with_holes((6, 4, 3), seed=3).manifold,
    "polygon-844-s2": lambda: polygon_with_holes((8, 4, 4), seed=2).manifold,
    "polygon-6-s5": lambda: polygon_with_holes((6,), seed=5).manifold,
    "cross4": lambda: filled_sphere(lambda: build_cross_polytope(4)),
    "join": lambda: filled_sphere(build_digon_square_join),
}
# the reference kernel of a cell structure that is not a manifold may hold
# dependent rows, so the field test's row counts apply to SHAPES only
INTEGRAL_SHAPES = {**SHAPES, "square_hole-two-arcs": square_hole_two_arcs}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_connecting_map_matches_the_dense_solve(shape, field):
    cx = SHAPES[shape]().corner
    seen = 0
    for q in range(cx.n):
        chains, coords = cx.delta_image(q, field)
        assert (chains, coords) == tuple(
            list(map(sparsify, part))
            for part in reference_delta_image(cx, q, field))
        seen += len(chains)
        hface = cx.boundary_complex().homology(q, field)
        echelon, m = cx._tracked_echelon(hface, cx.space_complex(), q, field)
        kernel = [[echelon.row(pc).get(m + j, field.zero)
                   for j in range(hface.rank)]
                  for pc in echelon.pivots if pc >= m]
        expected = reference_inclusion_kernel(cx, q, field)
        assert row_spaces_equal(kernel, expected, field)
        assert len(kernel) == len(expected) == len(coords)
    assert seen


@pytest.mark.parametrize("shape", sorted(INTEGRAL_SHAPES))
def test_integral_connecting_map_matches_the_smith_solve(shape):
    """Over Z the kept chains are the chains with a nonzero coordinate,
    in order, with the coordinates of the Smith solve, and the limit
    page's relation rows span the lattice of the recombined chains."""
    m = INTEGRAL_SHAPES[shape]()
    cx = m.corner
    seen = 0
    for q in range(cx.n):
        chains, coords = cx.delta_image(q, ZZ)
        every, solved = reference_chains(cx, q, ZZ)
        assert None not in solved
        assert list(zip(chains, coords)) == [
            (sparsify(chain), sparsify(coord))
            for chain, coord in zip(every, solved) if any(coord)]
        seen += len(chains)
        if q > m.n - 2:
            continue
        width = len(m.generators(q))
        first = m.first_kind_rows(q)
        recombined, _ = independent_rows(every, solved, ZZ)
        pushed = m.charmat.push(m.n - q, map(sparsify, recombined), ZZ)
        second = m.second_kind_rows(q, ZZ)
        assert same_lattice([densify(r, width) for r in first + second],
                            [densify(r, width) for r in first + pushed])
    assert seen


@pytest.mark.parametrize("shape", sorted(INTEGRAL_SHAPES))
def test_integral_bigraded_table_matches_the_recombined_chains(
        shape, monkeypatch):
    m, reference = INTEGRAL_SHAPES[shape](), INTEGRAL_SHAPES[shape]()
    images = {q: tuple(list(map(sparsify, part)) for part in
                       reference_delta_image(reference.corner, q, ZZ))
              for q in range(reference.n)}
    monkeypatch.setattr(reference.corner, "delta_image",
                        lambda q, coeffs: images[q])
    assert m.bigraded_table(ZZ) == reference.bigraded_table(ZZ)


def test_coordinates_are_field_values():
    """Over Q the coordinates are ``Fraction``s, as the solve gave them,
    over GF(p) residues and over Z ints."""
    cx = SHAPES["square_hole"]().corner
    for coeffs in FIELDS + [ZZ]:
        for q in range(cx.n):
            _, coords = cx.delta_image(q, coeffs)
            expected = reference_delta_image(cx, q, coeffs)[1]
            assert [{j: type(x) for j, x in row.items()}
                    for row in coords] == \
                [{j: type(x) for j, x in sparsify(row).items()}
                 for row in expected]

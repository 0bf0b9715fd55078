"""One push along the axes: the first-kind rows, the second-kind rows and
the socle-placement vectors are chains over the faces carried by
``CharacteristicMatrix.push``.  Each is checked here against the product
chain[g] * c(g, A) written out directly, and every pushed row, a {column:
value}, holds no entry that is zero in its coefficients."""

from itertools import combinations, product

import pytest

from torushom import fields
from torushom.charmat import CharacteristicMatrix
from torushom.facering import linear_relations
from torushom.fields import GF, QQ, ZZ, lift
from torushom.fixtures import resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.posets import SimplicialPoset

from conftest import densify, push_labels


def cover_loop_relations(poset, charmat, signs, k):
    """The first-kind rows built one cover at a time, as they were before
    the push: the reference the push is checked against."""
    gens = poset.elements_of_rank(k)
    col = {g: i for i, g in enumerate(gens)}
    rows, labels = [], []
    if k >= 1:
        for j_elt in poset.elements_of_rank(k - 1):
            covers = poset.upper_covers(j_elt)
            for axes in charmat.axis_subsets(charmat.n - k):
                row = [0] * len(gens)
                for i_elt in covers:
                    row[col[i_elt]] += (signs[(i_elt, j_elt)]
                                        * charmat.c_coefficient(i_elt, axes))
                rows.append(row)
                labels.append((j_elt, tuple(sorted(axes))))
    return rows, labels


def dense_rows(rows, width, coeffs):
    """Pushed rows as dense lists, after checking that no entry is zero
    in ``coeffs``."""
    assert not any(coeffs.is_zero(x) for row in rows for x in row.values())
    return [densify(row, width, coeffs.zero) for row in rows]


def tetrahedron_boundary():
    """The boundary of a 3-simplex with a unimodular characteristic
    matrix, so that the push is also checked at n = 3."""
    faces = [vs for size in (2, 3) for vs in combinations(range(1, 5), size)]
    cells = [{"id": 5 + i, "vertices": list(vs)} for i, vs in enumerate(faces)]
    poset = SimplicialPoset([1, 2, 3, 4], cells)
    rows = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (1, 1, 1)}
    return poset, CharacteristicMatrix(poset, rows)


def _fixture(shape):
    if shape.startswith("polygon"):
        lengths = tuple(int(x) for x in shape.split("-")[1:])
        return polygon_with_holes(lengths, seed=3)
    return resolve_fixture(shape)


SHAPES = ["digon", "square", "square_hole", "polygon-6-4-3",
          "polygon-12-6-6"]


def _poset_and_charmat(shape):
    if shape == "tetrahedron":
        return tetrahedron_boundary()
    fixture = _fixture(shape)
    return fixture.poset, fixture.charmat


PUSH_COEFFS = [ZZ, QQ, GF(2), GF(5)]
PUSH_IDS = ["ZZ", "QQ", "GF2", "GF5"]


@pytest.mark.parametrize("flipped", [False, True], ids=["default", "gauged"])
@pytest.mark.parametrize("shape", SHAPES + ["tetrahedron"])
def test_first_kind_rows_match_the_cover_loop(shape, flipped):
    poset, charmat = _poset_and_charmat(shape)
    signs = poset.sign_convention()
    if flipped:
        flips = {e for k in range(1, poset.top_rank + 1)
                 for e in poset.elements_of_rank(k)[::2]}
        signs = poset.sign_convention(flips)
        assert signs != poset.sign_convention()
    for k, coeffs in product(range(poset.top_rank + 1), PUSH_COEFFS):
        rows = linear_relations(poset, charmat, signs, k, coeffs)
        ref_rows, ref_labels = cover_loop_relations(poset, charmat, signs, k)
        width = len(poset.elements_of_rank(k))
        assert push_labels(charmat, k, poset.elements_of_rank(k - 1)) == \
            ref_labels, (k, coeffs)
        assert dense_rows(rows, width, coeffs) == \
            [[coeffs.from_int(x) for x in row] for row in ref_rows], \
            (k, coeffs)
        assert bool(rows) == (k >= 1)


@pytest.mark.parametrize("coeffs", PUSH_COEFFS, ids=PUSH_IDS)
@pytest.mark.parametrize("shape", ["square_hole", "polygon-6-4-3"])
def test_second_kind_rows_are_chains_times_minors(shape, coeffs):
    m = _fixture(shape).manifold
    built = 0
    for q in range(m.n - 1):
        chains, _ = m.corner.delta_image(q, coeffs)
        gens = m.generators(q)
        rows, labels = [], []
        for b, chain in enumerate(chains):
            dense = densify(chain, len(gens), coeffs.zero)
            for axes in combinations(range(1, m.n + 1), q):
                rows.append([coeffs.mul(z, coeffs.from_int(
                                 m.charmat.c_coefficient(g, axes)))
                             for z, g in zip(dense, gens)])
                labels.append((b, axes))
        got = m.second_kind_rows(q, coeffs)
        assert push_labels(m.charmat, m.n - q, range(len(chains))) == labels
        assert dense_rows(got, len(m.generators(q)), coeffs) == rows
        built += len(rows)
    assert built


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("shape", ["square_hole", "polygon-6-4-3"])
def test_socle_rank_is_the_rank_of_the_reduced_vectors(shape, field):
    m = _fixture(shape).manifold
    quo = m.quotient(field)
    kernels = 0
    for q in range(m.n):
        pres = quo.presentation(m.n - q)
        vectors = [[field.mul(lift(z, field), field.from_int(
                        m.charmat.c_coefficient(g, axes)))
                    for z, g in zip(densify(cls, len(pres.generators)),
                                    pres.generators)]
                   for cls in m.corner.homology("boundary", q,
                                                field).free_generators
                   for axes in combinations(range(1, m.n + 1), q)]
        report = m.novik_swartz_check(q, field)
        assert report["classes"] * report["axes"] == len(vectors)
        assert report["rank"] == fields.rank(
            [pres.reduce(v) for v in vectors], field)
        assert report["rank"] + report["kernel_dim"] == len(vectors)
        kernels += report["kernel_dim"]
    assert kernels  # the top degree has a kernel, so rank < vectors there


def test_push_rows_run_over_chains_then_axes():
    poset, charmat = tetrahedron_boundary()
    gens = poset.elements_of_rank(2)
    rows = charmat.push(2, [{0: 1}, {0: 2}], QQ)
    labels = push_labels(charmat, 2, [1, 2])
    assert labels == [(1, (1,)), (1, (2,)), (1, (3,)),
                      (2, (1,)), (2, (2,)), (2, (3,))]
    assert len(rows) == len(labels)
    for (scale, axes), row in zip(labels, rows):
        c = scale * charmat.c_coefficient(gens[0], axes)
        assert row == ({0: c} if c else {})
    assert charmat.push(2, [], QQ) == []

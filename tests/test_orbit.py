from collections import Counter
from fractions import Fraction

import pytest

from conftest import boundary_matrix, densify, mat_from_int
from torushom import fields, snf
from torushom.errors import CoefficientError, ValidationError
from torushom.fields import GF, QQ, ZZ
from torushom.generator import polygon_with_holes
from torushom.orbit import CornerComplex, canonical_selector

ANNULUS_CELLS = [
    {"id": "estar", "dim": 1, "boundary": [[11, 1], [14, 1]]},
    {"id": "c", "dim": 2, "boundary": [[v, 1] for v in range(1, 8)]},
]

SQUARE_CELLS = [
    {"id": "c0", "dim": 2, "boundary": [[v, 1] for v in range(1, 5)]},
]

DIGON_CELLS = [
    {"id": "c", "dim": 2, "boundary": [[1, 1], [2, 1]]},
]


def assert_coordinates(cx, q, coeffs):
    """Check the ``coords`` of ``delta_image`` against its chains without
    the code that computed them: each chain minus the combination of the
    boundary homology generators its row names must be a boundary, and
    the rows must be independent."""
    chains, coords = cx.delta_image(q, coeffs)
    face = cx.boundary_complex()
    gens = face.homology(q, coeffs).free_generators
    chains = [densify(chain, face.dim(q), coeffs.zero) for chain in chains]
    coords = [densify(row, len(gens), coeffs.zero) for row in coords]
    gens = [densify(g, face.dim(q), coeffs.zero) for g in gens]
    assert len(coords) == len(chains)
    assert all(len(row) == len(gens) for row in coords)
    bmat = boundary_matrix(face, q + 1)
    for chain, row in zip(chains, coords):
        rest = [coeffs.from_int(x - sum(c * g[i] for c, g in zip(row, gens)))
                for i, x in enumerate(chain)]
        if coeffs is ZZ:
            assert snf.int_solve_all(bmat, [rest])[0] is not None
        else:
            columns = mat_from_int(zip(*bmat), coeffs)
            assert fields.row_space_contains(columns, rest, coeffs)
    assert fields.rank(coords, QQ if coeffs is ZZ else coeffs) == len(coords)


def delta_rows(cx, q, coeffs=ZZ):
    """The chains of ``delta_image`` as {face cell: coefficient} dicts,
    after checking their coordinates."""
    assert_coordinates(cx, q, coeffs)
    chains, _ = cx.delta_image(q, coeffs)
    basis = cx.boundary_complex().basis(q)
    return [{basis[i]: v for i, v in chain.items()} for chain in chains]


@pytest.fixture
def annulus_cx(annulus_poset):
    return CornerComplex(annulus_poset, ANNULUS_CELLS)


@pytest.fixture
def square_cx(square_poset):
    return CornerComplex(square_poset, SQUARE_CELLS)


@pytest.fixture
def digon_cx(digon_poset):
    return CornerComplex(digon_poset, DIGON_CELLS)


class TestConstruction:
    def test_cell_counts(self, annulus_cx):
        assert sorted(annulus_cx.face_cells(1)) == [1, 2, 3, 4, 5, 6, 7]
        assert sorted(annulus_cx.face_cells(0)) == [8, 9, 10, 11, 12, 13, 14]
        assert annulus_cx.interior_cells(1) == ["estar"]
        assert annulus_cx.interior_cells(2) == ["c"]
        assert annulus_cx.cells("space", 1).count("estar") == 1

    def test_euler_characteristic(self, annulus_cx, square_cx, digon_cx):
        assert annulus_cx.euler_characteristic() == 0
        assert square_cx.euler_characteristic() == 1
        assert digon_cx.euler_characteristic() == 1

    def test_unknown_reference(self, square_poset):
        cells = [{"id": "c0", "dim": 2, "boundary": [[1, 1], ["nope", 1]]}]
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, cells)

    def test_reference_dimension_mismatch(self, annulus_poset):
        cells = [{"id": "estar", "dim": 1, "boundary": [[1, 1]]}]
        with pytest.raises(ValidationError):
            CornerComplex(annulus_poset, cells)

    def test_duplicate_id(self, square_poset):
        cells = SQUARE_CELLS + [{"id": "c0", "dim": 2, "boundary": []}]
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, cells)

    def test_id_collides_with_poset_element(self, square_poset):
        cells = [{"id": 3, "dim": 2, "boundary": []}]
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, cells)

    def test_dimension_too_large(self, square_poset):
        cells = [{"id": "big", "dim": 3, "boundary": []}]
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, cells)

    def test_nonzero_boundary_on_point(self, square_poset):
        cells = [{"id": "pt", "dim": 0, "boundary": [[5, 1]]}]
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, cells)

    def test_noninteger_coefficient(self, square_poset):
        cells = [{"id": "c0", "dim": 2, "boundary": [[1, "1"]]}]
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, cells)

    def test_missing_key(self, square_poset):
        with pytest.raises(ValidationError):
            CornerComplex(square_poset, [{"dim": 2}])

    def test_selector_names(self, square_cx):
        for name in ("boundary", "space", "pair"):
            for spelling in (name, name.upper(), " %s " % name.title()):
                assert canonical_selector(spelling) == name
                assert square_cx.complex_for(spelling) is \
                    square_cx.complex_for(name)
        for name in ("rel", "q", "everything"):
            with pytest.raises(ValidationError):
                canonical_selector(name)


class TestHomology:
    def test_annulus_boundary(self, annulus_cx):
        h = annulus_cx.homology("boundary", coeffs=ZZ)
        assert h[0].free_rank == 2 and not h[0].torsion
        assert h[1].free_rank == 2 and not h[1].torsion
        assert h[2].is_trivial()

    def test_annulus_space(self, annulus_cx):
        h = annulus_cx.homology("space", coeffs=ZZ)
        assert h[0].describe() == "Z"
        assert h[1].describe() == "Z"
        assert h[2].is_trivial()

    def test_annulus_pair(self, annulus_cx):
        h = annulus_cx.homology("pair", coeffs=ZZ)
        assert h[0].is_trivial()
        assert h[1].describe() == "Z"
        assert h[2].describe() == "Z"

    def test_square_all_selectors(self, square_cx):
        assert square_cx.betti("boundary") == {0: 1, 1: 1, 2: 0}
        assert square_cx.betti("space") == {0: 1, 1: 0, 2: 0}
        assert square_cx.betti("pair") == {0: 0, 1: 0, 2: 1}

    def test_digon_matches_square_shape(self, digon_cx, square_cx):
        for sel in ("boundary", "space", "pair"):
            assert digon_cx.betti(sel) == square_cx.betti(sel)

    def test_field_ranks_match_integer_ranks(self, annulus_cx):
        for sel in ("boundary", "space", "pair"):
            zz = {k: g.free_rank
                  for k, g in annulus_cx.homology(sel, coeffs=ZZ).items()}
            for field in (QQ, GF(2), GF(5)):
                assert annulus_cx.betti(sel, field) == zz

    def test_single_degree_access(self, annulus_cx):
        g = annulus_cx.homology("pair", 2, ZZ)
        assert g.free_rank == 1
        assert g.labels == ["c"]


class TestDeltaImage:
    def test_annulus_degree_zero(self, annulus_cx):
        assert delta_rows(annulus_cx, 0) == [{11: 1, 14: 1}]

    def test_annulus_degree_one(self, annulus_cx):
        assert delta_rows(annulus_cx, 1) == [{v: 1 for v in range(1, 8)}]

    def test_square(self, square_cx):
        assert square_cx.delta_image(0) == ([], [])
        assert delta_rows(square_cx, 1) == [{1: 1, 2: 1, 3: 1, 4: 1}]

    def test_digon(self, digon_cx):
        assert digon_cx.delta_image(0) == ([], [])
        assert delta_rows(digon_cx, 1) == [{1: 1, 2: 1}]

    def test_rational_coefficients(self, annulus_cx):
        assert delta_rows(annulus_cx, 0, QQ) == [{11: 1, 14: 1}]
        chains, coords = annulus_cx.delta_image(0, QQ)
        assert all(isinstance(v, Fraction)
                   for v in [*chains[0].values(), *coords[0].values()])
        assert len(delta_rows(annulus_cx, 1, QQ)) == 1

    def test_prime_field(self, annulus_cx):
        rows = delta_rows(annulus_cx, 1, GF(2))
        assert rows == [{v: 1 for v in range(1, 8)}]

    def test_degree_out_of_range(self, annulus_cx):
        with pytest.raises(ValidationError):
            annulus_cx.delta_image(2)
        with pytest.raises(ValidationError):
            annulus_cx.delta_image(-1)

    def test_torsion_guard(self, annulus_poset):
        cells = ANNULUS_CELLS + [
            {"id": "e2", "dim": 1, "boundary": [[11, 1], [14, 1]]},
            {"id": "w", "dim": 2,
             "boundary": [["estar", 2], ["e2", -2]]},
        ]
        cx = CornerComplex(annulus_poset, cells)
        assert cx.homology("pair", 1, ZZ).torsion == [2]
        with pytest.raises(CoefficientError):
            cx.delta_image(0)
        assert delta_rows(cx, 0, QQ) == [{11: 1, 14: 1}]


SEEDED_SHAPES = [((4,), 1), ((4, 3), 2), ((5, 4, 3), 3), ((3, 3, 2), 0),
                 ((6, 4), 5)]


class TestDeltaCoordinates:
    """``coords`` are the homology coordinates of ``chains`` on seeded
    polygons, checked by an elimination of their own."""

    @pytest.mark.parametrize("lengths,seed", SEEDED_SHAPES)
    @pytest.mark.parametrize("coeffs", [ZZ, QQ, GF(5)], ids=repr)
    def test_chain_minus_combination_is_a_boundary(self, lengths, seed,
                                                   coeffs):
        cx = polygon_with_holes(lengths, seed=seed).manifold.corner
        for q in range(cx.n):
            assert_coordinates(cx, q, coeffs)
            chains, _ = cx.delta_image(q, coeffs)
            assert len(chains) == (1 if q else len(lengths) - 1)


class TestDeltaImageOnce:
    """Every consumer of the connecting map reads one shared value."""

    def test_each_degree_is_solved_once(self, monkeypatch):
        """The coordinates come from one tracked echelon per (degree,
        coefficients) of the boundary complex, over Q with the integral
        generators for Z, and the inclusion kernel from one of the space
        complex; nothing calls ``solve_all``."""
        manifold = polygon_with_holes((6, 4, 3), seed=3).manifold
        cx = manifold.corner
        built, groups, solved = [], [], []
        tracked = CornerComplex._tracked_echelon
        original = fields.solve_all

        def counting_tracked(hface, target, q, field):
            built.append((q, field, target is cx.boundary_complex()))
            groups.append(hface)
            return tracked(hface, target, q, field)

        def counting(rows, bs, field):
            solved.append(field)
            return original(rows, bs, field)

        monkeypatch.setattr(CornerComplex, "_tracked_echelon",
                            staticmethod(counting_tracked))
        monkeypatch.setattr(fields, "solve_all", counting)
        first = [cx.delta_image(q, QQ) for q in range(cx.n)]
        assert built == [(q, QQ, True) for q in range(cx.n)]
        manifold.second_kind_rows(0, QQ)
        for k in range(manifold.n + 1):
            manifold.kernel_of_g(k, QQ)
        for q in range(cx.n):
            manifold.novik_swartz_check(q, QQ)
        manifold.consistency_report(QQ)
        assert cx.consistency_violations(QQ) == []
        assert Counter(built) == {(q, QQ, face): 1 for q in range(cx.n)
                                  for face in (True, False)}
        assert solved == []
        assert [cx.delta_image(q, QQ) for q in range(cx.n)] == first
        assert all(cx.delta_image(q, QQ) is first[q] for q in range(cx.n))

        built.clear()
        groups.clear()
        integral = [cx.delta_image(q, ZZ) for q in range(cx.n)]
        mod_five = cx.delta_image(0, GF(5))
        once = [(q, QQ, True) for q in range(cx.n)] + [(0, GF(5), True)]
        assert built == once
        face = cx.boundary_complex()
        # Z reads the integral group: its generators span H_q over Q too
        expected = ([face.homology(q, ZZ) for q in range(cx.n)]
                    + [face.homology(0, GF(5))])
        assert len(groups) == len(expected)
        assert all(g is h for g, h in zip(groups, expected))
        assert all(image is not first[q] for q, image in enumerate(integral))
        assert mod_five is not first[0]
        assert cx.delta_image(0, GF(5)) is mod_five
        assert all(cx.delta_image(q, ZZ) is integral[q] for q in range(cx.n))
        assert built == once and solved == []


class TestValidation:
    def test_clean_complexes(self, annulus_cx, square_cx, digon_cx):
        for cx in (annulus_cx, square_cx, digon_cx):
            assert cx.validate() == []

    def test_broken_boundary_square(self, square_poset):
        cells = [{"id": "c0", "dim": 2,
                  "boundary": [[1, 1], [2, 1], [3, 1]]}]
        cx = CornerComplex(square_poset, cells)
        problems = cx.validate()
        assert problems
        assert any("space" in p for p in problems)

    def test_orientability_check(self, annulus_poset):
        cells = [ANNULUS_CELLS[0]]
        cx = CornerComplex(annulus_poset, cells)
        problems = cx.validate()
        assert any("orientable" in p for p in problems)
        relaxed = CornerComplex(annulus_poset, cells, orientable=False)
        assert relaxed.validate() == []

    def test_consistency(self, annulus_cx, square_cx, digon_cx):
        for cx in (annulus_cx, square_cx, digon_cx):
            assert cx.consistency_violations(QQ) == []
            assert cx.consistency_violations(GF(3)) == []

    def test_transpose_duality_ranks(self, annulus_cx, annulus_poset):
        # unreduced homology of the poset: one more class in degree 0
        betti = annulus_poset.reduced_betti(QQ)
        for q in range(2):
            left = annulus_cx.homology("boundary", q, QQ).rank
            right = betti[1 - q] + (1 if q == 1 else 0)
            assert left == right == 2

    def test_connecting_rank_matches_kernel(self, annulus_cx):
        for q in range(2):
            chains, coords = annulus_cx.delta_image(q, QQ)
            assert len(chains) == len(coords) == 1


class TestSignTransport:
    def flipped(self, poset, cells, flips):
        adjusted = []
        for cell in cells:
            boundary = [[ref, -co if ref in flips else co]
                        for ref, co in cell["boundary"]]
            adjusted.append({"id": cell["id"], "dim": cell["dim"],
                             "boundary": boundary})
        return CornerComplex(poset, adjusted, flips=flips)

    def test_gauge_preserves_everything(self, annulus_poset, annulus_cx):
        flips = {1, 11, 13}
        cx = self.flipped(annulus_poset, ANNULUS_CELLS, flips)
        assert cx.validate() == []
        assert cx.consistency_violations(QQ) == []
        for sel in ("boundary", "space", "pair"):
            assert cx.betti(sel) == annulus_cx.betti(sel)
        assert delta_rows(cx, 0) == [{11: -1, 14: 1}]
        assert delta_rows(cx, 1) == [
            {1: -1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}]

    def test_non_face_flip_rejected(self, square_poset):
        # a cover pair names a sign, not a face that can be reversed
        with pytest.raises(ValidationError, match=r"reverse \(5, 1\)"):
            CornerComplex(square_poset, SQUARE_CELLS, flips={(5, 1)})

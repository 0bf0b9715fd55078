from fractions import Fraction

import pytest

from torushom import fields
from torushom.errors import ValidationError
from torushom.fields import GF, QQ, ZZ
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex
from torushom.posets import BOTTOM

from conftest import ANNULUS_CELLS, densify, push_labels, row_spaces_equal

FIELDS = (QQ, GF(2), GF(3), GF(5))


def to_field(rows, field, width):
    """{column: int} rows as dense rows of ``width`` field values."""
    return [[field.from_int(x) for x in densify(row, width)] for row in rows]


class TestDiagonalPages:
    def test_annulus_initial_dimensions(self, annulus_manifold):
        for field in FIELDS:
            dims = annulus_manifold.diagonal_dimensions(field, "initial")
            assert dims == (2, 5, 1)

    def test_annulus_limit_dimensions(self, annulus_manifold):
        for field in FIELDS:
            dims = annulus_manifold.diagonal_dimensions(field, "limit")
            assert dims == (1, 5, 1)

    def test_square_pages(self, square_manifold):
        assert square_manifold.diagonal_dimensions(QQ, "initial") == (1, 2, 1)
        assert square_manifold.diagonal_dimensions(QQ, "limit") == (1, 2, 1)

    def test_digon_pages(self, digon_manifold):
        assert digon_manifold.diagonal_dimensions(QQ, "initial") == (1, 0, 1)
        assert digon_manifold.diagonal_dimensions(QQ, "limit") == (1, 0, 1)

    def test_initial_dims_reverse_corrected_counts(
            self, annulus_manifold, square_manifold, digon_manifold):
        for m in (annulus_manifold, square_manifold, digon_manifold):
            hprime = m.poset.h_prime_vector(QQ)
            dims = m.diagonal_dimensions(QQ, "initial")
            assert dims == tuple(reversed(hprime))

    def test_limit_page_counts_both_kinds(self, annulus_manifold):
        page = annulus_manifold.diagonal_page(0, QQ, "limit")
        initial = annulus_manifold.diagonal_page(0, QQ, "initial")
        assert (initial.row_count, page.row_count) == (7, 8)

    def test_unknown_page_kind(self, annulus_manifold):
        with pytest.raises(ValidationError):
            annulus_manifold.diagonal_page(0, QQ, "middle")


class TestRelationRows:
    def test_degree_one_rows(self, annulus_manifold):
        rows = annulus_manifold.first_kind_rows(1)
        labels = push_labels(annulus_manifold.charmat, 1, [BOTTOM])
        assert labels == [(BOTTOM, (1,)), (BOTTOM, (2,))]
        assert len(rows) == len(labels)
        published = [[1, 0, 1, 3, 2, 1, -3], [0, 1, 0, 1, 3, 2, -5]]
        assert row_spaces_equal(to_field(rows, QQ, 7), published, QQ)

    def test_degree_zero_rows(self, annulus_manifold):
        rows = annulus_manifold.first_kind_rows(0)
        labels = push_labels(annulus_manifold.charmat, 2,
                             annulus_manifold.poset.elements_of_rank(1))
        assert len(rows) == len(labels) == 7
        assert all(axes == () for _, axes in labels)
        assert sorted(j for j, _ in labels) == [1, 2, 3, 4, 5, 6, 7]
        assert fields.rank(to_field(rows, QQ, 7), QQ) == 5

    def test_second_kind_row(self, annulus_manifold):
        rows = annulus_manifold.second_kind_rows(0)
        assert len(rows) == 1  # one chain, along the one empty axis set
        gens = annulus_manifold.generators(0)
        assert {gens[j]: value for j, value in rows[0].items()} == \
            {11: 1, 14: -1}

    def test_second_kind_degree_range(self, annulus_manifold):
        with pytest.raises(ValidationError):
            annulus_manifold.second_kind_rows(1)
        with pytest.raises(ValidationError):
            annulus_manifold.second_kind_rows(-1)

    def test_second_kind_empty_on_disk(self, square_manifold, digon_manifold):
        for m in (square_manifold, digon_manifold):
            assert m.second_kind_rows(0) == []

    def test_second_kind_rows_are_socle(self, annulus_manifold):
        rows = annulus_manifold.second_kind_rows(0, QQ)
        quo = annulus_manifold.quotient(QQ)
        for row in rows:
            assert quo.in_socle(row, 2)

    def test_generators_by_degree(self, annulus_manifold):
        assert annulus_manifold.generators(1) == [1, 2, 3, 4, 5, 6, 7]
        assert annulus_manifold.generators(2) == [BOTTOM]
        with pytest.raises(ValidationError):
            annulus_manifold.generators(3)


class TestBigraded:
    def test_annulus_table(self, annulus_manifold):
        m = annulus_manifold
        assert m.bigraded_component(0, 0) == 1
        assert m.bigraded_component(1, 1) == 7
        assert m.bigraded_component(2, 2) == 1
        assert m.bigraded_component(1, 0) == 1
        assert m.bigraded_component(1, 2) == 1
        for spot in ((0, 1), (0, 2), (2, 0), (2, 1)):
            assert m.bigraded_component(*spot) == 0

    def test_out_of_range_spots(self, annulus_manifold):
        assert annulus_manifold.bigraded_component(-1, 0) == 0
        assert annulus_manifold.bigraded_component(0, 3) == 0

    def test_totals(self, annulus_manifold, square_manifold, digon_manifold):
        assert annulus_manifold.total_betti(QQ) == (1, 1, 7, 1, 1)
        assert square_manifold.total_betti(QQ) == (1, 0, 2, 0, 1)
        assert digon_manifold.total_betti(QQ) == (1, 0, 0, 0, 1)

    def test_integral_agrees_and_is_torsion_free(self, annulus_manifold,
                                                 square_manifold):
        for m in (annulus_manifold, square_manifold):
            assert m.total_betti(ZZ) == m.total_betti(QQ)
            for comp in m.bigraded_table(ZZ).values():
                assert comp.torsion == []

    def test_duality_of_ranks(self, annulus_manifold):
        table = annulus_manifold.bigraded_table(QQ)
        n = annulus_manifold.n
        for (k, l), comp in table.items():
            assert comp.rank == table[(n - k, n - l)].rank

    def test_euler_characteristic(self, annulus_manifold, square_manifold,
                                  digon_manifold):
        assert annulus_manifold.euler_characteristic() == 7
        assert square_manifold.euler_characteristic() == 4
        assert digon_manifold.euler_characteristic() == 2


class TestKernelOfRestriction:
    def test_annulus(self, annulus_manifold):
        assert len(annulus_manifold.kernel_of_g(2)) == 1
        assert annulus_manifold.kernel_of_g(1) == []
        assert annulus_manifold.kernel_of_g(0) == []

    def test_disk_fixtures(self, square_manifold, digon_manifold):
        for m in (square_manifold, digon_manifold):
            for k in range(3):
                assert m.kernel_of_g(k) == []

    def test_kernel_accounts_for_page_drop(self, annulus_manifold):
        m = annulus_manifold
        for q in range(m.n + 1):
            drop = len(m.kernel_of_g(m.n - q)) if q <= m.n - 2 else 0
            initial = m.diagonal_page(q, QQ, "initial").dimension
            limit = m.diagonal_page(q, QQ, "limit").dimension
            assert initial - drop == limit

    def test_kernel_row_survives_initial_page(self, annulus_manifold):
        page = annulus_manifold.diagonal_page(0, QQ, "initial")
        for row in annulus_manifold.kernel_of_g(2):
            assert page.echelon.reduce_sparse(row)

    def test_degree_range(self, annulus_manifold):
        with pytest.raises(ValidationError):
            annulus_manifold.kernel_of_g(5)


class TestBoundaryClassPlacement:
    def test_annulus_low_degree(self, annulus_manifold):
        report = annulus_manifold.novik_swartz_check(0)
        assert report["ok"]
        assert report["classes"] == 2
        assert report["axes"] == 1
        assert report["rank"] == 2
        assert report["kernel_dim"] == 0

    def test_annulus_top_degree(self, annulus_manifold):
        report = annulus_manifold.novik_swartz_check(1)
        assert report["ok"]
        assert report["classes"] == 2
        assert report["axes"] == 2
        assert report["rank"] == 2
        assert report["kernel_dim"] == 2
        assert report["kernel_ok"]

    def test_square(self, square_manifold):
        low = square_manifold.novik_swartz_check(0)
        assert low["ok"] and low["rank"] == 1
        top = square_manifold.novik_swartz_check(1)
        assert top["ok"]
        assert top["rank"] == 0
        assert top["kernel_dim"] == 2

    def test_digon(self, digon_manifold):
        top = digon_manifold.novik_swartz_check(1)
        assert top["ok"] and top["rank"] == 0 and top["kernel_dim"] == 2

    def test_prime_fields(self, annulus_manifold):
        for field in (GF(2), GF(5)):
            for q in (0, 1):
                assert annulus_manifold.novik_swartz_check(q, field)["ok"]

    def test_degree_range(self, annulus_manifold):
        with pytest.raises(ValidationError):
            annulus_manifold.novik_swartz_check(2)
        with pytest.raises(ValidationError):
            annulus_manifold.novik_swartz_check(-1)


class TestEquivariantSeries:
    def test_annulus(self, annulus_manifold):
        assert annulus_manifold.equivariant_series() == (1, 1, 7, 0, 14)

    def test_square(self, square_manifold):
        assert square_manifold.equivariant_series() == (1, 0, 4, 0, 8)

    def test_digon(self, digon_manifold):
        assert digon_manifold.equivariant_series() == (1, 0, 2, 0, 4)

    def test_longer_range(self, annulus_manifold):
        series = annulus_manifold.equivariant_series(6)
        assert series[:5] == (1, 1, 7, 0, 14)
        assert series[5] == 0
        assert series[6] == 21


class TestConsistencyReport:
    def test_everything_passes(self, annulus_manifold, square_manifold,
                               digon_manifold):
        for m in (annulus_manifold, square_manifold, digon_manifold):
            for field in (QQ, GF(3)):
                report = m.consistency_report(field)
                assert [name for name, _, _ in report] == [
                    "diagonal-dimensions", "bigraded-duality",
                    "euler-characteristic", "second-kind-independence"]
                for name, ok, detail in report:
                    assert ok, "%s failed: %s" % (name, detail)


class TestSignTransport:
    def test_gauge_flip_preserves_all_dimensions(self, annulus_poset,
                                                 annulus_charmat,
                                                 annulus_manifold):
        flips = {2, 4, 10, 12}
        cells = []
        for cell in ANNULUS_CELLS:
            boundary = [[ref, -co if ref in flips else co]
                        for ref, co in cell["boundary"]]
            cells.append({"id": cell["id"], "dim": cell["dim"],
                          "boundary": boundary})
        corner = CornerComplex(annulus_poset, cells, flips=flips)
        flipped = TorusManifold(corner, annulus_charmat)
        base = annulus_manifold
        assert flipped.diagonal_dimensions(QQ, "initial") == \
            base.diagonal_dimensions(QQ, "initial")
        assert flipped.diagonal_dimensions(QQ, "limit") == \
            base.diagonal_dimensions(QQ, "limit")
        assert flipped.total_betti(QQ) == base.total_betti(QQ)
        assert len(flipped.kernel_of_g(2)) == len(base.kernel_of_g(2))
        for q in (0, 1):
            left = flipped.novik_swartz_check(q)
            right = base.novik_swartz_check(q)
            assert left["ok"] and right["ok"]
            assert left["rank"] == right["rank"]
            assert left["kernel_dim"] == right["kernel_dim"]
        for name, ok, detail in flipped.consistency_report(QQ):
            assert ok, "%s failed: %s" % (name, detail)

    def test_dimension_mismatch_rejected(self, square_poset):
        from torushom.charmat import CharacteristicMatrix
        from torushom.posets import SimplicialPoset
        segment = SimplicialPoset([1, 2], [])
        small = CharacteristicMatrix(segment, {1: (1,), 2: (1,)})
        corner = CornerComplex(square_poset, [], orientable=False)
        with pytest.raises(ValidationError):
            TorusManifold(corner, small)

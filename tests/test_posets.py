import random

import pytest

from torushom.errors import ValidationError
from torushom.fields import GF, QQ
from torushom.posets import BOTTOM, SimplicialPoset

from conftest import build_annulus_poset, build_digon_poset, build_square_poset


def triangle_pair_at_vertex():
    """Two triangles glued at a single shared vertex."""
    verts = [1, 2, 3, 4, 5]
    edges = [{"id": "e%d%d" % (a, b), "vertices": [a, b]}
             for a, b in [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]]
    tris = [{"id": "t123", "vertices": [1, 2, 3]},
            {"id": "t145", "vertices": [1, 4, 5]}]
    return SimplicialPoset(verts, edges + tris)


class TestConstruction:
    def test_counts(self, annulus_poset):
        assert annulus_poset.f_vector() == (1, 7, 7)
        assert annulus_poset.top_rank == 2
        assert annulus_poset.is_pure()

    def test_digon_allows_parallel_edges(self, digon_poset):
        assert digon_poset.f_vector() == (1, 2, 2)
        assert digon_poset.ver(3) == digon_poset.ver(4) == frozenset([1, 2])

    def test_ambiguous_faces_need_listing(self):
        cells = [{"id": "a", "vertices": [1, 2]},
                 {"id": "b", "vertices": [1, 2]},
                 {"id": "c", "vertices": [1, 3]},
                 {"id": "d", "vertices": [2, 3]},
                 {"id": "T", "vertices": [1, 2, 3]}]
        with pytest.raises(ValidationError):
            SimplicialPoset([1, 2, 3], cells)
        cells[-1] = {"id": "T", "vertices": [1, 2, 3], "faces": ["a", "c", "d"]}
        p = SimplicialPoset([1, 2, 3], cells)
        assert p.face("T", [1, 2]) == "a"
        assert p.le("b", "T") is False
        assert p.le("a", "T") is True

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialPoset([1], [{"id": 9, "vertices": [1, 2]}])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialPoset([1, 2], [{"id": 1, "vertices": [1, 2]}])


class TestOrderStructure:
    def test_covers(self, square_poset):
        # faces come in vertex-removal order: dropping vertex 1 leaves 2
        assert square_poset.lower_covers(5) == [2, 1]
        assert set(square_poset.upper_covers(1)) == {5, 8}
        assert square_poset.upper_covers(BOTTOM) == [1, 2, 3, 4]

    def test_le(self, square_poset):
        assert square_poset.le(1, 5)
        assert not square_poset.le(3, 5)
        assert square_poset.le(BOTTOM, 7)

    def test_join_and_meet(self, square_poset):
        assert square_poset.join_set(1, 2) == [5]
        assert square_poset.join_set(1, 3) == []
        assert square_poset.meet(5, 2) == 2
        with pytest.raises(ValidationError):
            square_poset.meet(5, 6)

    def test_digon_join(self, digon_poset):
        assert sorted(digon_poset.join_set(1, 2)) == [3, 4]
        assert digon_poset.join_set(3, 4) == []


class TestSignConventions:
    def test_default_signs_on_a_pair(self, annulus_poset):
        signs = annulus_poset.default_sign_convention()
        # edge 11 has vertices {1, 4}: dropping the smaller vertex is +1
        assert signs[(11, 4)] == 1
        assert signs[(11, 1)] == -1
        assert signs[(1, BOTTOM)] == 1

    def test_default_signs_validate(self):
        for build in (build_square_poset, build_annulus_poset,
                      build_digon_poset):
            p = build()
            assert p.validate_sign_convention(p.default_sign_convention())

    def test_missing_pair_detected(self, square_poset):
        signs = square_poset.default_sign_convention()
        del signs[(5, 1)]
        with pytest.raises(ValidationError):
            square_poset.validate_sign_convention(signs)

    def test_broken_cocycle_detected(self, square_poset):
        signs = square_poset.default_sign_convention()
        signs[(5, 1)] = -signs[(5, 1)]
        with pytest.raises(ValidationError):
            square_poset.validate_sign_convention(signs)

    def test_gauge_flip_stays_valid(self, annulus_poset):
        rng = random.Random(4821)
        signs = annulus_poset.default_sign_convention()
        elems = annulus_poset.elements()
        for _ in range(10):
            flips = [e for e in elems if rng.random() < 0.5]
            flipped = annulus_poset.gauge_transform(signs, flips)
            assert annulus_poset.validate_sign_convention(flipped)
            cx = annulus_poset.simplex_chain_complex(signs=flipped)
            assert cx.homology(0, QQ).rank == 1
            assert cx.homology(1, QQ).rank == 2


class TestCounting:
    def test_square_vectors(self, square_poset):
        assert square_poset.f_vector() == (1, 4, 4)
        assert square_poset.h_vector() == (1, 2, 1)
        assert square_poset.h_prime_vector() == (1, 2, 1)

    def test_annulus_vectors(self, annulus_poset):
        assert annulus_poset.h_vector() == (1, 5, 1)
        # the two boundary circles contribute through reduced homology
        assert annulus_poset.h_prime_vector() == (1, 5, 2)

    def test_digon_vectors(self, digon_poset):
        assert digon_poset.h_vector() == (1, 0, 1)
        assert digon_poset.h_prime_vector() == (1, 0, 1)

    def test_reduced_betti(self, annulus_poset, digon_poset):
        assert annulus_poset.reduced_betti() == {-1: 0, 0: 1, 1: 2}
        assert digon_poset.reduced_betti() == {-1: 0, 0: 0, 1: 1}
        assert digon_poset.reduced_betti(GF(2))[1] == 1


class TestLinks:
    def test_vertex_link_in_annulus(self, annulus_poset):
        lk = annulus_poset.link(1)
        assert lk.f_vector() == (1, 2)
        assert set(lk.vertices()) == {8, 11}

    def test_digon_vertex_link(self, digon_poset):
        lk = digon_poset.link(1)
        assert set(lk.vertices()) == {3, 4}

    def test_bottom_link_is_copy(self, square_poset):
        lk = square_poset.link(BOTTOM)
        assert lk.f_vector() == square_poset.f_vector()

    def test_triangle_link_is_empty(self):
        p = SimplicialPoset([1, 2, 3],
                            [{"id": "e", "vertices": [1, 2]},
                             {"id": "f", "vertices": [1, 3]},
                             {"id": "g", "vertices": [2, 3]},
                             {"id": "T", "vertices": [1, 2, 3]}])
        assert p.link("T").f_vector() == (1,)


class TestBuchsbaum:
    def test_examples_pass(self):
        for build in (build_square_poset, build_annulus_poset,
                      build_digon_poset):
            ok, failures = build().buchsbaum_check()
            assert ok, failures

    def test_wedge_of_triangles_fails(self):
        ok, failures = triangle_pair_at_vertex().buchsbaum_check()
        assert not ok
        assert (1, 0) in failures

    def test_impure_poset_fails(self):
        p = SimplicialPoset([1, 2, 3, 4],
                            [{"id": "e12", "vertices": [1, 2]},
                             {"id": "e13", "vertices": [1, 3]},
                             {"id": "e23", "vertices": [2, 3]},
                             {"id": "T", "vertices": [1, 2, 3]},
                             {"id": "tail", "vertices": [1, 4]}])
        ok, failures = p.buchsbaum_check()
        assert not ok
        assert ("purity", None) in failures


class TestRelabelling:
    def test_homology_ignores_ids(self):
        rng = random.Random(999)
        base = build_annulus_poset()
        names = list(range(1, 8))
        perm = names[:]
        rng.shuffle(perm)
        relabel = dict(zip(names, perm))
        from conftest import ANNULUS_EDGES
        cells = [{"id": 100 + i, "vertices": [relabel[a], relabel[b]]}
                 for i, (_, (a, b)) in enumerate(ANNULUS_EDGES)]
        shuffled = SimplicialPoset(perm, cells)
        a = base.simplex_chain_complex()
        b = shuffled.simplex_chain_complex()
        for k in (-1, 0, 1):
            assert a.homology(k).describe() == b.homology(k).describe()

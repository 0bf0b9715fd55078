import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.errors import ValidationError
from torushom.facering import FaceRingQuotient
from torushom.fields import GF, QQ
from torushom.fixtures import resolve_fixture
from torushom.orbit import CornerComplex
from torushom.posets import BOTTOM, SimplicialPoset

from conftest import (build_annulus_poset, build_cross_polytope,
                      build_digon_poset, build_square_poset,
                      simplex_chain_complex)


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
        assert meet(square_poset, 5, 2) == 2
        with pytest.raises(ValidationError):
            meet(square_poset, 5, 6)

    def test_digon_join(self, digon_poset):
        assert sorted(digon_poset.join_set(1, 2)) == [3, 4]
        assert digon_poset.join_set(3, 4) == []


class TestSignConventions:
    def test_default_signs_on_a_pair(self, annulus_poset):
        signs = annulus_poset.sign_convention()
        # edge 11 has vertices {1, 4}: dropping the smaller vertex is +1
        assert signs[(11, 4)] == 1
        assert signs[(11, 1)] == -1
        assert signs[(1, BOTTOM)] == 1

    def test_default_signs_validate(self):
        for build in (build_square_poset, build_annulus_poset,
                      build_digon_poset):
            p = build()
            assert simplex_chain_complex(p).validate()
            assert p.face_complex().validate()

    def test_flip_negates_the_pairs_it_meets(self, annulus_poset):
        default = annulus_poset.sign_convention()
        flipped = annulus_poset.sign_convention({1, 11})
        # (11, 1) joins two flipped faces and keeps its sign
        assert flipped[(11, 1)] == default[(11, 1)]
        assert flipped[(11, 4)] == -default[(11, 4)]
        assert flipped[(1, BOTTOM)] == -default[(1, BOTTOM)]

    def test_gauge_flip_stays_valid(self, annulus_poset):
        rng = random.Random(4821)
        elems = annulus_poset.elements()
        for _ in range(10):
            flips = [e for e in elems if rng.random() < 0.5]
            cx = simplex_chain_complex(annulus_poset, flips).validate()
            assert cx.homology(0, QQ).rank == 1
            assert cx.homology(1, QQ).rank == 2


def cover_pairs(poset):
    return [(e, f) for e in poset.elements() for f in poset.lower_covers(e)]


SIGN_POSETS = {
    "square": build_square_poset,
    "annulus": build_annulus_poset,
    "digon": build_digon_poset,
    "square_hole": lambda: resolve_fixture("square_hole").manifold.poset,
    "cross3": lambda: build_cross_polytope(3)[0],
}


def _flip_entry_points():
    """Each way to hand a set of reversed faces to the package, on the
    square with a hole."""
    fixture = resolve_fixture("square_hole")
    poset, charmat = fixture.poset, fixture.charmat
    cells = fixture.manifold.corner.interior
    return {
        "CornerComplex": lambda flips: CornerComplex(poset, cells,
                                                     flips=flips),
        "FaceRingQuotient": lambda flips: FaceRingQuotient(
            poset, charmat, QQ, flips=flips),
        "simplex_chain_complex": lambda flips: simplex_chain_complex(
            poset, flips),
        "face_complex": poset.face_complex,
    }


class TestSignTables:
    """Every sign table is ``sign_convention(flips)``: any set of faces
    above the bottom is an orientation, and nothing else is accepted."""

    def test_default_table_is_kept_and_copied(self, square_poset):
        signs = square_poset.sign_convention()
        signs[(5, 1)] *= -1
        assert square_poset.sign_convention()[(5, 1)] == -signs[(5, 1)]
        assert square_poset.sign_convention() is not \
            square_poset.sign_convention()

    @pytest.mark.parametrize("entry", ["CornerComplex", "FaceRingQuotient",
                                       "simplex_chain_complex",
                                       "face_complex"])
    @pytest.mark.parametrize("flip", ["bogus", (5, 1), BOTTOM],
                             ids=["unknown", "cover-pair", "bottom"])
    def test_flip_that_is_no_face_is_named(self, entry, flip):
        build = _flip_entry_points()[entry]
        build({1, 5})
        with pytest.raises(ValidationError,
                           match=re.escape("cannot reverse %r" % (flip,))):
            build({1, flip})

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(sorted(SIGN_POSETS)), st.data())
    def test_any_flip_set_is_an_orientation(self, name, data):
        poset = SIGN_POSETS[name]()
        flips = data.draw(st.sets(st.sampled_from(poset.elements())))
        default, signs = poset.sign_convention(), poset.sign_convention(flips)
        assert signs == {(e, f): s * (-1 if (e in flips) != (f in flips)
                                      else 1)
                         for (e, f), s in default.items()}
        assert set(signs) == set(cover_pairs(poset))
        cx = simplex_chain_complex(poset, flips).validate()
        poset.face_complex(flips).validate()
        for e in poset.elements():
            poset._local_complex(e, signs).validate()
        assert {k: cx.homology(k, QQ).rank
                for k in range(-1, poset.top_rank)} == poset.reduced_betti()


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


def meet(poset, a, b):
    """The common face of a and b on ver(a) & ver(b), read off their first
    join.  Only defined when a and b have an upper bound; all choices
    agree."""
    joins = poset.join_set(a, b)
    if not joins:
        raise ValidationError("%r and %r have no join" % (a, b))
    return poset.face(joins[0], poset.ver(a) & poset.ver(b))


def link(poset, e):
    """The poset of elements above e, re-ranked.  Ids are carried over;
    the vertices of the link are the covers of e.  The elements above e
    are found rank by rank, walking up the covers from e."""
    if e is BOTTOM:
        return SimplicialPoset(
            poset.vertices(),
            [{"id": x, "vertices": sorted(poset.ver(x)),
              "faces": poset.lower_covers(x)}
             for x in poset.elements() if poset.rank(x) >= 2])
    above, level = [], [e]
    while level:
        level = sorted({x for y in level for x in poset.upper_covers(y)},
                       key=repr)
        above += level
    base = poset.ver(e)
    cells = []
    for x in above:
        if poset.rank(x) <= poset.rank(e) + 1:
            continue
        extra = sorted(poset.ver(x) - base)
        cells.append({"id": x,
                      "vertices": [poset.face(x, base | {v}) for v in extra],
                      "faces": [poset.face(x, poset.ver(x) - {v})
                                for v in extra]})
    return SimplicialPoset(
        [x for x in above if poset.rank(x) == poset.rank(e) + 1], cells)


def reference_buchsbaum(poset, field):
    """The Buchsbaum check over every degree of every link, each built as
    a poset with its own chain complex."""
    failures = []
    if not poset.is_pure():
        failures.append(("purity", None))
    n = poset.top_rank
    for e in poset.elements():
        betti = link(poset, e).reduced_betti(field)
        for j in range(-1, n - poset.rank(e) - 1):
            if betti.get(j):
                failures.append((e, j))
    return (not failures, failures)


class TestLinks:
    def test_vertex_link_in_annulus(self, annulus_poset):
        lk = link(annulus_poset, 1)
        assert lk.f_vector() == (1, 2)
        assert set(lk.vertices()) == {8, 11}

    def test_digon_vertex_link(self, digon_poset):
        lk = link(digon_poset, 1)
        assert set(lk.vertices()) == {3, 4}

    def test_bottom_link_is_copy(self, square_poset):
        lk = link(square_poset, BOTTOM)
        assert lk.f_vector() == square_poset.f_vector()

    def test_triangle_link_is_empty(self):
        p = SimplicialPoset([1, 2, 3],
                            [{"id": "e", "vertices": [1, 2]},
                             {"id": "f", "vertices": [1, 3]},
                             {"id": "g", "vertices": [2, 3]},
                             {"id": "T", "vertices": [1, 2, 3]}])
        assert link(p, "T").f_vector() == (1,)


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
        a = simplex_chain_complex(base)
        b = simplex_chain_complex(shuffled)
        for k in (-1, 0, 1):
            assert a.homology(k).describe() == b.homology(k).describe()

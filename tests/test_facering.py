"""Face ring multiplication, graded quotient presentations, vertex actions,
and the socle.

``FaceRing`` below multiplies in the face ring itself, on multichain
monomials, and ``theta_rows`` spans the parameter ideal in it.  They are
the reference that the products of ``FaceRingQuotient`` are checked
against here and in ``test_cross_polytope`` and ``test_acceptance``."""

import random

import pytest

from torushom.errors import ValidationError
from torushom.facering import (FaceRingQuotient, hilbert_series,
                               linear_relations)
from torushom.fields import GF, QQ, row_space_contains
from torushom.posets import BOTTOM, SimplicialPoset

from conftest import densify, push_labels, sparsify, unit_vector
from test_posets import meet as poset_meet


# --- the face ring on multichain monomials -------------------------------


def _sort_key(poset, e):
    return (poset.rank(e), repr(e))


class FaceRing:
    """Multiplication and monomial bookkeeping for one simplicial poset.

    The ring is spanned by multichain monomials v_{I_1}...v_{I_t} with
    I_1 <= ... <= I_t, and a product straightens by the meet-join law
    v_I * v_J = v_{I ^ J} * sum of v_K over the minimal upper bounds K,
    where an empty set of upper bounds kills the term and a bottom meet
    drops out.  Elements are plain dicts mapping monomials (tuples of
    poset element ids, sorted by rank) to integer coefficients.
    """

    def __init__(self, poset):
        self.poset = poset
        self._straightened = {}

    def one(self):
        return {(): 1}

    def generator(self, e):
        if e is BOTTOM:
            return self.one()
        return {(e,): 1}

    def monomial(self, parts):
        """Canonical form of a product of generators (not yet straightened)."""
        return tuple(sorted(parts, key=lambda e: _sort_key(self.poset, e)))

    def weight(self, mono):
        return sum(self.poset.rank(e) for e in mono)

    def _straighten(self, mono):
        """Express a monomial in the multichain basis; returns a dict."""
        mono = self.monomial(mono)
        cached = self._straightened.get(mono)
        if cached is not None:
            return cached
        pair = None
        for i in range(len(mono)):
            for j in range(i + 1, len(mono)):
                a, b = mono[i], mono[j]
                if not (self.poset.le(a, b) or self.poset.le(b, a)):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            result = {mono: 1}
        else:
            i, j = pair
            a, b = mono[i], mono[j]
            rest = [mono[t] for t in range(len(mono)) if t not in (i, j)]
            joins = self.poset.join_set(a, b)
            result = {}
            if joins:
                meet = poset_meet(self.poset, a, b)
                base = rest if meet is BOTTOM else rest + [meet]
                for k in joins:
                    for m, c in self._straighten(base + [k]).items():
                        result[m] = result.get(m, 0) + c
                result = {m: c for m, c in result.items() if c}
        self._straightened[mono] = result
        return result

    def mul(self, x, y):
        out = {}
        for ma, ca in x.items():
            for mb, cb in y.items():
                for m, c in self._straighten(ma + mb).items():
                    out[m] = out.get(m, 0) + ca * cb * c
        return {m: c for m, c in out.items() if c}

    def monomials_of_weight(self, w):
        """All multichain monomials of the given rank sum, canonically
        ordered."""
        elems = sorted(self.poset.elements(),
                       key=lambda e: _sort_key(self.poset, e))
        out = []

        def extend(prefix, total):
            if total == w:
                out.append(tuple(prefix))
                return
            last = prefix[-1] if prefix else None
            for e in elems:
                r = self.poset.rank(e)
                if total + r > w:
                    continue
                if last is not None:
                    if _sort_key(self.poset, e) < _sort_key(self.poset, last):
                        continue
                    if not self.poset.le(last, e):
                        continue
                prefix.append(e)
                extend(prefix, total + r)
                prefix.pop()

        extend([], 0)
        out.sort()
        return out


def relation_rows(quo, k):
    """The degree-k relation rows of a quotient, as its presentation
    takes them: {column: value} over its field, and their (J, A) labels,
    read off their positions (``push_labels``)."""
    return (linear_relations(quo.poset, quo.charmat, quo.signs, k, quo.field),
            push_labels(quo.charmat, k, quo.poset.elements_of_rank(k - 1)))


def theta_rows(quo, k):
    """Products of each linear parameter of a quotient with each monomial
    of weight k-1, as integer vectors over the weight-k monomials.
    Returns (monomials, rows)."""
    ring = FaceRing(quo.poset)
    monos = ring.monomials_of_weight(k)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for j in range(1, quo.n + 1):
        theta = {(v,): c for v, c in quo.charmat.theta(j).items()}
        for m in ring.monomials_of_weight(k - 1):
            row = [0] * len(monos)
            for mono, c in ring.mul(theta, {m: 1}).items():
                row[col[mono]] += c
            rows.append(row)
    return monos, rows


def theta_span_contains(quo, element_coeffs, k):
    """Whether a combination of rank-k generators, in the oriented
    generators of the quotient, lies in the degree-k part of the
    parameter ideal."""
    monos, rows = theta_rows(quo, k)
    col = {m: i for i, m in enumerate(monos)}
    vec = [0] * len(monos)
    for e, c in element_coeffs.items():
        vec[col[(e,)]] += c * quo._orient(e)
    field = quo.field
    return row_space_contains([[field.from_int(x) for x in r] for r in rows],
                              [field.from_int(x) for x in vec], field)


def ring(poset):
    return FaceRing(poset)


def graded_dimensions(quotient):
    return tuple(quotient.presentation(k).dimension
                 for k in range(quotient.n + 1))


class TestMultiplication:
    def test_vertices_spanning_an_edge(self, square_poset):
        r = ring(square_poset)
        assert r.mul(r.generator(1), r.generator(2)) == {(5,): 1}

    def test_vertices_without_common_cell(self, square_poset):
        r = ring(square_poset)
        assert r.mul(r.generator(1), r.generator(3)) == {}

    def test_annulus_products(self, annulus_poset):
        r = ring(annulus_poset)
        assert r.mul(r.generator(1), r.generator(2)) == {(8,): 1}
        assert r.mul(r.generator(4), r.generator(1)) == {(11,): 1}
        assert r.mul(r.generator(1), r.generator(5)) == {}

    def test_digon_vertex_product_splits(self, digon_poset):
        # two edges over the same pair of vertices: the product picks up both
        r = ring(digon_poset)
        assert r.mul(r.generator(1), r.generator(2)) == {(3,): 1, (4,): 1}

    def test_digon_distinct_edges_annihilate(self, digon_poset):
        r = ring(digon_poset)
        assert r.mul(r.generator(3), r.generator(4)) == {}
        assert r.mul(r.generator(3), r.generator(3)) == {(3, 3): 1}

    def test_comparable_pair_is_already_normal(self, annulus_poset):
        r = ring(annulus_poset)
        assert r.mul(r.generator(1), r.generator(8)) == {(1, 8): 1}
        assert r._straighten((1, 8)) == {(1, 8): 1}

    def test_unit(self, annulus_poset):
        r = ring(annulus_poset)
        x = {(1, 8): 3, (14,): -2}
        assert r.mul(r.one(), x) == x

    def test_degree_preserved_on_random_products(self, annulus_poset):
        r = ring(annulus_poset)
        rng = random.Random(551)
        elems = annulus_poset.elements()
        for _ in range(60):
            a, b = rng.choice(elems), rng.choice(elems)
            product = r.mul(r.generator(a), r.generator(b))
            want = annulus_poset.rank(a) + annulus_poset.rank(b)
            for mono in product:
                assert r.weight(mono) == want

    def test_commutative_exhaustive(self, annulus_poset, digon_poset):
        for poset in (annulus_poset, digon_poset):
            r = ring(poset)
            elems = poset.elements()
            for a in elems:
                for b in elems:
                    assert r.mul(r.generator(a), r.generator(b)) == \
                        r.mul(r.generator(b), r.generator(a))

    def test_associative_exhaustive(self, annulus_poset, digon_poset):
        # every triple of generators, so total degree up to 6
        for poset in (annulus_poset, digon_poset):
            r = ring(poset)
            elems = poset.elements()
            gens = {e: r.generator(e) for e in elems}
            for a in elems:
                for b in elems:
                    left_ab = r.mul(gens[a], gens[b])
                    for c in elems:
                        assert r.mul(left_ab, gens[c]) == \
                            r.mul(gens[a], r.mul(gens[b], gens[c]))


class TestMonomials:
    def test_counts_by_weight(self, square_poset, annulus_poset, digon_poset):
        assert len(ring(annulus_poset).monomials_of_weight(0)) == 1
        assert len(ring(annulus_poset).monomials_of_weight(1)) == 7
        assert len(ring(annulus_poset).monomials_of_weight(2)) == 14
        assert len(ring(square_poset).monomials_of_weight(2)) == 8
        assert len(ring(digon_poset).monomials_of_weight(2)) == 4

    def test_weight_two_annulus_content(self, annulus_poset):
        monos = ring(annulus_poset).monomials_of_weight(2)
        edges = [(e,) for e in range(8, 15)]
        squares = [(v, v) for v in range(1, 8)]
        assert sorted(monos) == sorted(edges + squares)

    def test_every_monomial_is_a_multichain(self, annulus_poset):
        r = ring(annulus_poset)
        for w in range(4):
            for mono in r.monomials_of_weight(w):
                assert all(r.poset.le(a, b)
                           for i, a in enumerate(mono) for b in mono[i + 1:])

    def test_hilbert_matches_enumeration(self, square_poset, annulus_poset,
                                         digon_poset):
        for poset in (square_poset, annulus_poset, digon_poset):
            dims = hilbert_series(poset, 4)
            r = ring(poset)
            for j in range(5):
                assert dims[j] == len(r.monomials_of_weight(j))

    def test_hilbert_known_values(self, annulus_poset, digon_poset):
        assert hilbert_series(annulus_poset, 2) == [1, 7, 14]
        assert hilbert_series(digon_poset, 2) == [1, 2, 4]

    def test_hilbert_single_vertex(self):
        poset = SimplicialPoset([1], [])
        assert hilbert_series(poset, 4) == [1, 1, 1, 1, 1]


class TestPresentations:
    def test_dimensions_match_corrected_h(self, square_poset, square_charmat,
                                          annulus_poset, annulus_charmat,
                                          digon_poset, digon_charmat):
        cases = [(square_poset, square_charmat, (1, 2, 1)),
                 (annulus_poset, annulus_charmat, (1, 5, 2)),
                 (digon_poset, digon_charmat, (1, 0, 1))]
        for poset, charmat, want in cases:
            for field in (QQ, GF(2), GF(3), GF(5)):
                q = FaceRingQuotient(poset, charmat, field)
                assert graded_dimensions(q) == want
                assert want == poset.h_prime_vector(field)

    def test_degree_one_rows_read_off_parameter_columns(self, annulus_poset,
                                                        annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        pres = q.presentation(1)
        assert pres.generators == [1, 2, 3, 4, 5, 6, 7]
        rows, labels = relation_rows(q, 1)
        rows = dict(zip(labels, rows))
        first = densify(rows[(BOTTOM, (2,))], 7)
        second = densify(rows[(BOTTOM, (1,))], 7)
        assert first == [1, 0, 1, 3, 2, 1, -3]
        assert second == [0, -1, 0, -1, -3, -2, 5]

    def test_relation_rows_reduce_to_zero(self, annulus_poset, annulus_charmat,
                                          digon_poset, digon_charmat):
        for poset, charmat in [(annulus_poset, annulus_charmat),
                               (digon_poset, digon_charmat)]:
            q = FaceRingQuotient(poset, charmat, QQ)
            for k in range(3):
                pres = q.presentation(k)
                for row in relation_rows(q, k)[0]:
                    dense = densify(row, len(pres.generators))
                    assert all(QQ.is_zero(x) for x in pres.reduce(dense))

    def test_fixed_point_identities(self, annulus_poset, annulus_charmat):
        # the two boundary components each collapse to a single class, with
        # alternating signs around the square and constant signs around the
        # triangle
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        pres = q.presentation(2)
        assert pres.dimension == 2
        reduce = lambda e: pres.reduce(unit_vector(pres, e))
        minus = lambda v: [QQ.neg(x) for x in v]
        assert reduce(8) == minus(reduce(11))
        assert reduce(9) == reduce(11)
        assert reduce(10) == minus(reduce(11))
        assert reduce(12) == reduce(14)
        assert reduce(13) == reduce(14)
        assert reduce(11) != reduce(14)

    def test_out_of_range_degrees_are_trivial(self, annulus_poset,
                                              annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        assert q.presentation(3).dimension == 0
        assert q.presentation(-1).dimension == 0

    def test_unknown_generator_rejected(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        with pytest.raises(ValidationError):
            q.presentation(1).column(99)


class TestVertexAction:
    def test_join_case(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        p1, p2 = q.presentation(1), q.presentation(2)
        assert q.vertex_action(4, unit_vector(p1, 1), 1) == \
            p2.reduce(unit_vector(p2, 11))

    def test_empty_join_case(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        p1 = q.presentation(1)
        image = q.vertex_action(5, unit_vector(p1, 1), 1)
        assert all(QQ.is_zero(x) for x in image)

    def test_elimination_case(self, annulus_poset, annulus_charmat):
        # v_1 restricted to the cell on {1, 2} is minus the third column of
        # the remaining rows, so v_1 * v_1 lands on -3 v_{14}
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        p1, p2 = q.presentation(1), q.presentation(2)
        want = [QQ.mul(QQ.from_int(-3), x) for x in unit_vector(p2, 11)]
        assert q.vertex_action(1, unit_vector(p1, 1), 1) == p2.reduce(want)

    def test_action_on_unit(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        p0, p1 = q.presentation(0), q.presentation(1)
        for i in annulus_poset.vertices():
            assert q.vertex_action(i, unit_vector(p0, BOTTOM), 0) == \
                p1.reduce(unit_vector(p1, i))

    def test_digon_vertices_vanish_in_degree_one(self, digon_poset,
                                                 digon_charmat):
        q = FaceRingQuotient(digon_poset, digon_charmat, QQ)
        p0 = q.presentation(0)
        for i in (1, 2):
            image = q.vertex_action(i, unit_vector(p0, BOTTOM), 0)
            assert all(QQ.is_zero(x) for x in image)

    def test_independent_of_cell_choice(self, annulus_poset, annulus_charmat):
        base = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        for seed in (11, 12, 13):
            rng = random.Random(seed)
            other = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
            other.simplex_above = lambda e: rng.choice(
                sorted(annulus_poset.tops_above(e), key=repr))
            for k in (0, 1):
                pres = base.presentation(k)
                for g in pres.generators:
                    for i in annulus_poset.vertices():
                        vec = unit_vector(pres, g)
                        assert base.vertex_action(i, vec, k) == \
                            other.vertex_action(i, vec, k)

    def test_non_vertex_rejected(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        with pytest.raises(ValidationError):
            q.vertex_action(8, unit_vector(q.presentation(1), 1), 1)


class TestSocle:
    def test_top_degree_is_all_socle(self, annulus_poset, annulus_charmat):
        for field in (QQ, GF(2)):
            q = FaceRingQuotient(annulus_poset, annulus_charmat, field)
            assert len(q.socle_basis(2)) == q.presentation(2).dimension == 2

    def test_degree_one_socle(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        assert len(q.socle_basis(1)) == 2
        # boundary-circle elements: the outer cycle contracted against each
        # coordinate direction
        outer_first = [0, -1, 0, -1, 0, 0, 0]
        outer_second = [1, 0, 1, 3, 0, 0, 0]
        assert q.in_socle(sparsify(outer_first), 1)
        assert q.in_socle(sparsify(outer_second), 1)
        assert not q.in_socle(
            sparsify(unit_vector(q.presentation(1), 5)), 1)

    def test_socle_members_are_killed_by_every_vertex(self, annulus_poset,
                                                      annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        for k in (1, 2):
            for vec in q.socle_basis(k):
                assert q.in_socle(sparsify(vec), k)

    def test_degree_zero_socle_trivial_when_vertices_survive(
            self, square_poset, square_charmat, annulus_poset,
            annulus_charmat):
        for poset, charmat in [(square_poset, square_charmat),
                               (annulus_poset, annulus_charmat)]:
            q = FaceRingQuotient(poset, charmat, QQ)
            assert q.socle_basis(0) == []

    def test_degree_zero_socle_digon(self, digon_poset, digon_charmat):
        # every vertex class dies in degree one here, so the unit itself is
        # annihilated by the whole ideal
        q = FaceRingQuotient(digon_poset, digon_charmat, QQ)
        assert len(q.socle_basis(0)) == 1


class TestParameterIdeal:
    def test_all_relation_rows_lie_in_the_ideal(self, annulus_poset,
                                                annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        for k in (1, 2):
            gens = q.presentation(k).generators
            for row, label in zip(*relation_rows(q, k)):
                coeffs = {gens[j]: int(x) for j, x in row.items()}
                assert theta_span_contains(q, coeffs, k), label

    def test_non_member_detected(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        assert not theta_span_contains(q, {1: 1}, 1)


class TestPresentationMechanics:
    def test_round_trip_coordinates(self, annulus_poset, annulus_charmat):
        q = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        pres = q.presentation(1)
        vec = pres.reduce([1, 2, 0, 0, 1, 0, -1])
        assert pres.lift(pres.coordinates(sparsify(vec))) == vec


class TestSignedQuotient:
    def build(self, poset, charmat, flips):
        return FaceRingQuotient(poset, charmat, QQ, flips=flips)

    def test_flipped_dimensions_agree(self, annulus_poset, annulus_charmat):
        flipped = self.build(annulus_poset, annulus_charmat, {2, 4, 10, 12})
        plain = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        assert graded_dimensions(flipped) == graded_dimensions(plain)

    def test_transported_socle_stays_socle(self, annulus_poset,
                                           annulus_charmat):
        flips = {2, 4, 10, 12}
        flipped = self.build(annulus_poset, annulus_charmat, flips)
        plain = FaceRingQuotient(annulus_poset, annulus_charmat, QQ)
        for k in (1, 2):
            vecs = plain.socle_basis(k)
            gens = plain.presentation(k).generators
            assert len(flipped.socle_basis(k)) == len(vecs)
            for vec in vecs:
                moved = [-x if g in flips else x for g, x in zip(gens, vec)]
                assert flipped.in_socle(sparsify(moved), k)

    def test_transported_rows_stay_in_ideal(self, annulus_poset,
                                            annulus_charmat):
        flipped = self.build(annulus_poset, annulus_charmat, {1, 8, 13})
        gens = flipped.presentation(1).generators
        for row, label in zip(*relation_rows(flipped, 1)):
            coeffs = {gens[j]: int(x) for j, x in row.items()}
            assert theta_span_contains(flipped, coeffs, 1), label

"""End-to-end acceptance checks.

One test per criterion, so the verbose test listing reads as a pass or
fail line for each.  Frozen numbers come from independent hand
computation on the bundled shapes; randomized parts run on seeded
generated fixtures so every run sees the same inputs.
"""

import json
import random

from sympy import Matrix

from torushom import cli, snf
from torushom.cycles import CycleExpression, IntersectionCalculator
from torushom.fields import GF, QQ, ZZ
from torushom.fields import rank as field_rank
from torushom.fixtures import element_ids, read_geometry, resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex

from conftest import (ANNULUS_CELLS, ANNULUS_GEOMETRY, build_annulus_poset,
                      build_digon_poset, dense_smith, densify, int_mat_mul,
                      push_labels, row_spaces_equal)
from test_facering import FaceRing, theta_span_contains

FIELDS = (QQ, GF(2), GF(3), GF(5))


def random_fixture_pool(count, master_seed):
    rng = random.Random(master_seed)
    pool = []
    for _ in range(count):
        lengths = [rng.randrange(3, 7)]
        for _ in range(rng.randrange(0, 3)):
            lengths.append(rng.randrange(2, 5))
        pool.append(polygon_with_holes(tuple(lengths),
                                       seed=rng.randrange(10 ** 6)))
    return pool


def test_criterion_1_reference_invariants():
    m = resolve_fixture("square_hole").manifold
    assert m.poset.h_prime_vector(QQ) == (1, 5, 2)
    assert m.diagonal_dimensions(QQ, "initial") == (2, 5, 1)
    assert m.diagonal_dimensions(QQ, "limit") == (1, 5, 1)
    assert m.total_betti(QQ) == (1, 1, 7, 1, 1)
    middle = m.bigraded_component(1, 1, QQ)
    assert m.diagonal_page(1, QQ, "limit").dimension == 5
    assert middle.free_rank - 5 == 2
    assert middle.free_rank == 7
    chi = m.euler_characteristic(QQ)
    assert chi == 7
    assert chi == m.poset.f_vector()[m.n]
    print("criterion 1 (reference invariants): PASS")


def test_criterion_2_relation_rows():
    m = resolve_fixture("square_hole").manifold
    rows = m.first_kind_rows(1)
    expected = [[1, 0, 1, 3, 2, 1, -3],
                [0, 1, 0, 1, 3, 2, -5]]
    assert row_spaces_equal([densify(row, 7) for row in rows], expected, QQ)

    rows0 = m.first_kind_rows(0)
    assert field_rank([densify(row, 7) for row in rows0], QQ) == 5

    second = m.second_kind_rows(0, ZZ)
    assert len(second) == 1
    gens = m.generators(0)
    support = {gens[j]: v for j, v in second[0].items()}
    assert support in ({11: 1, 14: -1}, {11: -1, 14: 1})
    print("criterion 2 (relation rows): PASS")


def test_criterion_3_cli_intersections(capsys):
    code = cli.main(["intersect", "square_hole",
                     "dia:L:e1", "dia:L:e2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["magnitude"] == "9"

    code = cli.main(["intersect", "square_hole",
                     "spine:eta:e0", "dia:L:e12", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["magnitude"] == "1"
    assert payload["product"] == "spine:pt:e0"
    print("criterion 3 (cli intersections): PASS")


def test_criterion_4_dimension_identity():
    shapes = [resolve_fixture(name)
              for name in ("square", "square_hole", "digon")]
    shapes.extend(random_fixture_pool(22, master_seed=20260822))
    assert len(shapes) >= 25
    for fixture in shapes:
        m = fixture.manifold
        for field in FIELDS:
            hp = m.poset.h_prime_vector(field)
            counts = tuple(hp[m.n - q] for q in range(m.n + 1))
            pages = m.diagonal_dimensions(field, "initial")
            ring = tuple(m.quotient(field).presentation(m.n - q).dimension
                         for q in range(m.n + 1))
            assert pages == ring == counts, (fixture.name, field.name)
    print("criterion 4 (dimension identity on %d fixtures): PASS"
          % len(shapes))


def test_criterion_5_socle_placement():
    shapes = [resolve_fixture(name)
              for name in ("square", "square_hole", "digon")]
    shapes.extend(random_fixture_pool(6, master_seed=5))
    for fixture in shapes:
        m = fixture.manifold
        quo = m.quotient(QQ)
        for q in range(m.n - 1):
            rows = m.second_kind_rows(q, QQ)
            for position, row in enumerate(rows):
                assert quo.in_socle(row, m.n - q), (fixture.name, position)
        for q in range(m.n):
            report = m.novik_swartz_check(q, QQ)
            assert report["ok"], (fixture.name, report)
    print("criterion 5 (socle placement): PASS")


def test_criterion_6_theta_span():
    m = resolve_fixture("square_hole").manifold
    quo = m.quotient(QQ)
    checked = 0
    for q in range(m.n + 1):
        rows = m.first_kind_rows(q)
        labels = push_labels(m.charmat, m.n - q,
                             m.poset.elements_of_rank(m.n - q - 1))
        assert len(rows) == len(labels)
        gens = m.generators(q)
        for row, label in zip(rows, labels):
            coeffs = {gens[j]: int(v) for j, v in row.items()}
            assert theta_span_contains(quo, coeffs, m.n - q), label
            checked += 1
    assert checked == 9
    print("criterion 6 (theta span, %d rows): PASS" % checked)


def _gauge_flipped(fixture, flips):
    poset = fixture.poset
    cells = [{"id": c.id, "dim": c.dim,
              "boundary": [[r, -v if r in flips else v]
                           for r, v in c.boundary]}
             for c in fixture.manifold.corner.interior]
    corner = CornerComplex(poset, cells, flips=flips)
    return TorusManifold(corner, fixture.charmat)


def _flipped_annulus(flips):
    poset = build_annulus_poset()
    cells = []
    for cell in ANNULUS_CELLS:
        boundary = [[ref, -co if ref in flips else co]
                    for ref, co in cell["boundary"]]
        cells.append({"id": cell["id"], "dim": cell["dim"],
                      "boundary": boundary})
    corner = CornerComplex(poset, cells, flips=flips)
    base = resolve_fixture("square_hole").manifold
    manifold = TorusManifold(corner, base.charmat)

    def moved(entries):
        return [[e, -c if e in flips else c] for e, c in entries]

    geometry = dict(ANNULUS_GEOMETRY)
    geometry["bordism"] = [
        {"source": "L", "target": "Lp",
         "rows": {"1": moved([[4, 1], [7, -5]]),
                  "2": moved([[4, -3], [7, 3]])}},
        {"source": "L", "target": "Lpp",
         "chain": {e: -c if e in flips else c
                   for e, c in {1: 1, 5: 1}.items()}},
    ]
    calc = IntersectionCalculator(
        manifold, read_geometry(geometry, 2, element_ids(poset)))
    return manifold, calc


def test_criterion_7_structural_invariance():
    bundled = [resolve_fixture(name)
               for name in ("square", "square_hole", "digon")]
    generated = random_fixture_pool(2, master_seed=7)
    for fixture in bundled + generated:
        fixture.manifold.poset.validate()
        assert fixture.manifold.corner.validate() == []

    rng = random.Random(77)
    for _ in range(10):
        nrows = rng.randrange(1, 6)
        ncols = rng.randrange(1, 6)
        mat = [[rng.randrange(-9, 10) for _ in range(ncols)]
               for _ in range(nrows)]
        result = snf.smith_normal_form(mat)
        u, d, v, _ = dense_smith(result)
        assert int_mat_mul(int_mat_mul(u, mat), v) == d
        assert abs(Matrix(u).det()) == 1
        assert abs(Matrix(v).det()) == 1
        diag = result[0]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0

    for fixture in bundled:
        m = fixture.manifold
        for coeffs in (QQ, GF(3)):
            table = m.bigraded_table(coeffs)
            for (k, l), comp in table.items():
                dual = table[(m.n - k, m.n - l)]
                assert comp.free_rank == dual.free_rank, (fixture.name, k, l)

    rng = random.Random(20260822)
    for fixture in bundled + [polygon_with_holes((6, 4, 3), seed=3)]:
        base = fixture.manifold
        base_initial = base.diagonal_dimensions(QQ, "initial")
        base_limit = base.diagonal_dimensions(QQ, "limit")
        base_betti = base.total_betti(QQ)
        base_kernel = [len(base.kernel_of_g(k)) for k in range(base.n + 1)]
        base_rows = {q: [densify(row, len(base.generators(q)))
                         for row in base.first_kind_rows(q)]
                     for q in range(base.n + 1)}
        base_socles = {(q, f): base.novik_swartz_check(q, f)
                       for q in range(base.n) for f in (QQ, GF(3))}
        base_table = base.bigraded_table(ZZ)
        elements = list(base.poset.elements())
        for trial in range(10):
            flips = {e for e in elements if rng.random() < 0.5}
            flipped = _gauge_flipped(fixture, flips)
            label = (fixture.name, trial)
            assert flipped.diagonal_dimensions(QQ, "initial") == \
                base_initial, label
            assert flipped.diagonal_dimensions(QQ, "limit") == \
                base_limit, label
            assert flipped.total_betti(QQ) == base_betti, label
            assert [len(flipped.kernel_of_g(k))
                    for k in range(base.n + 1)] == base_kernel, label
            assert {(q, f): flipped.novik_swartz_check(q, f)
                    for q, f in base_socles} == base_socles, label
            assert flipped.bigraded_table(ZZ) == base_table, label
            for q in range(base.n + 1):
                rows = flipped.first_kind_rows(q)
                gens = flipped.generators(q)
                undone = [[(-v if g in flips else v) for g, v in
                           zip(gens, densify(row, len(gens)))]
                          for row in rows]
                assert row_spaces_equal(undone, base_rows[q], QQ), \
                    label + (q,)

    rng = random.Random(99)
    elements = list(build_annulus_poset().elements())
    for trial in range(10):
        flips = {e for e in elements if rng.random() < 0.5}
        _, calc = _flipped_annulus(flips)
        z = calc.intersect(CycleExpression.diaphragm("L", (1,)),
                           CycleExpression.diaphragm("L", (2,)))
        assert calc.magnitude(z) == 9, trial
        w = calc.intersect(CycleExpression.spine("eta"),
                           CycleExpression.diaphragm("L", (1, 2)))
        assert calc.magnitude(w) == 1, trial

    for poset in (build_annulus_poset(), build_digon_poset()):
        ring = FaceRing(poset)
        monos = {w: ring.monomials_of_weight(w) for w in range(1, 6)}
        for a in monos:
            for b in monos:
                if a + b > 6:
                    continue
                for x in monos[a]:
                    for y in monos[b]:
                        assert ring.mul({x: 1}, {y: 1}) == \
                            ring.mul({y: 1}, {x: 1})
        for a in monos:
            for b in monos:
                for c in monos:
                    if a + b + c > 6:
                        continue
                    for x in monos[a]:
                        for y in monos[b]:
                            for z in monos[c]:
                                left = ring.mul(ring.mul({x: 1}, {y: 1}),
                                                {z: 1})
                                right = ring.mul({x: 1},
                                                 ring.mul({y: 1}, {z: 1}))
                                assert left == right
    print("criterion 7 (structural invariance): PASS")


def test_criterion_8_hole_count_scaling():
    cases = {1: (4, 3), 2: (3, 3, 3), 3: (4, 2, 2, 2)}
    for holes, lengths in cases.items():
        m = polygon_with_holes(lengths, seed=13).manifold
        totals = m.total_betti(QQ)
        assert totals[1] == holes
        assert totals[3] == holes
        middle = m.bigraded_component(1, 1, QQ).free_rank
        diagonal = m.diagonal_page(1, QQ, "limit").dimension
        assert middle - diagonal == 2 * holes
        assert len(m.kernel_of_g(2)) == holes
    print("criterion 8 (hole count scaling): PASS")

"""Objects that exist once: the poset's face complex, the initial
diagonal pages, which are the face ring quotient's presentations, the
second-kind rows, which the limit pages hold, the inverse of each
maximal cell's vertex matrix, and the echelon of each boundary's columns
per field.  Work that is not needed is not done: the Buchsbaum check
builds no link poset, no empty product is reduced, no presentation keeps
a relation row its echelon has taken, no integral rank replays a Smith
transform, and the socle
placement and the restriction kernel eliminate nothing again: they read
the kept page echelons.  No command runs a dense ``fields`` helper, and
the exactness check reads the kept space echelon, so a wrong connecting
map is named there."""

import json
import tracemalloc
from collections import Counter
from math import comb

import pytest

from conftest import (build_cross_polytope, build_gauged_cross_polytope,
                      build_punctured_torus, count_table_builds,
                      cross_polytope_ball, densify, row_spaces_equal)
from test_connecting_map import filled_sphere
from test_sparse_snf import replays
from torushom import fields, snf
from torushom.chains import ChainComplex
from torushom.charmat import CharacteristicMatrix
from torushom.cli import main
from torushom.facering import FaceRingQuotient, GradedPresentation
from torushom.fields import GF, QQ, ZZ, Echelon
from torushom.fixtures import dumps_fixture, parse_fixture, resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.manifold import TorusManifold
from torushom.orbit import CornerComplex
from torushom.posets import SimplicialPoset


@pytest.fixture
def manifold():
    return polygon_with_holes((6, 4, 3), seed=3).manifold


def test_poset_complex_is_built_once(manifold, monkeypatch):
    """h', the corner's checks and the consistency report read one
    complex of the poset, its face complex, which is the corner's
    boundary complex; at n = 2 no augmented or link chains are built."""
    built = []
    face_complex = SimplicialPoset.face_complex
    local = SimplicialPoset._local_complex

    def counting(self, flips=()):
        if frozenset(flips) not in self._face_complexes:
            built.append(self)
        return face_complex(self, flips)

    def recording(self, e, signs):
        built.append(e)
        return local(self, e, signs)

    monkeypatch.setattr(SimplicialPoset, "face_complex", counting)
    monkeypatch.setattr(SimplicialPoset, "_local_complex", recording)
    first = manifold.poset.h_prime_vector(QQ)
    assert manifold.poset.h_prime_vector(QQ) == first
    assert manifold.corner.consistency_violations(QQ) == []
    assert all(ok for _, ok, _ in manifold.consistency_report(QQ))
    assert built == [manifold.poset]
    assert manifold.corner.boundary_complex() is \
        manifold.poset.face_complex()


def test_each_boundary_column_is_eliminated_once_per_field(manifold,
                                                            monkeypatch):
    """Ranks, free generators, the connecting map over Q and Z and the
    poset's reduced Betti numbers all read one kept echelon of each
    boundary's columns per field."""
    added = []
    add_sparse = Echelon.add_sparse

    def recording(self, v):
        added.append((v, self.field))  # held, so no id is reused
        return add_sparse(self, v)

    monkeypatch.setattr(Echelon, "add_sparse", recording)
    corner = manifold.corner
    for coeffs in (QQ, ZZ):
        for q in range(manifold.n):
            corner.delta_image(q, coeffs)
    assert corner.consistency_violations(QQ) == []
    for q in range(manifold.n):
        manifold.novik_swartz_check(q, QQ)
    for coeffs in (QQ, ZZ):
        manifold.bigraded_table(coeffs)
        manifold.poset.h_prime_vector(coeffs)
    complexes = [corner.complex_for(s) for s in ("boundary", "space", "pair")]
    assert complexes[0] is manifold.poset.face_complex()
    columns = {id(column) for cx in complexes
               for cols in cx.boundaries.values() for column in cols}
    counts = Counter((id(v), field) for v, field in added if id(v) in columns)
    face = corner.boundary_complex().boundaries
    assert {id(c) for cols in face.values() for c in cols} <= {
        key for key, field in counts if field is QQ}
    assert max(counts.values()) == 1


RESUMED_SHAPES = {
    "polygon-643": lambda: polygon_with_holes((6, 4, 3), seed=3).manifold,
    "cross4-ball": lambda: parse_fixture(cross_polytope_ball(4, 2)).manifold,
}


@pytest.mark.parametrize("shape", sorted(RESUMED_SHAPES))
def test_space_complex_reuses_the_face_columns(shape, monkeypatch):
    """The space complex is built on the boundary complex, the poset's
    face complex: its face columns are the face complex's own objects,
    the terms of a face cell are read once across the three complexes
    (the cells of degree 0 have no boundary to read), and the corner
    reads the terms of its interior cells alone."""
    m = RESUMED_SHAPES[shape]()
    corner = m.corner
    calls, interior = Counter(), Counter()
    init = ChainComplex.__init__
    cell_boundary = CornerComplex._cell_boundary

    def counting(self, bases, terms, base=None):
        def counted(cell):
            calls[cell] += 1
            return terms(cell)
        init(self, bases, counted, base)

    def recording(self, cell):
        interior[cell] += 1
        return cell_boundary(self, cell)

    monkeypatch.setattr(ChainComplex, "__init__", counting)
    monkeypatch.setattr(CornerComplex, "_cell_boundary", recording)
    face, space, _ = (corner.complex_for(s)
                      for s in ("boundary", "space", "pair"))
    assert face is m.poset.face_complex()
    assert interior and set(interior) <= {c.id for c in corner.interior}
    for k, columns in face.boundaries.items():
        assert all(a is b for a, b in zip(columns, space.boundaries[k]))
    read = [c for k in face.boundaries for c in face.basis(k)]
    assert read and all(calls[c] == 1 for c in read)
    assert sum(calls[c] for k in face.degrees()
               for c in face.basis(k)) == len(read)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("shape", sorted(RESUMED_SHAPES))
def test_space_echelon_equals_a_fresh_one(shape, field):
    """The space echelon, a copy of the boundary echelon extended by the
    interior columns, has the pivots and rows of an echelon of all its
    columns, in every degree."""
    m = RESUMED_SHAPES[shape]()
    space = m.corner.space_complex()
    resumed = 0
    for k, columns in space.boundaries.items():
        fresh = Echelon(field)
        for column in columns:
            fresh.add_sparse(column)
        kept = space._echelon(k, field)
        assert kept.pivots == fresh.pivots
        assert all(kept.row(pc) == fresh.row(pc) for pc in kept.pivots)
        resumed += bool(m.corner.boundary_complex()._echelon(k, field))
    assert resumed >= 1


# The Z homology of the three complexes of each cross-polytope ball, as
# (describe, free generators, torsion generators) per (selector, degree)
# where it is not 0.  Each free generator of the wall sphere is the sum of
# the top faces of the boundary.
CROSS_BALL_HOMOLOGY = {
    (3, 1): {("boundary", 0): ("Z", [{7: 1}], []),
             ("boundary", 2): ("Z", [dict.fromkeys(range(6), 1)], []),
             ("space", 0): ("Z", [{7: 1}], []),
             ("pair", 3): ("Z", [{0: 1}], [])},
    (4, 2): {("boundary", 0): ("Z", [{15: 1}], []),
             ("boundary", 3): ("Z", [dict.fromkeys(range(8), 1)], []),
             ("space", 0): ("Z", [{15: 1}], []),
             ("pair", 4): ("Z", [{0: 1}], [])},
}


@pytest.mark.parametrize("n,seed", sorted(CROSS_BALL_HOMOLOGY),
                         ids=["cross3-ball", "cross4-ball"])
def test_space_smith_forms_take_no_empty_residual(n, seed, monkeypatch):
    """Where the space complex adds no cell and the boundary complex's
    Smith form has unit pivots only, that form is carried over: no Smith
    form is taken of a matrix with no columns, and the Z homology of
    every complex is as pinned."""
    shapes = []
    smith = snf.smith_normal_form

    def recording(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return smith(m)

    monkeypatch.setattr(snf, "smith_normal_form", recording)
    corner = parse_fixture(cross_polytope_ball(n, seed)).manifold.corner
    pinned = CROSS_BALL_HOMOLOGY[(n, seed)]
    for selector in ("boundary", "space", "pair"):
        for q in range(n + 1):
            group = corner.homology(selector, q, ZZ)
            got = (group.describe(), group.free_generators,
                   group.torsion_generators)
            assert got == pinned.get((selector, q), ("0", [], [])), \
                (selector, q)
    assert shapes and all(width for _, width in shapes), shapes


def test_free_generators_replay_w_once(manifold):
    """The integral free generators of a degree read W of the next
    boundary's Smith form, replayed from its step log on the first read
    only; the ranks before it replay nothing."""
    seen = 0
    for selector in ("boundary", "space", "pair"):
        cx = manifold.corner.complex_for(selector)
        for k in cx.degrees():
            with replays() as built:
                group = cx.homology(k, ZZ)
                group.describe()
                assert built == []
                first = group.free_generators
                assert group.free_generators is first
            if k + 1 in cx.boundaries and group.free_rank:
                assert built.count("w") == 1
                seen += 1
    assert seen >= 3


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_initial_page_is_the_ring_presentation(manifold, field):
    quotient = manifold.quotient(field)
    for q in range(manifold.n + 1):
        page = manifold.diagonal_page(q, field, "initial")
        assert page is quotient.presentation(manifold.n - q)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_limit_page_extends_the_initial_page(manifold, field):
    for q in range(manifold.n + 1):
        initial = manifold.diagonal_page(q, field, "initial")
        limit = manifold.diagonal_page(q, field, "limit")
        if q > manifold.n - 2:
            assert limit is initial
            continue
        extra = manifold.second_kind_rows(q, field)
        assert limit.row_count == initial.row_count + len(extra)
        assert all(limit.echelon.contains_sparse(initial.echelon.row(pc))
                   for pc in initial.echelon.pivots)
        assert limit.generators == initial.generators
        assert manifold.diagonal_page(q, field, "limit") is limit


def test_initial_pages_keep_no_relation_rows():
    """A presentation keeps its echelon and a count of its relation rows,
    not the rows: the initial pages of the 6-cross-polytope boundary
    leave under 3 MB allocated, where its rows kept dense take about
    9 MB."""
    poset, rows = build_cross_polytope(6)
    m = TorusManifold(CornerComplex(poset, []),
                      CharacteristicMatrix(poset, rows))
    tracemalloc.start()
    try:
        dims = m.diagonal_dimensions(QQ, "initial")
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dims == (1, 6, 15, 20, 15, 6, 1)
    assert kept < 3 * 2 ** 20, kept


@pytest.fixture
def example_file(tmp_path):
    target = tmp_path / "example.json"
    target.write_text(dumps_fixture(polygon_with_holes((12, 6, 6), seed=3)))
    return str(target)


def _count_second_kind_rows(monkeypatch):
    calls = []
    original = TorusManifold.second_kind_rows

    def counting(self, q, coeffs=ZZ):
        calls.append((q, coeffs))
        return original(self, q, coeffs)

    monkeypatch.setattr(TorusManifold, "second_kind_rows", counting)
    return calls


@pytest.mark.parametrize("coeffs", ["q", "z", "f5"])
def test_report_builds_second_kind_rows_once_per_degree_and_field(
        example_file, monkeypatch, capsys, coeffs):
    calls = _count_second_kind_rows(monkeypatch)
    assert main(["report", example_file, "--json", "--coeffs", coeffs]) == 0
    capsys.readouterr()
    assert calls
    assert max(Counter(calls).values()) == 1, calls


def test_check_builds_second_kind_rows_once(example_file, monkeypatch,
                                            capsys):
    calls = _count_second_kind_rows(monkeypatch)
    assert main(["check", example_file, "--json"]) == 0
    capsys.readouterr()
    assert calls == [(0, QQ)]


def test_push_computes_each_coefficient_once(example_file, monkeypatch,
                                             capsys):
    """Each rank's minor table, and so each c(g, A), is built once per
    matrix across ``check_star`` and every push of ``report``: the table
    of a rank is expanded from the one below it and kept, and
    ``check_star``'s top-cell determinants are the rank-n table.  A later
    ``check_star`` or push of any rank builds none, and neither calls the
    validating ``c_coefficient``."""
    builds = count_table_builds(monkeypatch)
    coefficients, inside = [], []
    push = CharacteristicMatrix.push
    check_star = CharacteristicMatrix.check_star
    c_coefficient = CharacteristicMatrix.c_coefficient

    def within(method):
        def wrapped(self, *args, **kwargs):
            inside.append(method)
            try:
                return method(self, *args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def counting_coefficient(self, element, axes):
        if inside:
            coefficients.append((element, axes))
        return c_coefficient(self, element, axes)

    monkeypatch.setattr(CharacteristicMatrix, "push", within(push))
    monkeypatch.setattr(CharacteristicMatrix, "check_star",
                        within(check_star))
    monkeypatch.setattr(CharacteristicMatrix, "c_coefficient",
                        counting_coefficient)
    assert main(["report", example_file, "--json"]) == 0
    capsys.readouterr()
    [cm] = {cm for cm, _ in builds}
    once = {(cm, k): 1 for k in range(cm.n + 1)}
    assert builds == once
    assert cm.check_star(QQ) and cm.check_star(GF(5))
    for k in range(cm.n + 1):
        cm.push(k, [{0: 1}], GF(5))
    assert builds == once
    assert coefficients == []


INVERSE_SHAPES = {
    "cross3": lambda: build_gauged_cross_polytope(3, seed=1),
    "cross3-det3": lambda: build_gauged_cross_polytope(3, seed=3, scale=3),
    "cross4": lambda: build_gauged_cross_polytope(4, seed=2),
    "square_hole": lambda: (lambda m: (m.poset, m.charmat.rows))(
        resolve_fixture("square_hole").manifold),
}


def test_substitution_inverts_each_cell_matrix_once_per_field(
        example_file, monkeypatch, capsys):
    """What ``_substitution`` keeps for a top cell is the inverse of its
    vertex matrix over QQ, GF(2) and GF(5), read off the minor tables
    (``c_coefficient``) once per (field, cell): the gauged cross-polytopes
    (one with vertex determinants ±3) and square_hole, cell by cell, and
    ``report`` over Q and Z, where neither the field path nor the integral
    one solves anything."""
    reads, built, solved = [], [], []
    c_coefficient = CharacteristicMatrix.c_coefficient
    substitution = FaceRingQuotient._substitution
    solve_all = fields.solve_all
    int_solve_all = snf.int_solve_all

    def counting(self, element, axes):
        reads.append((element, tuple(axes)))
        return c_coefficient(self, element, axes)

    def recording(self, top):
        before = len(reads)
        out = substitution(self, top)
        if len(reads) > before:
            built.append((self.field, top))
        return out

    def counting_solve(rows, bs, field):
        solved.append(field)
        return solve_all(rows, bs, field)

    def counting_int_solve(m, bs):
        solved.append(ZZ)
        return int_solve_all(m, bs)

    monkeypatch.setattr(CharacteristicMatrix, "c_coefficient", counting)
    monkeypatch.setattr(FaceRingQuotient, "_substitution", recording)
    monkeypatch.setattr(fields, "solve_all", counting_solve)
    monkeypatch.setattr(snf, "int_solve_all", counting_int_solve)
    for shape, build in INVERSE_SHAPES.items():
        poset, rows = build()
        charmat = CharacteristicMatrix(poset, rows)
        for field in KERNEL_FIELDS:
            quo = FaceRingQuotient(poset, charmat, field)
            for top in poset.elements_of_rank(charmat.n):
                position, inverse = quo._substitution(top)
                again = quo._substitution(top)
                assert again[0] is position and again[1] is inverse
                inside = sorted(poset.ver(top))
                assert position == {w: r for r, w in enumerate(inside)}
                for r in range(len(inside)):
                    for w in inside:
                        entry = field.zero
                        for x, y in zip(inverse[r], rows[w]):
                            entry = field.add(entry, field.mul(
                                x, field.from_int(y)))
                        assert entry == field.from_int(
                            int(w == inside[r])), (shape, field, top)
            assert Counter(built) == Counter(
                (field, top) for top in poset.elements_of_rank(charmat.n))
            built.clear()
    for coeffs in ("q", "z"):
        assert main(["report", example_file, "--coeffs", coeffs,
                     "--json"]) == 0
        capsys.readouterr()
        assert built and max(Counter(built).values()) == 1
        built.clear()
    assert solved == []


def test_buchsbaum_check_builds_no_poset(example_file, monkeypatch, capsys):
    checks, built = [], []
    buchsbaum_check = SimplicialPoset.buchsbaum_check
    init = SimplicialPoset.__init__

    def flagged(self, field=QQ):
        checks.append(True)
        try:
            return buchsbaum_check(self, field)
        finally:
            checks.pop()

    def recording(self, *args, **kwargs):
        if checks:
            built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialPoset, "buchsbaum_check", flagged)
    monkeypatch.setattr(SimplicialPoset, "__init__", recording)
    assert main(["report", example_file, "--json"]) == 0
    capsys.readouterr()
    assert built == []


def test_in_socle_reduces_no_empty_product(example_file, monkeypatch,
                                           capsys):
    inside, reductions = [], []
    in_socle = FaceRingQuotient.in_socle
    contains_sparse = Echelon.contains_sparse

    def flagged(self, vec, k):
        inside.append(True)
        try:
            return in_socle(self, vec, k)
        finally:
            inside.pop()

    def recording(self, v):
        if inside:
            reductions.append(bool(v))
        return contains_sparse(self, v)

    monkeypatch.setattr(FaceRingQuotient, "in_socle", flagged)
    monkeypatch.setattr(Echelon, "contains_sparse", recording)
    assert main(["report", example_file, "--json"]) == 0
    capsys.readouterr()
    assert reductions and all(reductions), reductions.count(False)


# --- one kernel reader for maps into a quotient ---------------------------

KERNEL_FIELDS = [QQ, GF(2), GF(5)]
KERNEL_SHAPES = {
    **{"polygon-643-s%d" % seed: (lambda seed=seed: polygon_with_holes(
        (6, 4, 3), seed=seed).manifold) for seed in range(4)},
    "cross3": lambda: filled_sphere(lambda: build_cross_polytope(3)),
}


def reference_kernel_of_g(m, k, field):
    """The earlier restriction kernel: the rref of the second-kind rows
    reduced against the initial page, as dense rows."""
    q = m.n - k
    if q > m.n - 2:
        return []
    initial = m.diagonal_page(q, field, "initial")
    width = len(initial.generators)
    return fields.rref([initial.reduce(densify(row, width))
                        for row in m.second_kind_rows(q, field)],
                       field)[0]


def reference_socle_kernel(m, q, field):
    """The earlier socle-placement kernel, as (dimension, ok): the
    nullspace of the transposed reduced pushed classes, compared by
    ``row_spaces_equal`` with the dense connecting-map coordinates spread
    across the axes on the top degree, and with nothing below it."""
    k = m.n - q
    pres = m.quotient(field).presentation(k)
    hq = m.corner.homology("boundary", q, field)
    axes = comb(m.n, q)
    vectors = m.charmat.push(k, hq.free_generators, field)
    reduced = [pres.reduce(densify(v, len(pres.generators)))
               for v in vectors]
    kernel = fields.nullspace([list(c) for c in zip(*reduced)], field)
    expected = []
    if q == m.n - 1:
        for coord in m.corner.delta_image(q, field)[1]:
            for pick in range(axes):
                row = [field.zero] * (hq.free_rank * axes)
                for j, value in coord.items():
                    row[j * axes + pick] = value
                expected.append(row)
    return len(kernel), row_spaces_equal(kernel, expected, field)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "GF2", "GF5"])
@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
def test_quotient_kernels_read_the_kept_echelons(shape, field, monkeypatch):
    """The socle placement and the restriction kernel run no dense
    elimination and give what the earlier dense formulas give."""
    m = KERNEL_SHAPES[shape]()
    called = []

    def recording(name, original):
        def wrapper(*args):
            called.append(name)
            return original(*args)
        return wrapper

    for name in ("rref", "nullspace"):
        monkeypatch.setattr(fields, name,
                            recording(name, getattr(fields, name)))
    socle = [m.novik_swartz_check(q, field) for q in range(m.n)]
    kernels = [m.kernel_of_g(k, field) for k in range(m.n + 1)]
    assert m.corner.consistency_violations(field) == []
    assert called == []
    monkeypatch.undo()
    for q, rep in enumerate(socle):
        dim, ok = reference_socle_kernel(m, q, field)
        assert ok and (rep["kernel_dim"], rep["kernel_ok"]) == (dim, ok)
        assert rep["rank"] == rep["classes"] * rep["axes"] - dim
    width = {k: len(m.generators(m.n - k)) for k in range(m.n + 1)}
    assert [[densify(row, width[k]) for row in kernel]
            for k, kernel in enumerate(kernels)] == \
        [reference_kernel_of_g(m, k, field) for k in range(m.n + 1)]
    assert socle[-1]["kernel_dim"]
    assert any(kernels) or shape == "cross3"  # its delta is 0 below n-1


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "GF2", "GF5"])
@pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
def test_socle_kernel_check_fails_on_a_wrong_delta(shape, field,
                                                    monkeypatch):
    """On the top degree the kernel must hold every expected vector and
    no other: dropping a connecting-map coordinate vector fails the
    check, and so does swapping one for a vector outside their span."""
    m = KERNEL_SHAPES[shape]()
    top = m.n - 1
    chains, coords = m.corner.delta_image(top, field)
    assert m.novik_swartz_check(top, field)["kernel_ok"]
    width = m.corner.boundary_complex().homology(top, field).free_rank
    span = Echelon(field)
    for c in coords:
        span.add_sparse(c)
    units = [{j: field.one} for j in range(width)]
    outside = [u for u in units if not span.contains_sparse(u)]
    wrong = [(chains[:-1], coords[:-1])]
    if outside:  # the span is proper: swap in a vector off it
        wrong.append((chains, [outside[0]] + coords[1:]))
    for image in wrong:
        monkeypatch.setattr(type(m.corner), "delta_image",
                            lambda self, q, coeffs, image=image: image)
        report = m.novik_swartz_check(top, field)
        assert not report["kernel_ok"] and not report["ok"]
        assert report["kernel_ok"] == reference_socle_kernel(
            m, top, field)[1]
    assert len(wrong) == 2 or shape == "cross3"


EXACTNESS_SHAPES = {
    "punctured_torus": build_punctured_torus,
    "polygon-643-s3": lambda: polygon_with_holes((6, 4, 3), seed=3),
}


def wrong_deltas(chains, coords, width, field):
    """Connecting-map images that break exactness, by name: the last
    coordinate vector dropped, and, where the coordinates, over ``width``
    generators, span a proper subspace, the first swapped for a unit
    vector off it."""
    wrong = {"drop": (chains[:-1], coords[:-1])}
    span = Echelon(field)
    for c in coords:
        span.add_sparse(c)
    units = [{j: field.one} for j in range(width)]
    outside = [u for u in units if not span.contains_sparse(u)]
    if outside:
        wrong["swap"] = (chains, [outside[0]] + coords[1:])
    return wrong


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=["QQ", "GF2", "GF5"])
@pytest.mark.parametrize("shape", sorted(EXACTNESS_SHAPES))
def test_exactness_check_fails_on_a_wrong_delta(shape, field, tmp_path,
                                                monkeypatch, capsys):
    """The inclusion kernel must be spanned by exactly the connecting-map
    coordinates: a dropped or a swapped vector in one degree is named as a
    violation in that degree, and ``check`` exits 2."""
    fixture = EXACTNESS_SHAPES[shape]()
    path = tmp_path / "shape.json"
    path.write_text(dumps_fixture(fixture))
    corner = fixture.manifold.corner
    assert corner.consistency_violations(field) == []
    original = CornerComplex.delta_image
    message = "connecting-map image and inclusion kernel differ in degree %d"
    seen = set()
    for q in range(corner.n):
        chains, coords = corner.delta_image(q, field)
        if not coords:
            continue
        width = corner.boundary_complex().homology(q, field).free_rank
        for name, image in wrong_deltas(chains, coords, width,
                                        field).items():
            def patched(self, degree, coeffs=ZZ, q=q, image=image):
                if degree == q and coeffs == field:
                    return image
                return original(self, degree, coeffs)

            monkeypatch.setattr(CornerComplex, "delta_image", patched)
            assert message % q in corner.consistency_violations(field)
            assert main(["check", str(path), "--json",
                         "--coeffs", field.name]) == 2
            problems = json.loads(capsys.readouterr().out)["problems"]
            assert "corner: " + message % q in problems
            monkeypatch.undo()
            seen.add(name)
    # the punctured torus's one nonzero image spans its whole target
    assert seen == ({"drop"} if shape == "punctured_torus"
                    else {"drop", "swap"})


# ``row_spaces_equal`` lives in the tests; a package that defines it in
# ``fields`` must not call it either
DENSE_HELPERS = ("rref", "rank", "nullspace", "solve", "solve_all",
                 "row_space_contains", "row_spaces_equal")


def _recording(called, name, original):
    """``original``, appending ``name`` to ``called`` on each call."""
    def wrapper(*args, **kwargs):
        called.append(name)
        return original(*args, **kwargs)
    return wrapper


def test_no_command_path_calls_a_dense_helper(example_file, monkeypatch,
                                              capsys):
    """Every kernel and span question of ``report``, ``check`` and
    ``intersect`` is answered on a kept echelon, over every coefficient
    ring: no dense helper of ``fields`` runs."""
    called = []
    for name in DENSE_HELPERS:
        if hasattr(fields, name):
            monkeypatch.setattr(fields, name, _recording(
                called, name, getattr(fields, name)))
    for shape in (example_file, "square_hole"):
        for coeffs in ("q", "f2", "f5", "z"):
            for command in ("report", "check"):
                assert main([command, shape, "--json",
                             "--coeffs", coeffs]) == 0
    assert main(["intersect", "square_hole", "face:1", "face:2"]) == 0
    assert main(["intersect", "square_hole", "dia:L:e1", "dia:L:e2"]) == 0
    capsys.readouterr()
    assert called == []


def test_echelon_has_no_dense_entry_point():
    """An ``Echelon`` takes and gives only {column: value}: the dense
    entry points and the width they checked are gone, and it is built
    empty."""
    for name in ("add", "reduce", "contains", "dense", "rows", "width"):
        assert not hasattr(Echelon, name), name
        assert not hasattr(Echelon(QQ), name), name
    with pytest.raises(TypeError):
        Echelon(QQ, [[1, 0]])


def test_no_intersect_path_calls_a_dense_helper(example_file, monkeypatch,
                                                capsys):
    """``intersect`` reduces its face terms sparsely on the kept page
    echelon, over Q, GF(2) and GF(5), in text and JSON: neither the
    dense ``GradedPresentation.reduce`` nor any dense helper of
    ``fields`` runs."""
    called = []
    for name in DENSE_HELPERS:
        if hasattr(fields, name):
            monkeypatch.setattr(fields, name, _recording(
                called, name, getattr(fields, name)))
    monkeypatch.setattr(GradedPresentation, "reduce", _recording(
        called, "reduce", GradedPresentation.reduce))
    terms = [("square_hole", "face:1", "face:2"),
             ("square_hole", "dia:L:e1", "dia:L:e2"),
             ("square_hole", "face:1", "dia:L:e1"),
             (example_file, "face:1", "face:2"),
             (example_file, "face:1", "face:3")]
    for shape, left, right in terms:
        for coeffs in ("q", "f2", "f5"):
            for extra in ([], ["--json"]):
                assert main(["intersect", shape, left, right,
                             "--coeffs", coeffs] + extra) == 0
    assert "reduced_faces" in capsys.readouterr().out
    assert called == []

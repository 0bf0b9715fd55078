"""Objects that exist once: the poset's chain complex, the initial
diagonal pages, which are the face ring quotient's presentations, the
second-kind rows, which the limit pages hold, the inverse of each
maximal cell's vertex matrix, and the echelon of each boundary's columns
per field.  Work that is not needed is not done: the Buchsbaum check
builds no link poset, no empty product is reduced, and the socle
placement and the restriction kernel eliminate nothing again: they read
the kept page echelons."""

from collections import Counter
from math import comb

import pytest

from conftest import build_cross_polytope
from test_connecting_map import filled_sphere
from torushom import fields, snf
from torushom.charmat import CharacteristicMatrix
from torushom.cli import main
from torushom.facering import FaceRingQuotient
from torushom.fields import GF, QQ, ZZ, Echelon
from torushom.fixtures import dumps_fixture
from torushom.generator import polygon_with_holes
from torushom.manifold import TorusManifold
from torushom.posets import SimplicialPoset


@pytest.fixture
def manifold():
    return polygon_with_holes((6, 4, 3), seed=3).manifold


def test_poset_complex_is_built_once(manifold, monkeypatch):
    unsigned = []
    original = SimplicialPoset.simplex_chain_complex

    def counting(self, *args, **kwargs):
        if (args[0] if args else kwargs.get("signs")) is None:
            unsigned.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialPoset, "simplex_chain_complex", counting)
    first = manifold.poset.h_prime_vector(QQ)
    assert manifold.poset.h_prime_vector(QQ) == first
    assert manifold.corner.consistency_violations(QQ) == []
    assert all(ok for _, ok, _ in manifold.consistency_report(QQ))
    assert unsigned == [manifold.poset]


def test_each_boundary_column_is_eliminated_once_per_field(manifold,
                                                            monkeypatch):
    """Ranks, free generators and the connecting map over Q and Z all
    read one kept echelon of each boundary's columns per field."""
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
    complexes = [corner.complex_for(s) for s in ("boundary", "space", "pair")]
    complexes.append(manifold.poset._chains)
    columns = {id(column) for cx in complexes
               for cols in cx.boundaries.values() for column in cols}
    counts = Counter((id(v), field) for v, field in added if id(v) in columns)
    face = corner.boundary_complex().boundaries
    assert {id(c) for cols in face.values() for c in cols} <= {
        key for key, field in counts if field is QQ}
    assert max(counts.values()) == 1


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
        first = len(initial.rows)
        assert limit.rows[:first] == initial.rows
        assert limit.row_labels[:first] == [("face",) + label
                                            for label in initial.row_labels]
        assert {label[0] for label in limit.row_labels[first:]} == {"pair"}
        assert limit.generators == initial.generators
        assert manifold.diagonal_page(q, field, "limit") is limit


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
    counts = []
    push = CharacteristicMatrix.push
    c_coefficient = CharacteristicMatrix.c_coefficient

    def counting_push(self, *args, **kwargs):
        counts.append(Counter())
        return push(self, *args, **kwargs)

    def counting_coefficient(self, element, axes):
        if counts:
            counts[-1][(element, frozenset(axes))] += 1
        return c_coefficient(self, element, axes)

    monkeypatch.setattr(CharacteristicMatrix, "push", counting_push)
    monkeypatch.setattr(CharacteristicMatrix, "c_coefficient",
                        counting_coefficient)
    assert main(["report", example_file, "--json"]) == 0
    capsys.readouterr()
    assert len(counts) >= 3  # first kind, second kind, socle placement
    for per_call in counts:
        assert not per_call or max(per_call.values()) == 1
    # the coefficients are kept per rank on the matrix, across pushes
    assert max(sum(counts, Counter()).values()) == 1
    assert sum(sum(c.values()) for c in counts) <= 276


def test_report_inverts_each_cell_matrix_once_per_field(
        example_file, monkeypatch, capsys):
    """One adjugate per (field, cell), and what ``_substitution`` keeps is
    the inverse of the vertex matrix over that field; neither the field
    path nor the integral one solves anything."""
    adjugates, cells = [], []
    int_adjugate = snf.int_adjugate
    substitution = FaceRingQuotient._substitution
    solved = []
    solve_all = fields.solve_all
    int_solve_all = snf.int_solve_all

    def counting(m):
        adjugates.append(m)
        return int_adjugate(m)

    def recording(self, top):
        before = len(adjugates)
        position, inverse = substitution(self, top)
        if len(adjugates) > before:
            assert len(adjugates) == before + 1
            matrix, field = adjugates[before], self.field
            cells.append((field, top))
            for j, row in enumerate(matrix):
                for r in range(len(inverse[0])):
                    entry = sum(x * inverse[c][r] for c, x in enumerate(row))
                    assert field.is_zero(field.from_int(int(j == r)) - entry)
        return position, inverse

    def counting_solve(rows, bs, field):
        solved.append(field)
        return solve_all(rows, bs, field)

    def counting_int_solve(m, bs):
        solved.append(ZZ)
        return int_solve_all(m, bs)

    monkeypatch.setattr(snf, "int_adjugate", counting)
    monkeypatch.setattr(FaceRingQuotient, "_substitution", recording)
    monkeypatch.setattr(fields, "solve_all", counting_solve)
    monkeypatch.setattr(snf, "int_solve_all", counting_int_solve)
    for coeffs in ("q", "z"):
        adjugates.clear()
        cells.clear()
        assert main(["report", example_file, "--coeffs", coeffs,
                     "--json"]) == 0
        capsys.readouterr()
        assert adjugates and len(cells) == len(adjugates)
        assert max(Counter(cells).values()) == 1
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
    reduced against the initial page."""
    q = m.n - k
    if q > m.n - 2:
        return []
    initial = m.diagonal_page(q, field, "initial")
    limit = m.diagonal_page(q, field)
    return fields.rref([initial.reduce(row) for row
                        in limit.rows[len(initial.rows):]], field)[0]


def reference_socle_kernel(m, q, field):
    """The earlier socle-placement kernel, as (dimension, ok): the
    nullspace of the transposed reduced pushed classes, compared by
    ``row_spaces_equal`` with the dense connecting-map coordinates spread
    across the axes on the top degree, and with nothing below it."""
    k = m.n - q
    pres = m.quotient(field).presentation(k)
    hq = m.corner.homology("boundary", q, field)
    axes = comb(m.n, q)
    vectors, _ = m.charmat.push(k, enumerate(hq.free_generators), field)
    reduced = [pres.reduce(v) for v in vectors]
    kernel = fields.nullspace([list(c) for c in zip(*reduced)], field)
    expected = []
    if q == m.n - 1:
        for coord in m.corner.delta_image(q, field)[1]:
            for pick in range(axes):
                row = [field.zero] * (len(coord) * axes)
                for j, value in enumerate(coord):
                    row[j * axes + pick] = value
                expected.append(row)
    return len(kernel), fields.row_spaces_equal(kernel, expected, field)


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

    for name in ("rref", "nullspace", "row_spaces_equal"):
        monkeypatch.setattr(fields, name,
                            recording(name, getattr(fields, name)))
    socle = [m.novik_swartz_check(q, field) for q in range(m.n)]
    kernels = [m.kernel_of_g(k, field) for k in range(m.n + 1)]
    assert called == []
    monkeypatch.undo()
    for q, rep in enumerate(socle):
        dim, ok = reference_socle_kernel(m, q, field)
        assert ok and (rep["kernel_dim"], rep["kernel_ok"]) == (dim, ok)
        assert rep["rank"] == rep["classes"] * rep["axes"] - dim
    assert kernels == [reference_kernel_of_g(m, k, field)
                       for k in range(m.n + 1)]
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
    span = Echelon(field, coords)
    width = len(coords[0])
    units = [[field.one if i == j else field.zero for i in range(width)]
             for j in range(width)]
    outside = [u for u in units if not span.contains(u)]
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

"""Objects that exist once: the poset's chain complex, the initial
diagonal pages, which are the face ring quotient's presentations, the
second-kind rows, which the limit pages hold, and the inverse of each
maximal cell's vertex matrix.  Work that is not needed is not done: the
Buchsbaum check builds no link poset, and no empty product is
reduced."""

from collections import Counter

import pytest

from torushom import facering
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
    solves, cells = [], []
    solve_all = facering.solve_all
    substitution = FaceRingQuotient._substitution

    def counting_solve(rows, bs, field):
        solves.append((len(rows), field, [list(b) for b in bs]))
        return solve_all(rows, bs, field)

    def recording(self, top):
        before = len(solves)
        out = substitution(self, top)
        if len(solves) > before:
            cells.append((self.field, top))
        return out

    monkeypatch.setattr(facering, "solve_all", counting_solve)
    monkeypatch.setattr(FaceRingQuotient, "_substitution", recording)
    assert main(["report", example_file, "--json"]) == 0
    capsys.readouterr()
    assert solves and len(cells) == len(solves)
    for n, field, bs in solves:
        # one solve against the n unit vectors: the inverse
        assert bs == [[field.one if r == j else field.zero
                       for r in range(n)] for j in range(n)]
    assert max(Counter(cells).values()) == 1


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

"""The integral path reads only what it needs of one sparse Smith form.

Over Z the connecting map keeps a basis of the lattice of its homology
coordinates: one Smith form of the coordinates mixes the chains and the
coordinates alike.  The kept rows must span the same lattice as all the
rows, which is what a greedy choice over Q can miss.  Over a field no
Smith form is made at all.
"""

import pytest

from torushom import cli, snf
from torushom.fields import ZZ
from torushom.fixtures import dumps_fixture
from torushom.generator import polygon_with_holes
from torushom.orbit import CornerComplex


@pytest.fixture(params=["square_hole", "example 6,4,3 --seed 3"])
def fixture_arg(request, tmp_path):
    if request.param == "square_hole":
        return "square_hole"
    target = tmp_path / "example.json"
    target.write_text(dumps_fixture(polygon_with_holes((6, 4, 3), seed=3)))
    return str(target)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _same_lattice(rows, kept):
    """Every row is an integer combination of the kept rows, and back."""
    if not kept:
        return not any(any(row) for row in rows)
    by_kept = [list(col) for col in zip(*kept)]
    by_rows = [list(col) for col in zip(*rows)]
    return (None not in snf.int_solve_all(by_kept, rows)
            and None not in snf.int_solve_all(by_rows, kept))


def test_recombination_keeps_a_lattice_basis(monkeypatch):
    # a greedy choice over Q keeps the first row, [2], whose lattice
    # misses [3]; the Smith form mixes both into coordinates [1]
    smith = _counting(monkeypatch, snf, "smith_normal_form")
    chains = [[1, 0], [0, 1]]
    keep, rows = CornerComplex._independent_rows(chains, [[2], [3]], ZZ)
    assert rows == [[1]]
    assert len(keep) == 1
    assert 2 * keep[0][0] + 3 * keep[0][1] == 1
    assert len(smith) == 1


def test_zero_coordinates_keep_nothing():
    assert CornerComplex._independent_rows(
        [[1, 2], [3, 4]], [[0, 0], [0, 0]], ZZ) == ([], [])


def test_kept_rows_solve_every_row_over_z(monkeypatch, capsys, fixture_arg):
    original = CornerComplex._independent_rows
    seen = []

    def checked(chains, coords, coeffs):
        keep, kept_rows = original(chains, coords, coeffs)
        if coeffs is ZZ:
            seen.append(len(kept_rows))
            assert len(keep) == len(kept_rows)
            assert _same_lattice(coords, kept_rows)
        return keep, kept_rows

    monkeypatch.setattr(CornerComplex, "_independent_rows",
                        staticmethod(checked))
    # ``report`` reaches the connecting map over Z; ``check`` does not
    assert cli.main(["report", fixture_arg, "--coeffs", "z"]) == 0
    capsys.readouterr()
    assert any(seen)


def _refuse_dense_products(monkeypatch):
    def refused(*args):
        raise AssertionError("dense product on a CLI path")

    monkeypatch.setattr(snf, "int_mat_mul", refused)
    monkeypatch.setattr(snf, "int_identity", refused)


def test_integral_path_makes_no_dense_product(monkeypatch, capsys,
                                              fixture_arg):
    _refuse_dense_products(monkeypatch)
    assert cli.main(["report", fixture_arg, "--coeffs", "z"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["report", "check"])
def test_rational_path_makes_no_dense_product(monkeypatch, capsys,
                                              fixture_arg, command):
    # ∂∘∂ of every complex, the poset's included, is composed sparsely
    _refuse_dense_products(monkeypatch)
    assert cli.main([command, fixture_arg, "--coeffs", "q"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["report"], ["check"], ["intersect", "face:1", "face:*"]],
    ids=["report", "check", "intersect"])
def test_no_smith_form_over_q(monkeypatch, capsys, fixture_arg, argv):
    smith = _counting(monkeypatch, snf, "smith_normal_form")
    command = [argv[0], fixture_arg] + argv[1:] + ["--coeffs", "q"]
    assert cli.main(command) == 0
    capsys.readouterr()
    assert smith == []

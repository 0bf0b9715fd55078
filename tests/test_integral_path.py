"""The integral path reads only what it needs of one sparse Smith form.

Over Z the connecting map keeps every chain with a nonzero homology
coordinate (``test_connecting_map`` checks the lattice they span); a
chain with zero coordinates is a sum of face boundaries, which the
punctured torus exercises.  Over a field no Smith form is made at all.
"""

import pytest

from conftest import boundary_matrix, build_punctured_torus, densify
from torushom import cli, snf
from torushom.fields import GF, QQ, ZZ
from torushom.fixtures import dumps_fixture
from torushom.generator import polygon_with_holes


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


def test_zero_coordinates_keep_nothing(tmp_path, capsys):
    """The punctured torus: its arcs a and b are pair cycles whose
    boundaries bound in the boundary circle, so the connecting map into
    degree 0 is zero and keeps no chain over Z or Q."""
    fixture = build_punctured_torus()
    cx = fixture.manifold.corner
    assert cx.euler_characteristic() == -1
    assert [cx.homology("pair", k).describe() for k in range(3)] == \
        ["0", "Z^2", "Z"]
    assert [cx.homology("boundary", k).describe() for k in range(2)] == \
        ["Z", "Z"]
    face, space = cx.boundary_complex(), cx.space_complex()
    shift = face.dim(1)
    for rep in cx.pair_complex().homology(1).free_generators:
        chain = densify(space.boundary_of(
            1, {shift + i: x for i, x in rep.items()}), face.dim(0))
        assert any(chain)
        assert snf.int_solve(boundary_matrix(face, 1), chain) is not None
    assert cx.delta_image(0, ZZ) == ([], [])
    assert cx.delta_image(0, QQ) == ([], [])
    for coeffs in (ZZ, QQ, GF(2)):
        assert fixture.manifold.total_betti(coeffs) == (1, 2, 8, 2, 1)
    target = tmp_path / "punctured_torus.json"
    target.write_text(dumps_fixture(fixture))
    assert cli.main(["check", str(target)]) == 0
    assert cli.main(["report", str(target), "--coeffs", "z"]) == 0
    capsys.readouterr()


def test_integral_report_exits_zero(capsys, fixture_arg):
    """``report --coeffs z`` runs to exit 0; only the exit code is
    checked."""
    assert cli.main(["report", fixture_arg, "--coeffs", "z"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["report", "check"])
def test_rational_commands_exit_zero(capsys, fixture_arg, command):
    """``report`` and ``check`` over Q run to exit 0; only the exit code
    is checked."""
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

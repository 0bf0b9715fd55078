"""Fixture files: parsing, bundled data, and round trips."""

import copy
import json

import pytest

from torushom import fixtures
from torushom.cli import main
from torushom.cycles import CycleExpression
from torushom.errors import TorushomError, ValidationError
from torushom.fields import QQ
from torushom.generator import polygon_with_holes


def minimal_square():
    return {
        "n": 2,
        "poset": {
            "vertices": [1, 2, 3, 4],
            "cells": [
                {"id": 5, "vertices": [1, 2]},
                {"id": 6, "vertices": [2, 3]},
                {"id": 7, "vertices": [3, 4]},
                {"id": 8, "vertices": [1, 4]},
            ],
        },
        "lambda": {"1": [1, 0], "2": [0, 1], "3": [1, 0], "4": [0, 1]},
        "interior_cells": [
            {"id": "c0", "dim": 2,
             "boundary": [[1, 1], [2, 1], [3, 1], [4, 1]]},
        ],
        "orientable": True,
    }


class TestBundled:
    def test_names(self):
        assert fixtures.bundled_names() == ["digon", "square", "square_hole"]

    def test_each_bundled_fixture_loads_cleanly(self):
        for name in fixtures.bundled_names():
            fx = fixtures.resolve_fixture(name)
            assert fx.name == name
            assert fx.n == 2
            assert fx.corner.validate() == []

    def test_square_hole_matches_handbuilt_manifold(self, annulus_manifold):
        fx = fixtures.resolve_fixture("square_hole")
        assert fx.manifold.diagonal_dimensions(QQ, "initial") == \
            annulus_manifold.diagonal_dimensions(QQ, "initial")
        assert fx.manifold.total_betti(QQ) == annulus_manifold.total_betti(QQ)
        assert set(fx.poset.elements_of_rank(1)) == set(range(1, 8))
        assert fx.charmat.row(7) == (-3, -5)

    def test_square_and_digon_betti(self):
        assert fixtures.resolve_fixture("square").manifold.total_betti(QQ) \
            == (1, 0, 2, 0, 1)
        assert fixtures.resolve_fixture("digon").manifold.total_betti(QQ) \
            == (1, 0, 0, 0, 1)

    def test_square_hole_geometry_supports_resolved(self):
        fx = fixtures.resolve_fixture("square_hole")
        assert fx.has_geometry
        assert fx.oracle.handle("L").support == frozenset({1, 4, 5, 7})
        chain_datum = fx.oracle.data_for("L")[1]
        assert chain_datum.chain == {1: 1, 5: 1}

    def test_square_hole_intersections(self):
        calc = fixtures.resolve_fixture("square_hole").calculator()
        z = calc.intersect(CycleExpression.diaphragm("L", (1,)),
                           CycleExpression.diaphragm("L", (2,)))
        assert calc.magnitude(z) == 9
        w = calc.intersect(CycleExpression.spine("eta"),
                           CycleExpression.diaphragm("L", (1, 2)))
        assert calc.magnitude(w) == 1

    def test_square_has_no_geometry_but_still_calculates(self):
        fx = fixtures.resolve_fixture("square")
        assert not fx.has_geometry
        calc = fx.calculator()
        z = calc.intersect(CycleExpression.face(1), CycleExpression.face(2))
        assert calc.magnitude(z) == 1

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValidationError) as err:
            fixtures.resolve_fixture("klein_bottle")
        assert "square_hole" in str(err.value)


class TestRoundTrip:
    def test_serialised_form_is_a_fixed_point(self):
        for name in fixtures.bundled_names():
            fx = fixtures.resolve_fixture(name)
            data = fixtures.fixture_to_data(fx)
            again = fixtures.fixture_to_data(fixtures.parse_fixture(data))
            assert data == again

    def test_round_trip_preserves_homology(self):
        fx = fixtures.resolve_fixture("square_hole")
        back = fixtures.parse_fixture(fixtures.fixture_to_data(fx))
        assert back.manifold.total_betti(QQ) == fx.manifold.total_betti(QQ)
        assert back.manifold.diagonal_dimensions(QQ, "limit") == \
            fx.manifold.diagonal_dimensions(QQ, "limit")

    def test_round_trip_preserves_geometry(self):
        fx = fixtures.resolve_fixture("square_hole")
        back = fixtures.parse_fixture(fixtures.fixture_to_data(fx))
        calc = back.calculator()
        z = calc.intersect(CycleExpression.diaphragm("L", (1,)),
                           CycleExpression.diaphragm("L", (2,)))
        assert calc.magnitude(z) == 9

    def test_dumps_is_deterministic(self):
        fx = fixtures.resolve_fixture("square_hole")
        assert fixtures.dumps_fixture(fx) == fixtures.dumps_fixture(fx)
        parsed = json.loads(fixtures.dumps_fixture(fx))
        assert parsed["n"] == 2

    def test_load_fixture_from_file(self, tmp_path):
        fx = fixtures.resolve_fixture("digon")
        path = tmp_path / "my_digon.json"
        path.write_text(fixtures.dumps_fixture(fx))
        loaded = fixtures.load_fixture(path)
        assert loaded.manifold.total_betti(QQ) == (1, 0, 0, 0, 1)
        by_spec = fixtures.resolve_fixture(str(path))
        assert by_spec.name == loaded.name


class TestParsing:
    def test_minimal_fixture(self):
        fx = fixtures.parse_fixture(minimal_square(), name="sq")
        assert fx.name == "sq"
        assert fx.manifold.euler_characteristic() == 4

    def test_name_in_data_wins(self):
        data = minimal_square()
        data["name"] = "mine"
        assert fixtures.parse_fixture(data, name="other").name == "mine"

    def test_string_face_references_resolve(self):
        data = minimal_square()
        data["interior_cells"][0]["boundary"] = [["1", 1], ["2", 1],
                                                 ["3", 1], ["4", 1]]
        fx = fixtures.parse_fixture(data)
        assert fx.manifold.total_betti(QQ) == (1, 0, 2, 0, 1)

    def test_missing_required_keys(self):
        for key in ("n", "poset", "lambda"):
            data = minimal_square()
            del data[key]
            with pytest.raises(ValidationError):
                fixtures.parse_fixture(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            fixtures.parse_fixture([1, 2, 3])

    def test_bad_dimension_value(self):
        data = minimal_square()
        data["n"] = 0
        with pytest.raises(ValidationError):
            fixtures.parse_fixture(data)

    def test_depth_mismatch_rejected(self):
        data = minimal_square()
        data["n"] = 3
        with pytest.raises(ValidationError) as err:
            fixtures.parse_fixture(data)
        assert "n = 3" in str(err.value)

    def test_missing_lambda_row_rejected(self):
        data = minimal_square()
        del data["lambda"]["4"]
        with pytest.raises(ValidationError):
            fixtures.parse_fixture(data)

    def test_unknown_boundary_reference_rejected(self):
        data = minimal_square()
        data["interior_cells"][0]["boundary"][0][0] = 99
        with pytest.raises(ValidationError):
            fixtures.parse_fixture(data)

    def test_colliding_string_ids_rejected(self):
        data = minimal_square()
        data["poset"]["vertices"] = [1, "1", 2, 3]
        with pytest.raises(ValidationError):
            fixtures.parse_fixture(data)

    @pytest.mark.parametrize("value", ["no", "yes", 0, 1, None, []])
    def test_orientable_must_be_a_boolean(self, value):
        data = minimal_square()
        data["orientable"] = value
        with pytest.raises(ValidationError) as err:
            fixtures.parse_fixture(data)
        assert "orientable" in str(err.value)

    def test_orientable_defaults_to_true(self):
        data = minimal_square()
        del data["orientable"]
        assert fixtures.parse_fixture(data).corner.orientable is True
        data["orientable"] = False
        assert fixtures.parse_fixture(data).corner.orientable is False

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError) as err:
            fixtures.load_fixture(path)
        assert "JSON" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            fixtures.load_fixture(tmp_path / "absent.json")


def _paths(value, path=()):
    """The path to every value inside plain JSON data, containers too."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield path + (key,)
        yield from _paths(inner, path + (key,))


def test_every_single_value_mutation_loads_or_is_rejected(tmp_path, capsys):
    """Each value of every bundled fixture and of one generated polygon
    (``example 4,3 --seed 2``), at every path, replaced by each of a few
    values of other JSON types: the fixture either loads or is rejected
    with a ``TorushomError``, never another exception.  A mutant that
    loads is run from a file through ``report``, ``report --coeffs z``
    and ``check``: none exits 3, an internal error, and ``check`` fails
    whenever ``report`` rejects the input."""
    sources = {name: fixtures.resolve_fixture(name)
               for name in ("square_hole", "digon", "square")}
    sources["example 4,3 --seed 2"] = polygon_with_holes((4, 3), seed=2)
    counts, escaped, exits = {}, [], []
    path_file = str(tmp_path / "mutant.json")
    for name, fixture in sources.items():
        base = json.loads(fixtures.dumps_fixture(fixture))
        paths = list(_paths(base))
        counts[name] = len(paths)
        for path in paths:
            for value in (None, 1.5, True, "x", [], {}, [[1]], -1, 0):
                data = copy.deepcopy(base)
                parent = data
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                try:
                    fixtures.parse_fixture(data)
                except TorushomError:
                    continue
                except Exception as exc:
                    escaped.append((name, path, value, repr(exc)))
                    continue
                with open(path_file, "w") as handle:
                    json.dump(data, handle)
                codes = tuple(main(argv) for argv in (
                    ["report", path_file], ["report", path_file,
                                            "--coeffs", "z"],
                    ["check", path_file]))
                capsys.readouterr()
                exits.append((name, path, value, codes))
    assert counts == {"square_hole": 186, "digon": 36, "square": 60,
                      "example 4,3 --seed 2": 106}
    assert escaped == []
    assert len(exits) == 271
    assert [e for e in exits if not set(e[-1]) <= {0, 1, 2}] == []
    assert [e for e in exits if e[-1][0] == 1 and not e[-1][2]] == []

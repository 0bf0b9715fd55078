"""Command line behavior: output shapes, determinism, exit codes."""

import json

import pytest

from torushom import cli
from torushom.cycles import CycleExpression
from torushom.fields import QQ
from torushom.fixtures import dumps_fixture, parse_fixture, resolve_fixture
from torushom.posets import BOTTOM


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_rejects_mutation(capsys, tmp_path, mutate, named):
    """``check`` on a mutated copy of square_hole exits 1 with an error
    that names the bad entry."""
    data = json.loads(dumps_fixture(resolve_fixture("square_hole")))
    mutate(data)
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


class TestReport:
    def test_text_report(self, capsys):
        code, out, err = run(capsys, "report", "square_hole")
        assert code == 0
        assert err == ""
        assert "h'-vector: (1, 5, 2)" in out
        assert "page dimensions initial: (2, 5, 1)" in out
        assert "page dimensions limit: (1, 5, 1)" in out
        assert "total betti: (1, 1, 7, 1, 1)" in out
        assert "buchsbaum: yes" in out
        assert "equivariant series: (1, 1, 7, 0, 14)" in out
        assert "FAILED" not in out

    def test_json_report(self, capsys):
        code, out, err = run(capsys, "report", "square", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_betti"] == [1, 0, 2, 0, 1]
        assert payload["bigraded"]["1,1"]["rank"] == 2
        assert payload["f_vector"] == [1, 4, 4]
        assert all(c["ok"] for c in payload["consistency"])

    def test_integer_coefficients(self, capsys):
        code, out, _ = run(capsys, "report", "square_hole", "--coeffs", "z",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == "Z"
        assert payload["total_betti"] == [1, 1, 7, 1, 1]

    def test_prime_field(self, capsys):
        code, out, _ = run(capsys, "report", "digon", "--coeffs", "f2",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == "F2"
        assert payload["total_betti"] == [1, 0, 0, 0, 1]

    def test_large_prime_modulus(self, capsys):
        # 2^61 - 1, far too large to trial-divide
        code, out, _ = run(capsys, "check", "square_hole", "--coeffs",
                           "f2305843009213693951")
        assert code == 0 and "all checks passed" in out
        code, out, err = run(capsys, "report", "square_hole", "--coeffs",
                             "f%d" % (2 ** 64 + 13))
        assert (code, out) == (1, "")
        assert "not below 2^64" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "report", "square_hole", "--json")
        _, second, _ = run(capsys, "report", "square_hole", "--json")
        assert first == second

    def test_unknown_fixture(self, capsys):
        code, out, err = run(capsys, "report", "nosuch")
        assert code == 1
        assert "square_hole" in err

    def test_path_argument(self, capsys, tmp_path):
        target = tmp_path / "sq.json"
        target.write_text(dumps_fixture(resolve_fixture("square")))
        code, out, _ = run(capsys, "report", str(target), "--json")
        assert code == 0
        assert json.loads(out)["total_betti"] == [1, 0, 2, 0, 1]


class TestIntersect:
    def test_diaphragm_pair(self, capsys):
        code, out, _ = run(capsys, "intersect", "square_hole",
                           "dia:L:e1", "dia:L:e2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["magnitude"] == "9"
        assert payload["reduced_faces"] == {"0": ["9"]}
        assert payload["product"] == "10*face:14 - face:9"

    def test_reversed_pair(self, capsys):
        code, out, _ = run(capsys, "intersect", "square_hole",
                           "dia:L:e2", "dia:L:e1", "--json")
        assert code == 0
        assert json.loads(out)["magnitude"] == "9"

    def test_spine_pair(self, capsys):
        code, out, _ = run(capsys, "intersect", "square_hole",
                           "spine:eta:e0", "dia:L:e12")
        assert code == 0
        assert "product: spine:pt:e0" in out
        assert "magnitude: 1" in out

    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "intersect", "square_hole",
                           "face:1", "face:2", "--json")
        assert code == 0
        fixture = resolve_fixture("square_hole")
        calc = fixture.calculator()
        expected = calc.magnitude(calc.intersect(
            CycleExpression.face(1), CycleExpression.face(2)))
        assert json.loads(out)["magnitude"] == str(expected)

    def test_unit_class(self, capsys):
        code, out, _ = run(capsys, "intersect", "square_hole",
                           "face:*", "dia:L:e1")
        assert code == 0
        assert "product: dia:L:e1" in out

    def test_coefficient_and_sum_syntax(self):
        fixture = resolve_fixture("square_hole")
        expr = cli.parse_expression("2*face:1-face:3+dia:L:e12", fixture)
        terms = dict(expr.iter_terms())
        assert terms[("face", 1)] == 2
        assert terms[("face", 3)] == -1
        assert terms[("diaphragm", "L", frozenset({1, 2}))] == 1
        unit = cli.parse_expression("face:*", fixture)
        assert dict(unit.iter_terms()) == {("face", BOTTOM): 1}

    def test_prime_field_magnitude(self, capsys):
        code, out, _ = run(capsys, "intersect", "square_hole",
                           "dia:L:e1", "dia:L:e2", "--coeffs", "f5",
                           "--json")
        assert code == 0
        assert json.loads(out)["magnitude"] in ("1", "4")

    def test_rejects_integer_coefficients(self, capsys):
        code, _, err = run(capsys, "intersect", "square_hole",
                           "face:1", "face:2", "--coeffs", "z")
        assert code == 1
        assert "field" in err

    def test_unknown_class(self, capsys):
        code, _, err = run(capsys, "intersect", "square_hole",
                           "dia:Q:e1", "face:1")
        assert code == 1
        assert "eta" in err and "L" in err

    def test_fixture_without_geometry(self, capsys):
        code, _, err = run(capsys, "intersect", "square",
                           "dia:L:e1", "face:1")
        assert code == 1
        assert "no classes" in err

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "intersect", "square_hole",
                           "dia:L:x1", "face:1")
        assert code == 1
        assert "torus word" in err

    @pytest.mark.parametrize("word", ["e9", "e3", "e11", "e1,1", "e0,1",
                                      "e"])
    def test_word_outside_the_torus(self, capsys, word):
        code, out, err = run(capsys, "intersect", "square_hole",
                             "dia:L:" + word, "face:1")
        assert code == 1
        assert out == ""
        assert repr(word) in err and "1..2" in err and "torus word" in err

    def test_word_axes_in_any_order(self, capsys):
        _, forward, _ = run(capsys, "intersect", "square_hole",
                            "dia:L:e12", "spine:eta", "--json")
        _, backward, _ = run(capsys, "intersect", "square_hole",
                             "dia:L:e21", "spine:eta", "--json")
        assert forward == backward

    def test_unknown_face(self, capsys):
        code, _, err = run(capsys, "intersect", "square_hole",
                           "face:99", "face:1")
        assert code == 1
        assert "99" in err

    @pytest.mark.parametrize("move", [0, 1])
    def test_bordism_naming_unknown_face(self, capsys, tmp_path, move):
        data = json.loads(dumps_fixture(resolve_fixture("square_hole")))
        datum = data["geometry"]["bordism"][move]
        if "chain" in datum:
            datum["chain"] = {"99": 1}
        else:
            datum["rows"]["1"][0][0] = 99
        target = tmp_path / "bad_bordism.json"
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "intersect", str(target),
                             "dia:L:e1", "dia:L:e2")
        assert code == 1
        assert out == ""
        source, dest = datum["source"], datum["target"]
        assert "%s -> %s" % (source, dest) in err and "99" in err

    def test_support_naming_unknown_face(self, capsys, tmp_path):
        data = json.loads(dumps_fixture(resolve_fixture("square_hole")))
        for cls in data["geometry"]["classes"]:
            if cls["name"] == "L":
                cls["support"] = [99]
        target = tmp_path / "bad_support.json"
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, "intersect", str(target),
                             "dia:L:e1", "dia:L:e2")
        assert code == 1
        assert out == ""
        assert "class L " in err and "99" in err

    def test_overflow_reported(self, capsys):
        code, _, err = run(capsys, "intersect", "square_hole",
                           "face:8", "face:9")
        assert code == 1
        assert "overflow" in err

    def test_depth_limit(self, capsys):
        code, _, err = run(capsys, "intersect", "square_hole",
                           "dia:L:e1", "dia:L:e2", "--depth", "0")
        assert code == 1
        assert "depth" in err

    @pytest.mark.parametrize("terms", [["dia:L:e1", "dia:L:e2"],
                                       ["face:1", "face:2"]],
                             ids=["diaphragms", "faces"])
    def test_negative_depth_is_a_usage_error(self, capsys, terms):
        """A depth below 0 is refused by argparse, with exit 2 and a
        message naming the flag, for diaphragm and face terms alike."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["intersect", "square_hole", *terms, "--depth", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --depth" in err and "below 0" in err
        assert "exhausted" not in err

    def test_term_with_a_leading_minus_after_double_dash(self, capsys):
        """argparse reads -face:2 as an option unless it follows --."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["intersect", "square_hole", "face:1", "-face:2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run(capsys, "intersect", "square_hole", "face:1",
                             "--", "-face:2")
        assert code == 0 and err == ""
        assert "right: -face:2" in out
        assert "product: face:9" in out


class TestExample:
    def test_round_trips_through_parser(self, capsys):
        code, out, _ = run(capsys, "example", "4,3", "--seed", "3")
        assert code == 0
        fixture = parse_fixture(json.loads(out))
        assert fixture.manifold.total_betti(QQ) == (1, 1, 7, 1, 1)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "example", "5,3", "--seed", "11")
        _, second, _ = run(capsys, "example", "5,3", "--seed", "11")
        assert first == second

    def test_name_flag(self, capsys):
        code, out, _ = run(capsys, "example", "3", "--name", "tri")
        assert code == 0
        assert json.loads(out)["name"] == "tri"

    def test_bad_lengths(self, capsys):
        code, _, err = run(capsys, "example", "4,x")
        assert code == 1
        assert "lengths" in err

    @pytest.mark.parametrize("lengths", ["1000000000000", "10000,2",
                                         "9000,1000,1000"])
    def test_too_many_walls(self, capsys, lengths):
        """A wall count past ``MAX_WALLS`` is refused before anything is
        built: exit 1 with an error, and no output."""
        code, out, err = run(capsys, "example", lengths)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "at most 10000 walls" in err

    def test_checkable_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "example", "3,3,3", "--seed", "4")
        assert code == 0
        target = tmp_path / "gen.json"
        target.write_text(out)
        code, out, _ = run(capsys, "check", str(target))
        assert code == 0


class TestCheck:
    def test_bundled_pass(self, capsys):
        for name in ("square", "square_hole", "digon"):
            code, out, _ = run(capsys, "check", name)
            assert code == 0
            assert "all checks passed" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "check", "square", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["problems"] == []

    def test_integer_coefficients_name_the_field_checked(self, capsys):
        code, out, _ = run(capsys, "check", "square_hole", "--coeffs", "z",
                           "--json")
        assert code == 0
        assert json.loads(out)["coefficients"] == "Q"
        code, out, _ = run(capsys, "check", "square_hole", "--coeffs", "z")
        assert code == 0
        assert "integral checks are not run; checked over Q" in out
        _, out, _ = run(capsys, "check", "square_hole", "--coeffs", "f5")
        assert "integral checks" not in out

    def test_broken_signs_fail(self, capsys, tmp_path):
        import copy

        from torushom.fixtures import fixture_to_data
        data = copy.deepcopy(fixture_to_data(resolve_fixture("square")))
        data["interior_cells"][0]["boundary"] = [[1, 1], [2, 1], [3, 1],
                                                 [4, -1]]
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(data))
        code, out, _ = run(capsys, "check", str(target))
        assert code == 2
        assert "problem" in out

    @pytest.mark.parametrize("mutate,named", [
        (lambda d: d["lambda"].__setitem__("1", [1.7, 0]), "vertex 1"),
        (lambda d: d["lambda"].__setitem__("1", [True, 0]), "vertex 1"),
        (lambda d: d["lambda"].__setitem__("1", ["1", 0]), "vertex 1"),
        (lambda d: d["lambda"].__setitem__("4", [3.9, 1]), "vertex 4"),
        (lambda d: d["interior_cells"][1]["boundary"].__setitem__(
            2, [3, 1, 1]), "boundary entry 2 of cell 'c'"),
        (lambda d: d.__setitem__("interior_cells", 3), "interior_cells"),
        (lambda d: d["interior_cells"].__setitem__(0, 5), "interior cell 5"),
    ], ids=["float-row", "bool-row", "text-row", "rounded-row",
            "long-boundary-entry", "cells-not-a-list", "cell-not-an-object"])
    def test_malformed_entries_exit_one(self, capsys, tmp_path, mutate,
                                        named):
        check_rejects_mutation(capsys, tmp_path, mutate, named)

    @pytest.mark.parametrize("mutate,named", [
        (lambda d: d["interior_cells"][1].__setitem__("id", [1]),
         "interior cell id [1]"),
        (lambda d: d["interior_cells"][1].__setitem__("id", 1.5),
         "interior cell id 1.5"),
        (lambda d: d["interior_cells"][1]["boundary"][0].__setitem__(0, [1]),
         "boundary entry 0 of cell 'c'"),
        (lambda d: d["poset"].__setitem__("cells", 3), "poset.cells"),
        (lambda d: d["poset"]["cells"].__setitem__(0, 5), "poset.cells[0]"),
        (lambda d: d["poset"]["cells"][0].pop("vertices"), "poset.cells[0]"),
        (lambda d: d["poset"]["cells"][0].__setitem__("id", [8]),
         "poset.cells[0]"),
        (lambda d: d["poset"]["vertices"].__setitem__(0, [1]),
         "poset.vertices"),
        (lambda d: d.__setitem__("geometry", []), "geometry block"),
        (lambda d: d["geometry"]["classes"][2].pop("name"),
         "geometry class 2"),
        (lambda d: d["geometry"]["classes"][2].__setitem__("support", [[1]]),
         "class L"),
        (lambda d: d["geometry"]["pairings"][0].pop("result"),
         "pairing of eta with L"),
        (lambda d: d["geometry"]["disjoint"].__setitem__(
            0, ["Lp", "Lpp", "L"]), "disjoint"),
        (lambda d: d["geometry"]["bordism"][0]["rows"].__setitem__(
            "x", [[4, 1]]), "bordism move L -> Lp"),
        (lambda d: d["geometry"]["bordism"][0]["rows"].__setitem__(
            "1", [[4]]), "bordism move L -> Lp"),
        (lambda d: d["geometry"]["bordism"][0]["rows"].__setitem__(
            "0", [[4, 1]]), "bordism move L -> Lp has row key '0'"),
        (lambda d: d["geometry"]["bordism"][0]["rows"].__setitem__(
            "3", [[4, 1]]), "bordism move L -> Lp has row key '3'"),
        (lambda d: d["geometry"]["bordism"][0]["rows"].__setitem__(
            "1,1", [[4, 1]]), "bordism move L -> Lp has row key '1,1'"),
        (lambda d: d["geometry"]["bordism"][1].__setitem__("chain", 3),
         "bordism move L -> Lpp"),
        (lambda d: d["geometry"]["bordism"][0].pop("source"),
         "bordism move 0"),
        (lambda d: d["interior_cells"][0].__setitem__("id", "5"),
         "interior cell id '5' collides with face 5"),
        (lambda d: d["geometry"]["classes"].append(
            {"name": None, "kind": "spine", "dim": 0}), "geometry class 5"),
        (lambda d: d["geometry"]["classes"].append(
            {"name": ["x"], "kind": "spine", "dim": 0}), "geometry class 5"),
        (lambda d: d["interior_cells"].__setitem__(
            0, ["estar", 1, [[11, 1], [14, 1]]]), "interior cell"),
        (lambda d: d["interior_cells"][1].pop("dim"),
         "interior cell 1 (id 'c') is missing key 'dim'"),
        (lambda d: d["interior_cells"][0].pop("id"),
         "interior cell 0 is missing key 'id'"),
        (lambda d: d["geometry"]["classes"][2].__setitem__("kind", "ribbon"),
         "class L: unknown class kind 'ribbon'"),
        (lambda d: d["geometry"]["classes"][2].__setitem__("dim", -1),
         "class L: class dimension must be a nonnegative integer, got -1"),
        (lambda d: d["geometry"]["classes"][3].__setitem__("name", "L"),
         "class L: duplicate class name 'L'"),
        (lambda d: d["geometry"]["bordism"][1]["chain"].__setitem__(
            "1", 1.5),
         "bordism move L -> Lpp: chain coefficient 1.5 is not an integer"),
        (lambda d: d["geometry"]["bordism"][0].__setitem__("target", "eta"),
         "bordism move L -> eta: bordism move names 'eta', which is not a "
         "diaphragm"),
        (lambda d: d["geometry"]["pairings"][0].__setitem__("left", "ghost"),
         "pairing of ghost with L: unknown class name 'ghost'"),
        (lambda d: d["geometry"]["disjoint"].__setitem__(0, ["Lp", "ghost"]),
         "disjoint pair Lp, ghost: unknown class name 'ghost'"),
    ], ids=["cell-id-list", "cell-id-float", "reference-list",
            "poset-cells-not-a-list", "poset-cell-not-an-object",
            "poset-cell-without-vertices", "poset-cell-id-list",
            "poset-vertex-list", "geometry-not-an-object",
            "class-without-name", "support-entry-list",
            "pairing-without-result", "disjoint-triple", "rows-key-x",
            "rows-entry-short", "rows-key-0", "rows-key-3", "rows-key-1-1",
            "chain-not-an-object", "move-without-source",
            "cell-id-collides-with-wall", "class-named-null",
            "class-named-list", "cell-as-array", "cell-without-dim",
            "cell-without-id", "class-kind-ribbon", "class-dim-negative",
            "class-name-duplicate", "chain-coefficient-float",
            "move-to-a-spine", "pairing-unknown-name",
            "disjoint-unknown-name"])
    def test_malformed_shapes_exit_one(self, capsys, tmp_path, mutate,
                                       named):
        check_rejects_mutation(capsys, tmp_path, mutate, named)

    def test_malformed_file(self, capsys, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text("{\"name\": \"x\"}")
        code, _, err = run(capsys, "check", str(target))
        assert code == 1
        assert err.startswith("error:")


class TestInternalError:
    def test_unexpected_exception_gets_its_own_exit_code(self, capsys,
                                                         monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_report", broken)
        code, out, err = run(capsys, "report", "square")
        assert code == cli.INTERNAL_ERROR
        assert code not in (0, 1, 2)
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

"""Pinned digests of the command line's outputs.

Each entry of ``golden_outputs.json`` is the exit code and the sha256 of
stdout and stderr of one ``torushom`` run, made in-process through
``cli.main``:

- ``report --json`` and ``check --json`` under the coefficients q, z, f2
  and f5, on the bundled digon, square and square_hole, on five
  ``torushom example`` outputs, the largest of which, (12,6,6), has 24
  walls, as the polygons of the benchmark's Q workload do (its integral
  workload runs 48), and on the 3- and 4-balls of
  ``conftest.cross_polytope_ball``, which pin the minors of wall rows
  of more than two columns;
- those ``example`` outputs themselves;
- ``intersect square_hole A B --json`` under q for every ordered pair of
  fifteen named terms.

A change that is meant to leave the outputs alone must pass this test.
For a change whose outputs are meant to change, re-record the file with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and review the
entries that moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from torushom import cli

from conftest import cross_polytope_ball

GOLDEN = Path(__file__).with_name("golden_outputs.json")

COEFFS = ("q", "z", "f2", "f5")
BUNDLED = ("digon", "square", "square_hole")
EXAMPLES = (("4", 1), ("4,3", 2), ("5,4,3", 3), ("6,4", 5), ("12,6,6", 3))
BALLS = ((3, 1), (4, 2))  # (n, seed) of ``cross_polytope_ball``
TERMS = (["dia:%s:e%s" % (name, word)
          for name in ("L", "Lp", "Lpp") for word in ("0", "1", "2", "12")]
         + ["spine:eta", "face:1", "face:*"])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue() + "\0" + err.getvalue()
    return code, out.getvalue(), hashlib.sha256(text.encode()).hexdigest()


def _commands(workdir):
    """(key, argv) for every pinned run, in a fixed order.  Each example
    output and each ball is written to ``workdir`` before the runs that
    read it."""
    for lengths, seed in EXAMPLES:
        argv = ["example", lengths, "--seed", str(seed)]
        yield " ".join(argv), argv
    balls = []
    for n, seed in BALLS:
        data = cross_polytope_ball(n, seed)
        path = Path(workdir) / (data["name"] + ".json")
        path.write_text(json.dumps(data))
        balls.append(str(path))
    for name in BUNDLED + tuple(
            str(Path(workdir) / _example_stem(lengths, seed)) + ".json"
            for lengths, seed in EXAMPLES) + tuple(balls):
        label = Path(name).stem
        for command in ("report", "check"):
            for coeffs in COEFFS:
                yield ("%s %s %s" % (command, label, coeffs),
                       [command, name, "--coeffs", coeffs, "--json"])
    for left in TERMS:
        for right in TERMS:
            yield ("intersect square_hole %s %s q" % (left, right),
                   ["intersect", "square_hole", left, right, "--json"])


def _example_stem(lengths, seed):
    return "example_%s_s%d" % (lengths.replace(",", "_"), seed)


def record():
    """The digest of every pinned run, as {key: [exit code, sha256]}."""
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for key, argv in _commands(workdir):
            code, out, digest = _run(argv)
            digests[key] = [code, digest]
            if argv[0] == "example":
                stem = _example_stem(argv[1], int(argv[3]))
                (Path(workdir) / (stem + ".json")).write_text(out)
    return digests


def test_outputs_match_the_recorded_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = record()
    assert list(actual) == list(expected), "the set of pinned runs changed"
    for key, digest in actual.items():
        assert digest == expected[key], \
            "first differing output: %s (exit code, sha256) %r, recorded %r" \
            % (key, digest, expected[key])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print("recorded %s" % GOLDEN, file=sys.stderr)

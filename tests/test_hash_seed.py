"""Output does not depend on the string hash seed.

Sets of strings iterate in an order that ``PYTHONHASHSEED`` changes, so
a poset whose ids are strings would expose any result read off such an
order.  ``report --json``, ``check --json`` and ``report --coeffs z
--json`` (whose Smith forms break ties among their unit pivots) run in
fresh interpreters under two seeds must print the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torushom.fixtures import dumps_fixture
from torushom.generator import polygon_with_holes

SRC = Path(__file__).resolve().parents[1] / "src"
MAIN = "import sys; from torushom import cli; sys.exit(cli.main(sys.argv[1:]))"


def with_string_ids(data):
    """The fixture data with every poset id x renamed to the string "wx";
    the interior cells keep their (string) ids."""
    name = "w%d".__mod__
    poset = data["poset"]
    poset["vertices"] = [name(v) for v in poset["vertices"]]
    for cell in poset["cells"]:
        cell["id"] = name(cell["id"])
        cell["vertices"] = [name(v) for v in cell["vertices"]]
        if "faces" in cell:
            cell["faces"] = [name(f) for f in cell["faces"]]
    data["lambda"] = {name(int(v)): row for v, row in data["lambda"].items()}
    for cell in data["interior_cells"]:
        cell["boundary"] = [[name(ref) if isinstance(ref, int) else ref, c]
                            for ref, c in cell["boundary"]]
    return data


@pytest.fixture(scope="module")
def relabelled(tmp_path_factory):
    data = json.loads(dumps_fixture(polygon_with_holes((6, 4, 3), seed=3)))
    target = tmp_path_factory.mktemp("hash_seed") / "strings.json"
    target.write_text(json.dumps(with_string_ids(data)))
    return str(target)


def run(argv, seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", MAIN] + argv, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("command", ["report", "check", "report --coeffs z"])
def test_output_is_the_same_under_two_hash_seeds(relabelled, command):
    name, *options = command.split()
    argv = [name, relabelled, *options, "--json"]
    first = run(argv, 0)
    assert json.loads(first)
    assert run(argv, 1) == first

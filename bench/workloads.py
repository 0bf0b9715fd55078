"""The benchmark's three workloads.

Each workload is one closed-loop client in one process: every call
starts after the previous one returns.  A workload yields ``Op`` objects
pass after pass, with ``None`` after each pass; the runner times
``Op.call`` and nothing else, then checks the result, and stops only at
the end of a pass, so every shape gets the same number of calls.  Pass ``j`` of a run with seed ``s`` uses row
assignment ``(s + j) % POOL`` of every shape, so the same seed gives the
same inputs and every input is covered by ``references.json``.

polygons_q
    ``torushom report --json`` then ``torushom check --json`` over Q on
    24-wall polygons with 1 to 3 holes.  The default user path; its time
    is Fraction row reduction reached through homology and the
    connecting map.
integral_z
    Integral homology of the boundary, the space and the pair in every
    degree, then the bigraded table and total betti numbers over Z, on
    48-wall polygons.  Its time is Smith normal form; it never runs
    Fraction elimination.
products
    Cold ``torushom intersect --json`` calls with face terms on a
    32-wall polygon, then warm products on one calculator: the full
    vertex-class table, seeded combinations of 8 vertex classes, and
    every ordered pair of named terms on the bundled ``square_hole``.
    Its time is face-ring vertex actions, poset lookups and the bordism
    search.
"""

import contextlib
import io
import json
import random

from fixturegen import shape_key, variant_of

from torushom.cli import main as cli_main
from torushom.cycles import CycleExpression
from torushom.fields import ZZ
from torushom.fixtures import resolve_fixture
from torushom.posets import BOTTOM

SHAPES = {
    "polygons_q": [(12, 6, 6), (16, 8), (6, 6, 6, 6)],
    "integral_z": [(24, 12, 12), (32, 16), (12, 12, 12, 12)],
    "products": [(16, 8, 8)],
}

# Smaller shapes with the same structure, for the smoke test.
SMOKE_SHAPES = {
    "polygons_q": [(4, 3), (3, 3, 2)],
    "integral_z": [(4, 3), (3, 3, 2)],
    "products": [(5, 4)],
}

COLD_INTERSECTS = 3
COMBINATIONS = 48
COMBINATION_SIZE = 8

# Named terms on square_hole: every diaphragm on every axis word, the
# spine, one face and the unit.
SQUARE_HOLE_TERMS = (
    [("dia:%s:e%s" % (name, word or "0"),
      CycleExpression.diaphragm(name, tuple(int(a) for a in word)))
     for name in ("L", "Lp", "Lpp") for word in ("", "1", "2", "12")]
    + [("spine:eta", CycleExpression.spine("eta")),
       ("face:1", CycleExpression.face(1)),
       ("face:*", CycleExpression.face(BOTTOM))])


# Ordered pairs of SQUARE_HOLE_TERMS that the calculator does not resolve
# at the commit that defined the benchmark, so they are not benchmarked.
# The geometry table of square_hole has no pairing, disjointness or
# bordism move for these:
UNRESOLVABLE = {
    ("dia:Lp:e0", "dia:Lp:e12"),
    ("dia:Lp:e1", "dia:Lp:e2"),
    ("dia:Lp:e1", "dia:Lp:e12"),
    ("dia:Lp:e2", "dia:Lp:e1"),
    ("dia:Lp:e2", "dia:Lp:e12"),
    ("dia:Lp:e12", "dia:Lp:e0"),
    ("dia:Lp:e12", "dia:Lp:e1"),
    ("dia:Lp:e12", "dia:Lp:e2"),
    ("dia:Lp:e12", "dia:Lp:e12"),
    ("dia:Lp:e12", "spine:eta"),
    ("dia:Lpp:e0", "dia:Lpp:e12"),
    ("dia:Lpp:e0", "face:1"),
    ("dia:Lpp:e1", "dia:Lpp:e2"),
    ("dia:Lpp:e1", "dia:Lpp:e12"),
    ("dia:Lpp:e1", "face:1"),
    ("dia:Lpp:e2", "dia:Lpp:e1"),
    ("dia:Lpp:e2", "dia:Lpp:e12"),
    ("dia:Lpp:e2", "face:1"),
    ("dia:Lpp:e12", "dia:Lpp:e0"),
    ("dia:Lpp:e12", "dia:Lpp:e1"),
    ("dia:Lpp:e12", "dia:Lpp:e2"),
    ("dia:Lpp:e12", "dia:Lpp:e12"),
    ("dia:Lpp:e12", "spine:eta"),
    ("dia:Lpp:e12", "face:1"),
    ("spine:eta", "dia:Lp:e12"),
    ("spine:eta", "dia:Lpp:e12"),
    ("face:1", "dia:Lpp:e0"),
    ("face:1", "dia:Lpp:e1"),
    ("face:1", "dia:Lpp:e2"),
    ("face:1", "dia:Lpp:e12"),
}
# For these the bordism search applies the chain-form move L -> Lpp to an
# axis word of the wrong length and the minor computation raises
# ValidationError instead of the move being skipped (a program defect):
WRONG_WORD_LENGTH = {
    ("dia:L:e0", "dia:L:e12"),
    ("dia:L:e0", "dia:Lp:e12"),
    ("dia:L:e0", "dia:Lpp:e12"),
    ("dia:L:e0", "face:1"),
    ("dia:L:e1", "dia:L:e12"),
    ("dia:L:e2", "dia:L:e12"),
    ("dia:L:e12", "dia:L:e0"),
    ("dia:L:e12", "dia:L:e1"),
    ("dia:L:e12", "dia:L:e2"),
    ("dia:L:e12", "dia:L:e12"),
    ("dia:L:e12", "dia:Lp:e0"),
    ("dia:L:e12", "dia:Lp:e1"),
    ("dia:L:e12", "dia:Lp:e2"),
    ("dia:L:e12", "dia:Lp:e12"),
    ("dia:L:e12", "dia:Lpp:e0"),
    ("dia:L:e12", "dia:Lpp:e1"),
    ("dia:L:e12", "dia:Lpp:e2"),
    ("dia:L:e12", "dia:Lpp:e12"),
    ("dia:L:e12", "face:1"),
    ("dia:Lp:e0", "dia:L:e12"),
    ("dia:Lp:e1", "dia:L:e12"),
    ("dia:Lp:e2", "dia:L:e12"),
    ("dia:Lp:e12", "dia:L:e0"),
    ("dia:Lp:e12", "dia:L:e12"),
    ("dia:Lpp:e0", "dia:L:e12"),
    ("dia:Lpp:e1", "dia:L:e12"),
    ("dia:Lpp:e2", "dia:L:e12"),
    ("dia:Lpp:e12", "dia:L:e0"),
    ("dia:Lpp:e12", "dia:L:e12"),
    ("face:1", "dia:L:e0"),
    ("face:1", "dia:L:e12"),
}
SKIPPED_PAIRS = UNRESOLVABLE | WRONG_WORD_LENGTH


class Op:
    """One timed call.

    ``call`` does the work and returns a JSON-able result; ``verify``
    returns the invariant failures of a result (an empty list when it is
    correct).  ``group`` and ``index`` locate the recorded digest of the
    result in ``references.json``.  ``shape`` names the input shape
    whose calls a median is taken over, or is None where every call of
    the kind counts as one series.
    """

    def __init__(self, kind, group, index, call, verify, shape=None):
        self.kind = kind
        self.group = group
        self.index = index
        self.call = call
        self.verify = verify
        self.shape = shape


def cli(argv):
    """Run the torushom command line in-process; returns (exit code,
    stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def corner_count(data):
    """Number of corners (rank-n faces) of fixture data."""
    return len(data["poset"]["cells"])


def _cli_result(code, text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    return {"exit": code, "payload": payload}


def _cli_op(kind, group, index, argv, check, shape=None):
    def call():
        return cli(argv)

    def verify(result):
        code, text = result
        if code != 0:
            return ["exit code %r" % (code,)]
        parsed = _cli_result(code, text)
        if parsed["payload"] is None:
            return ["output is not JSON"]
        return check(parsed["payload"])

    return Op(kind, group, index, call, verify, shape)


def canonical(op, result):
    """The part of a result that the recorded digest covers."""
    if op.kind in ("report", "check", "intersect"):
        return _cli_result(*result)
    return result


# --- polygons_q ---------------------------------------------------------


def _report_invariants(corners):
    def check(payload):
        problems = ["consistency %s failed" % row["check"]
                    for row in payload["consistency"] if not row["ok"]]
        if payload["euler_characteristic"] != corners:
            problems.append("euler characteristic %s, %d corners"
                            % (payload["euler_characteristic"], corners))
        betti = payload["total_betti"]
        if betti != betti[::-1] or betti[:1] != [1]:
            problems.append("total betti %r" % (betti,))
        return problems
    return check


def _check_invariants(payload):
    return [] if payload.get("ok") is True else ["check reported problems"]


def polygons_q(files, seed, passes):
    for j in passes:
        for shape in files.shapes:
            variant = variant_of(seed, j)
            path, data = files.get(shape, variant)
            group = "%s_v%d" % (shape_key(shape), variant)
            yield _cli_op("report", group, 0,
                          ["report", str(path), "--json"],
                          _report_invariants(corner_count(data)),
                          shape_key(shape))
            yield _cli_op("check", group, 1,
                          ["check", str(path), "--json"], _check_invariants,
                          shape_key(shape))
        yield None


# --- integral_z ---------------------------------------------------------


def _integral_calls(fixture):
    m = fixture.manifold
    homology = {sel: {str(q): m.corner.homology(sel, q, ZZ).describe()
                      for q in range(m.n + 1)}
                for sel in ("boundary", "space", "pair")}
    table = m.bigraded_table(ZZ)
    totals = m.total_betti(ZZ)
    return {"homology": homology,
            "bigraded": {"%d,%d" % spot: [table[spot].free_rank,
                                          list(table[spot].torsion)]
                         for spot in sorted(table)},
            "total_betti": list(totals)}


def _integral_invariants(corners):
    def check(result):
        problems = []
        for sel, groups in result["homology"].items():
            for q, text in groups.items():
                if "Z/" in text:
                    problems.append("torsion in %s degree %s: %s"
                                    % (sel, q, text))
        for spot, (_, torsion) in result["bigraded"].items():
            if torsion:
                problems.append("torsion at %s: %r" % (spot, torsion))
        betti = result["total_betti"]
        euler = sum((-1) ** k * b for k, b in enumerate(betti))
        if euler != corners:
            problems.append("euler characteristic %d, %d corners"
                            % (euler, corners))
        return problems
    return check


def integral_z(files, seed, passes):
    for j in passes:
        for shape in files.shapes:
            variant = variant_of(seed, j)
            path, data = files.get(shape, variant)
            fixture = resolve_fixture(str(path))
            yield Op("homology_z", "%s_v%d" % (shape_key(shape), variant), 0,
                     lambda fixture=fixture: _integral_calls(fixture),
                     _integral_invariants(corner_count(data)),
                     shape_key(shape))
        yield None


# --- products -----------------------------------------------------------


def _product_call(calc, x, y):
    def call():
        product = calc.intersect(x, y)
        reduced = calc.reduced_faces(product)
        return [product.describe(),
                {str(q): [str(v) for v in vec]
                 for q, vec in sorted(reduced.items())}]
    return call


def _no_invariants(result):
    return []


def _combination(rng, vertices):
    expr = CycleExpression()
    for v in rng.sample(vertices, min(COMBINATION_SIZE, len(vertices))):
        expr = expr + CycleExpression.face(v, rng.choice((-3, -2, -1, 1,
                                                          2, 3)))
    return expr


def _cold_terms(rng, data):
    """Two face terms over the ends of a random edge, so that the product
    is nonzero and reducing it builds the limit page."""
    a, b = rng.choice(data["poset"]["cells"])["vertices"]
    return "face:%s+%d*face:%s" % (a, rng.randrange(2, 5), b), "face:%s" % b


def products(files, seed, passes):
    square_calc = resolve_fixture("square_hole").calculator()
    square_calc.intersect(SQUARE_HOLE_TERMS[0][1], SQUARE_HOLE_TERMS[0][1])
    shape = files.shapes[0]
    for j in passes:
        variant = variant_of(seed, j)
        path, data = files.get(shape, variant)
        group = "%s_v%d" % (shape_key(shape), variant)
        vertices = list(data["poset"]["vertices"])
        rng = random.Random("products/%s" % group)

        for i in range(COLD_INTERSECTS):
            left, right = _cold_terms(rng, data)
            yield _cli_op("intersect", group + "/cli", i,
                          ["intersect", str(path), left, right, "--json"],
                          _no_invariants)

        calc = resolve_fixture(str(path)).calculator()
        faces = [CycleExpression.face(v) for v in vertices]
        calc.intersect(faces[0], faces[0])  # builds the quotient
        index = 0
        for a in range(len(faces)):
            for b in range(a, len(faces)):
                yield Op("product", group + "/warm", index,
                         _product_call(calc, faces[a], faces[b]),
                         _no_invariants)
                index += 1
        for _ in range(COMBINATIONS):
            x = _combination(rng, vertices)
            y = _combination(rng, vertices)
            yield Op("product", group + "/warm", index,
                     _product_call(calc, x, y), _no_invariants)
            index += 1

        index = 0
        for left_name, left in SQUARE_HOLE_TERMS:
            for right_name, right in SQUARE_HOLE_TERMS:
                if (left_name, right_name) in SKIPPED_PAIRS:
                    continue
                verify = _no_invariants
                if (left_name, right_name) == ("dia:L:e1", "dia:L:e2"):
                    verify = _magnitude_nine(square_calc)
                yield Op("product", "square_hole", index,
                         _product_call(square_calc, left, right), verify)
                index += 1
        yield None


def _magnitude_nine(calc):
    def check(result):
        x = CycleExpression.diaphragm("L", (1,))
        y = CycleExpression.diaphragm("L", (2,))
        mag = calc.magnitude(calc.intersect(x, y))
        return [] if mag == 9 else ["dia:L:e1 . dia:L:e2 magnitude %s" % mag]
    return check


WORKLOADS = {
    "polygons_q": polygons_q,
    "integral_z": integral_z,
    "products": products,
}

# Kinds of timed call per workload, in the order they are reported; the
# first is the workload's ``call_s``.  ``report_check`` is the sum of one
# fixture's report and check times.
KINDS = {
    "polygons_q": ["report_check", "report", "check"],
    "integral_z": ["homology_z"],
    "products": ["product", "intersect"],
}

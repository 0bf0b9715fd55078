"""Command line front end.

Four subcommands: ``report`` prints the combinatorial and homological
invariants of a fixture, ``intersect`` multiplies two classes written in
a compact term syntax, ``example`` generates a polygon-with-holes
fixture as JSON, and ``check`` runs the structural validations plus the
cross-checks and sets the exit code accordingly.

Exit codes: 0 on success, 1 on malformed input or a product that cannot
be resolved, 2 when ``check`` finds a problem (and on a usage error, from
argparse), and 3 on an internal error, any other exception, which is
reported on one line of stderr without a traceback.

Fixtures are named either by a bundled name (see ``torushom report
--help``) or by a path to a fixture file.  All output is deterministic
for a given input.
"""

import argparse
import json
import sys

from . import fields
from .cycles import _KIND_ALIASES, CycleExpression
from .errors import TorushomError, ValidationError
from .fields import QQ
from .fixtures import bundled_names, dumps_fixture, resolve_fixture
from .generator import polygon_with_holes
from .posets import BOTTOM

INTERNAL_ERROR = 3


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        # looked up per call, so that a replaced handler is the one run
        return globals()["cmd_" + args.command](args)
    except TorushomError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return INTERNAL_ERROR


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="torushom",
        description="Homology and intersection products of spaces built "
                    "from a polygon-like quotient and a torus.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report", help="print the invariants of a fixture")
    _common(rep)

    inter = sub.add_parser(
        "intersect", help="multiply two classes of a fixture")
    _common(inter)
    inter.add_argument("left", help="first class, e.g. dia:L:e1 or face:4;"
                       " a term that starts with - goes after --, as in"
                       " face:1 -- -face:2")
    inter.add_argument("right", help="second class (see left for a term "
                       "that starts with -)")
    inter.add_argument("--depth", type=depth, default=4,
                       help="bordism search depth limit, 0 or more "
                            "(default 4)")

    ex = sub.add_parser(
        "example", help="generate a polygon-with-holes fixture as JSON")
    ex.add_argument("lengths",
                    help="wall counts per boundary circle, e.g. 4,3")
    ex.add_argument("--seed", type=int, default=0,
                    help="seed for the generated characteristic rows")
    ex.add_argument("--name", default=None, help="fixture name")

    chk = sub.add_parser(
        "check", help="validate a fixture and run the cross-checks")
    _common(chk)
    return parser


def depth(text):
    """A ``--depth`` value, an int of 0 or more; argparse calls text that
    is no int an invalid depth value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("depth %d is below 0" % value)
    return value


def _common(sub):
    sub.add_argument("fixture",
                     help="bundled fixture name (%s) or a path to a "
                          "fixture file" % ", ".join(bundled_names()))
    sub.add_argument("--coeffs", default="q",
                     help="coefficient system: q, z, or f<p> (default q)")
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of text")


_PARSER = _build_parser()


def _load(args):
    fixture = resolve_fixture(args.fixture)
    coeffs = fields.coefficient_system(args.coeffs)
    field = coeffs if getattr(coeffs, "is_field", False) else QQ
    return fixture, coeffs, field


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


# --- report -------------------------------------------------------------


def cmd_report(args):
    fixture, coeffs, field = _load(args)
    m = fixture.manifold
    poset = m.poset

    fvec = poset.f_vector()
    hvec = poset.h_vector()
    hpvec = poset.h_prime_vector(field)
    buchs_ok, buchs_failures = poset.buchsbaum_check(field)

    groups = {sel: {q: m.corner.homology(sel, q, coeffs)
                    for q in range(m.n + 1)}
              for sel in ("boundary", "space", "pair")}

    relations = []
    for q in range(m.n + 1):
        first = len(m.diagonal_page(q, field, "initial").rows)
        relations.append(
            (q, first, len(m.diagonal_page(q, field).rows) - first))

    initial = m.diagonal_dimensions(field, "initial")
    limit = m.diagonal_dimensions(field, "limit")
    table = m.bigraded_table(coeffs)
    totals = m.total_betti(coeffs)
    euler = m.euler_characteristic(coeffs)
    kernel = {k: len(m.kernel_of_g(k, field)) for k in range(m.n + 1)}
    socle = [m.novik_swartz_check(q, field) for q in range(m.n)]
    series = m.equivariant_series(field=field)
    checks = m.consistency_report(field)

    payload = {
        "fixture": fixture.name,
        "n": m.n,
        "coefficients": coeffs.name,
        "f_vector": list(fvec),
        "h_vector": list(hvec),
        "h_prime_vector": [str(v) for v in hpvec],
        "buchsbaum": buchs_ok,
        "homology": {sel: {str(q): groups[sel][q].describe()
                           for q in sorted(groups[sel])}
                     for sel in sorted(groups)},
        "relation_rows": {str(q): {"first_kind": a, "second_kind": b}
                          for q, a, b in relations},
        "page_dimensions": {"initial": list(initial), "limit": list(limit)},
        "bigraded": {"%d,%d" % spot: _spot_payload(table[spot])
                     for spot in sorted(table)},
        "total_betti": list(totals),
        "euler_characteristic": euler,
        "restriction_kernel": {str(k): kernel[k] for k in sorted(kernel)},
        "socle_placement": [
            {key: rep[key] for key in sorted(rep)} for rep in socle],
        "equivariant_series": list(series),
        "consistency": [{"check": name, "ok": ok, "detail": detail}
                        for name, ok, detail in checks],
    }

    lines = [
        "fixture: %s" % fixture.name,
        "n: %d" % m.n,
        "coefficients: %s" % coeffs.name,
        "f-vector: %s" % (tuple(fvec),),
        "h-vector: %s" % (tuple(hvec),),
        "h'-vector: (%s)" % ", ".join(str(v) for v in hpvec),
        "buchsbaum: %s" % ("yes" if buchs_ok else
                           "no (%d failures)" % len(buchs_failures)),
    ]
    for sel in ("boundary", "space", "pair"):
        parts = ["%d: %s" % (q, groups[sel][q].describe())
                 for q in range(m.n + 1)]
        lines.append("homology %s: %s" % (sel, "  ".join(parts)))
    for q, a, b in relations:
        lines.append("relations degree %d: %d first kind, %d second kind"
                     % (q, a, b))
    lines.append("page dimensions initial: %s" % (tuple(initial),))
    lines.append("page dimensions limit: %s" % (tuple(limit),))
    lines.append("bigraded table (degree pair: rank):")
    for spot in sorted(table):
        comp = table[spot]
        if comp.free_rank or comp.torsion:
            extra = "".join(" + Z/%d" % t for t in comp.torsion)
            lines.append("  (%d, %d): %d%s" % (spot[0], spot[1],
                                               comp.free_rank, extra))
    lines.append("total betti: %s" % (tuple(totals),))
    lines.append("euler characteristic: %d" % euler)
    lines.append("restriction kernel: %s" % "  ".join(
        "%d: %d" % (k, kernel[k]) for k in sorted(kernel)))
    for rep in socle:
        lines.append(
            "socle placement degree %d: %d classes x %d axes, rank %d, "
            "socle %s, kernel %s -> %s"
            % (rep["degree"], rep["classes"], rep["axes"], rep["rank"],
               "ok" if rep["socle_ok"] else "BAD",
               "ok" if rep["kernel_ok"] else "BAD",
               "ok" if rep["ok"] else "BAD"))
    lines.append("equivariant series: %s" % (tuple(series),))
    for name, ok, detail in checks:
        lines.append("consistency %s: %s (%s)"
                     % (name, "ok" if ok else "FAILED", detail))
    return _emit(args, payload, lines)


def _spot_payload(comp):
    return {"rank": comp.free_rank, "torsion": list(comp.torsion)}


# --- intersect ----------------------------------------------------------


def cmd_intersect(args):
    fixture, coeffs, field = _load(args)
    fields.require_field(coeffs)
    calc = fixture.calculator(field=coeffs, max_depth=args.depth)
    left = parse_expression(args.left, fixture)
    right = parse_expression(args.right, fixture)
    product = calc.intersect(left, right)
    reduced = calc.reduced_faces(product)
    try:
        mag = calc.magnitude(product)
        mag_text = str(mag)
    except ValidationError:
        mag = None
        mag_text = "undefined (not a single class)"

    payload = {
        "fixture": fixture.name,
        "coefficients": coeffs.name,
        "left": left.describe(),
        "right": right.describe(),
        "product": product.describe(),
        "reduced_faces": {str(q): [str(v) for v in vec]
                          for q, vec in sorted(reduced.items())},
        "magnitude": None if mag is None else str(mag),
    }
    lines = [
        "left: %s" % left.describe(),
        "right: %s" % right.describe(),
        "product: %s" % product.describe(),
    ]
    for q, vec in sorted(reduced.items()):
        lines.append("reduced degree %d: [%s]"
                     % (q, ", ".join(str(v) for v in vec)))
    lines.append("magnitude: %s" % mag_text)
    return _emit(args, payload, lines)


def parse_expression(text, fixture):
    """Parse a sum of class terms.

    A term is ``face:<id>`` (``face:*`` for the unit), ``dia:<name>:<word>``
    or ``spine:<name>[:<word>]``, optionally prefixed by an integer
    coefficient and ``*``.  Terms are joined by ``+`` or ``-``.  A torus
    word is ``e`` followed by axis digits, ``e0`` for the empty word.
    """
    expr = CycleExpression()
    for sign, chunk in _split_terms(text):
        expr = expr + _parse_term(chunk, fixture).scale(sign)
    return expr


def _split_terms(text):
    squashed = text.replace(" ", "")
    if not squashed:
        raise ValidationError("empty class expression")
    out = []
    sign, start = 1, 0
    if squashed[0] in "+-":
        sign = -1 if squashed[0] == "-" else 1
        start = 1
    current = []
    for ch in squashed[start:]:
        if ch in "+-":
            out.append((sign, "".join(current)))
            sign = -1 if ch == "-" else 1
            current = []
        else:
            current.append(ch)
    out.append((sign, "".join(current)))
    return out


def _parse_term(chunk, fixture):
    coeff = 1
    head, star, rest = chunk.partition("*")
    if star and rest:
        coeff = _parse_coeff(head)
        chunk = rest
    parts = chunk.split(":")
    kind = parts[0].lower()
    if kind == "face":
        if len(parts) != 2 or not parts[1]:
            raise ValidationError("face term must be face:<id>, got %r"
                                  % (chunk,))
        if parts[1] == "*":
            return CycleExpression.face(BOTTOM, coeff)
        try:
            return CycleExpression.face(fixture.ids[parts[1]], coeff)
        except KeyError:
            raise ValidationError("unknown face %r" % (parts[1],)) from None
    if kind in _KIND_ALIASES:
        if len(parts) == 2:
            name, word = parts[1], ()
        elif len(parts) == 3:
            name, word = parts[1], _parse_word(parts[2], fixture.n)
        else:
            raise ValidationError(
                "class term must be kind:name[:word], got %r" % (chunk,))
        if not name:
            raise ValidationError("missing class name in %r" % (chunk,))
        try:
            fixture.oracle.handle(name)
        except ValidationError:
            raise ValidationError(
                "unknown class %r; the fixture defines %s"
                % (name, _known_handles(fixture))) from None
        return CycleExpression([((_KIND_ALIASES[kind], name,
                                  frozenset(word)), coeff)])
    raise ValidationError(
        "unknown term kind %r; use face, dia, or spine" % (parts[0],))


def _parse_coeff(head):
    try:
        return int(head)
    except ValueError:
        raise ValidationError("bad coefficient %r" % (head,)) from None


def _parse_word(text, n):
    if not text.startswith("e"):
        raise ValidationError(
            "torus word must look like e12 or e0, got %r" % (text,))
    body = text[1:]
    if body == "0":
        return ()
    if "," in body:
        pieces = body.split(",")
    else:
        pieces = list(body)
    try:
        axes = tuple(int(p) for p in pieces)
    except ValueError:
        raise ValidationError("bad torus word %r" % (text,)) from None
    # the bare "e" names no axis; the empty word is spelled e0
    if (not axes or len(set(axes)) != len(axes)
            or not all(1 <= a <= n for a in axes)):
        raise ValidationError(
            "torus word %r must name distinct axes in 1..%d" % (text, n))
    return axes


def _known_handles(fixture):
    names = sorted(fixture.oracle.handles)
    return ", ".join(names) if names else "no classes"


# --- example ------------------------------------------------------------


def cmd_example(args):
    lengths = _parse_lengths(args.lengths)
    fixture = polygon_with_holes(lengths, seed=args.seed, name=args.name)
    sys.stdout.write(dumps_fixture(fixture))
    return 0


def _parse_lengths(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(
            "lengths must be comma-separated integers, got %r"
            % (text,)) from None


# --- check --------------------------------------------------------------


def cmd_check(args):
    fixture, coeffs, field = _load(args)
    m = fixture.manifold
    problems = []

    structural = m.corner.validate()
    problems.extend("structure: %s" % p for p in structural)

    if not structural:
        violations = m.corner.consistency_violations(field)
        problems.extend("corner: %s" % v for v in violations)

        buchs_ok, failures = m.poset.buchsbaum_check(field)
        if not buchs_ok:
            problems.extend("buchsbaum: link of %r has homology in degree %s"
                            % (e, j) for e, j in failures)

        for name, ok, detail in m.consistency_report(field):
            if not ok:
                problems.append("consistency %s: %s" % (name, detail))

    payload = {
        "fixture": fixture.name,
        "coefficients": field.name,
        "ok": not problems,
        "problems": problems,
    }
    lines = ["fixture: %s" % fixture.name]
    if field is not coeffs:
        lines.append("note: integral checks are not run; checked over Q")
    if problems:
        lines.extend("problem: %s" % p for p in problems)
        lines.append("result: %d problem(s) found" % len(problems))
    else:
        lines.append("result: all checks passed")
    _emit(args, payload, lines)
    return 0 if not problems else 2


if __name__ == "__main__":
    sys.exit(main())

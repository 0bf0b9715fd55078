"""Reading and writing manifold descriptions as JSON fixture files.

This module holds the whole file format: ``parse_fixture`` reads and
checks a fixture and ``fixture_to_data`` writes one; ``read_geometry``
and ``oracle_to_data`` do the same for the geometry block.  A fixture
file holds everything needed to rebuild one manifold and, optionally,
its geometry table for intersection work:

    {
      "name": "square_hole",
      "n": 2,
      "poset": {
        "vertices": [1, 2, 3],
        "cells": [{"id": 8, "vertices": [1, 2]}, ...]
      },
      "lambda": {"1": [1, 0], ...},
      "interior_cells": [
        {"id": "c", "dim": 2, "boundary": [[1, 1], [2, 1], ...]}
      ],
      "orientable": true,
      "geometry": {"classes": [...], "pairings": [...],
                   "disjoint": [...], "bordism": [...]}
    }

``poset.vertices`` lists the walls of the orbit space; ``poset.cells``
its deeper faces, each with an id and its wall set (cells of rank three
and up also record their ``faces`` when written out, so that shapes with
repeated wall sets survive a round trip).  ``lambda`` gives one integer
row of length ``n`` per wall.  Ids and class names are JSON strings or
integers, and cells are objects.  JSON object keys are always strings,
so every face named outside the poset block is matched back to its
element by its string form, through the one map ``Fixture.ids``; ids
whose string forms collide are rejected, and so is an interior cell
whose id has the string form of a poset id.  Incidence signs are not
stored: a fixture reverses no face, so it uses the vertex-order signs.

A handful of fixtures ship with the package; ``bundled_names`` lists
them and ``resolve_fixture`` accepts either a bundled name or a path.
"""

import json
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from ..charmat import CharacteristicMatrix
from ..cycles import (BordismDatum, GeometryOracle, Handle,
                      IntersectionCalculator)
from ..errors import ValidationError
from ..fields import QQ, is_id
from ..manifold import TorusManifold
from ..orbit import CornerComplex, InteriorCell
from ..posets import SimplicialPoset


class Fixture:
    """A parsed fixture: the manifold, its elements by the string form of
    their ids (``ids``), and its optional geometry table."""

    def __init__(self, name, manifold, ids, oracle=None):
        self.name = name
        self.manifold = manifold
        self.ids = ids
        self.has_geometry = oracle is not None
        self.oracle = oracle if oracle is not None else GeometryOracle()

    @property
    def poset(self):
        return self.manifold.poset

    @property
    def charmat(self):
        return self.manifold.charmat

    @property
    def corner(self):
        return self.manifold.corner

    @property
    def n(self):
        return self.manifold.n

    def calculator(self, field=QQ, max_depth=4):
        return IntersectionCalculator(self.manifold, self.oracle,
                                      field=field, max_depth=max_depth)

    def __repr__(self):
        return "Fixture(%r, n=%d)" % (self.name, self.n)


def _require(data, key, kind, where):
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise ValidationError("%s is missing the %r entry" % (where, key))
    if not isinstance(value, kind):
        raise ValidationError("%s entry %r has the wrong shape" % (where, key))
    return value


def _is_id_list(values):
    return isinstance(values, list) and all(map(is_id, values))


def _check_poset_shape(vertices, cells):
    """Ids are JSON strings or integers, and every cell is an object with
    an ``id``, a ``vertices`` list and, when given, a ``faces`` list.
    Raises a ``ValidationError`` naming the first entry that is not."""
    if not _is_id_list(vertices):
        raise ValidationError("poset.vertices must be a list of string or "
                              "integer ids, got %r" % (vertices,))
    if not isinstance(cells, list):
        raise ValidationError("poset.cells must be a list of cells, got %r"
                              % (cells,))
    for index, cell in enumerate(cells):
        if not (isinstance(cell, dict) and is_id(cell.get("id"))
                and _is_id_list(cell.get("vertices"))
                and _is_id_list(cell.get("faces", []))):
            raise ValidationError(
                "poset.cells[%d] must be an object with a string or integer "
                "id, a list of vertex ids and, optionally, a list of face "
                "ids; got %r" % (index, cell))


def element_ids(poset):
    """The elements of ``poset`` keyed by their ids' distinct string forms."""
    ids = {}
    for e in poset.elements():
        key = str(e)
        if key in ids:
            raise ValidationError(
                "ids %r and %r collide as the string %r" % (ids[key], e, key))
        ids[key] = e
    return ids


def parse_fixture(data, name=None):
    """Build a Fixture from plain data as read out of a fixture file."""
    if not isinstance(data, dict):
        raise ValidationError("a fixture must be a JSON object")
    n = _require(data, "n", int, "fixture")
    if isinstance(n, bool) or n < 1:
        raise ValidationError("fixture dimension n must be a positive "
                              "integer, got %r" % (n,))
    poset_data = _require(data, "poset", dict, "fixture")
    vertices = _require(poset_data, "vertices", list, "poset block")
    cells = poset_data.get("cells", [])
    try:
        poset = SimplicialPoset(vertices, cells)
    except (AttributeError, KeyError, TypeError):
        # a block of the wrong shape fails while the poset reads it; the
        # check runs only then, so loading a good fixture costs nothing
        _check_poset_shape(vertices, cells)
        raise
    if poset.top_rank != n:
        raise ValidationError(
            "poset has faces of depth %d but the fixture declares n = %d"
            % (poset.top_rank, n))
    ids = element_ids(poset)

    def resolve(ref):
        return ids.get(str(ref), ref)

    lam = _require(data, "lambda", dict, "fixture")
    charmat = CharacteristicMatrix(
        poset, {resolve(key): row for key, row in lam.items()})

    interior = data.get("interior_cells", [])
    if not isinstance(interior, list):
        raise ValidationError("fixture entry 'interior_cells' must be a "
                              "list of cells, got %r" % (interior,))
    interior = [InteriorCell.from_data(cell, index)
                for index, cell in enumerate(interior)]
    for cell in interior:
        if str(cell.id) in ids:
            raise ValidationError(
                "interior cell id %r collides with face %r as the string %r"
                % (cell.id, ids[str(cell.id)], str(cell.id)))
        cell.boundary = [(resolve(ref), coeff) for ref, coeff in cell.boundary]
    orientable = data.get("orientable", True)
    if not isinstance(orientable, bool):
        raise ValidationError("fixture entry 'orientable' must be true or "
                              "false, got %r" % (orientable,))
    corner = CornerComplex(poset, interior, orientable=orientable)
    manifold = TorusManifold(corner, charmat)

    geometry = data.get("geometry")
    oracle = None if geometry is None else read_geometry(geometry, n, ids)
    label = data.get("name") or name or "fixture"
    return Fixture(label, manifold, ids, oracle)


def fixture_to_data(fixture):
    """The plain-data form of a fixture, ready for JSON."""
    poset = fixture.poset
    cells = []
    for k in range(2, poset.top_rank + 1):
        for e in poset.elements_of_rank(k):
            cell = {"id": e, "vertices": sorted(poset.ver(e))}
            if k >= 3:
                cell["faces"] = sorted(poset.lower_covers(e), key=repr)
            cells.append(cell)
    data = {
        "name": fixture.name,
        "n": fixture.n,
        "poset": {
            "vertices": sorted(poset.elements_of_rank(1)),
            "cells": cells,
        },
        "lambda": {str(v): list(fixture.charmat.row(v))
                   for v in sorted(poset.elements_of_rank(1))},
        "interior_cells": [
            {"id": cell.id, "dim": cell.dim,
             "boundary": [[ref, coeff] for ref, coeff in cell.boundary]}
            for cell in fixture.corner.interior
        ],
        "orientable": fixture.corner.orientable,
    }
    if fixture.has_geometry:
        data["geometry"] = oracle_to_data(fixture.oracle)
    return data


def _name(entry, key, where):
    name = _require(entry, key, object, where)
    if not is_id(name):
        raise ValidationError("%s has %s %r, which is not a string or "
                              "integer" % (where, key, name))
    return name


def _is_pair_list(values):
    return isinstance(values, list) and all(
        isinstance(pair, list) and len(pair) == 2 for pair in values)


def _face(ref, ids, where):
    try:
        return ids[str(ref)]
    except KeyError:
        raise ValidationError("%s %r, which is not a face of the poset"
                              % (where, ref)) from None


def _axes(key, n, where):
    """The distinct axes in 1..n of a comma-separated ``rows`` key."""
    try:
        axes = [int(part) for part in str(key).split(",") if part.strip()]
    except ValueError:
        axes = None
    if (axes is None or len(set(axes)) != len(axes)
            or not all(1 <= a <= n for a in axes)):
        raise ValidationError(
            "%s has row key %r, which is not a list of distinct axes in "
            "1..%d" % (where, key, n))
    return frozenset(axes)


@contextmanager
def _naming(where):
    """Names the entry ``where`` in a ``ValidationError`` raised inside."""
    try:
        yield
    except ValidationError as exc:
        if str(exc).startswith(where):
            raise
        raise ValidationError("%s: %s" % (where, exc)) from None


def read_geometry(geometry, n, ids):
    """The ``GeometryOracle`` of a fixture's geometry block, read in one
    pass: each class, pairing, disjoint pair and bordism move is checked
    as it is read, and every face it names is matched to a poset element
    through ``ids`` (``element_ids``).  Raises a ``ValidationError`` naming
    the class, pairing or move that is malformed, or its index when its
    name is missing or not a string or integer."""
    if not isinstance(geometry, dict):
        raise ValidationError("the geometry block must be an object, got %r"
                              % (geometry,))
    lists = []
    for key in ("classes", "pairings", "disjoint", "bordism"):
        value = geometry.get(key, [])
        if not isinstance(value, list):
            raise ValidationError("geometry entry %r must be a list, got %r"
                                  % (key, value))
        lists.append(value)
    classes, pairings, disjoint, moves = lists
    oracle = GeometryOracle()
    for index, c in enumerate(classes):
        name = _name(c, "name", "geometry class %d" % index)
        where = "class %s" % (name,)
        kind = _require(c, "kind", object, where)
        dim = _require(c, "dim", object, where)
        support = c.get("support", [])
        if not _is_id_list(support):
            raise ValidationError("%s has support %r, not a list of faces"
                                  % (where, support))
        support = [_face(face, ids, where + " has support face")
                   for face in support]
        with _naming(where):
            oracle.add_class(Handle(name, kind, dim, support))
    for index, p in enumerate(pairings):
        at = "geometry pairing %d" % index
        left, right = _name(p, "left", at), _name(p, "right", at)
        where = "pairing of %s with %s" % (left, right)
        result = _require(p, "result", object, where)
        if not (_is_pair_list(result)
                and all(is_id(target) for target, _ in result)):
            raise ValidationError("the result of the %s must be a list of "
                                  "[class, coefficient] pairs, got %r"
                                  % (where, result))
        with _naming(where):
            oracle.add_pairing(left, right, result)
    if not (_is_pair_list(disjoint)
            and all(is_id(a) and is_id(b) for a, b in disjoint)):
        raise ValidationError("disjoint entries must be pairs of class "
                              "names, got %r" % (disjoint,))
    for a, b in disjoint:
        with _naming("disjoint pair %s, %s" % (a, b)):
            oracle.add_disjoint(a, b)
    for index, d in enumerate(moves):
        at = "bordism move %d" % index
        source, target = _name(d, "source", at), _name(d, "target", at)
        where = "bordism move %s -> %s" % (source, target)
        chain, rows = d.get("chain", {}), d.get("rows", {})
        if not (isinstance(chain, dict) and isinstance(rows, dict)
                and all(map(_is_pair_list, rows.values()))):
            raise ValidationError(
                "%s needs a chain object or a rows object of [face, "
                "coefficient] pairs" % (where,))
        names = where + " names"
        chain = ({_face(face, ids, names): c for face, c in chain.items()}
                 if "chain" in d else None)
        rows = ({_axes(key, n, where): [(_face(face, ids, names), c)
                                        for face, c in entries]
                 for key, entries in rows.items()}
                if "rows" in d else None)
        with _naming(where):
            oracle.add_move(BordismDatum(source, target, chain, rows))
    return oracle


def oracle_to_data(oracle):
    classes = [{"name": h.name, "kind": h.kind, "dim": h.dim,
                "support": sorted(h.support, key=repr)}
               for h in oracle.handles.values()]
    pairings = [{"left": left, "right": right,
                 "result": [[t, c] for t, c in result]}
                for (left, right), result in sorted(oracle.pairings.items())]
    disjoint = sorted(sorted(pair) for pair in oracle.disjoint)
    moves = []
    for d in oracle.data:
        entry = {"source": d.source, "target": d.target}
        if d.chain is not None:
            entry["chain"] = {str(e): c
                              for e, c in sorted(d.chain.items(),
                                                 key=lambda kv: repr(kv[0]))}
        else:
            entry["rows"] = {
                ",".join(str(i) for i in sorted(axes)):
                    [[e, c] for e, c in entries]
                for axes, entries in sorted(d.rows.items(),
                                            key=lambda kv: sorted(kv[0]))}
        moves.append(entry)
    return {"classes": classes, "pairings": pairings,
            "disjoint": disjoint, "bordism": moves}


def dumps_fixture(fixture):
    """Deterministic JSON text for a fixture."""
    return json.dumps(fixture_to_data(fixture), indent=2, sort_keys=True) + "\n"


def load_fixture(path):
    """Read and parse one fixture file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ValidationError("cannot read fixture file %s: %s" % (p, exc))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("fixture file %s is not valid JSON: %s"
                              % (p, exc))
    return parse_fixture(data, name=p.stem)


def bundled_names():
    """Names of the fixtures shipped with the package."""
    root = resources.files(__name__)
    return sorted(entry.name[:-5] for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def resolve_fixture(spec):
    """A fixture from a path, or from a bundled name when no such file
    exists."""
    path = Path(spec)
    if path.exists():
        return load_fixture(path)
    names = bundled_names()
    if str(spec) in names:
        text = (resources.files(__name__) / (str(spec) + ".json")).read_text()
        return parse_fixture(json.loads(text), name=str(spec))
    raise ValidationError(
        "no fixture file or bundled fixture %r; bundled fixtures: %s"
        % (spec, ", ".join(names)))

"""Intersection products of homology classes given by position data.

Three shapes of class appear.  Face classes are carried by the closed
faces of the orbit space and multiply in the quotient of the face ring by
the linear system, every pair through ``FaceRingQuotient.face_product``.
The other two are named classes living over a geometry table: spines
(interior cycles of the orbit space swept around by part of the torus)
and diaphragms (chains leaning on the boundary whose torus directions
close them up).  Products involving named classes cannot be computed
from the combinatorics alone, so the table also declares what is known
about them: explicit pairings, disjointness, and bordism moves that trade
a diaphragm for a parallel one at the cost of face corrections.

The table is built from ``Handle`` and ``BordismDatum`` objects, whose
faces are poset elements; ``fixtures.read_geometry`` reads it from the
geometry block of a fixture file.

The calculator expands products bilinearly and resolves each pair of
terms by, in order: declared pairing (also looked up in swapped order,
with the graded commutation sign), declared disjointness, and a
backtracking search through bordism moves bounded by ``max_depth``.
"""

from .errors import (ValidationError, UnresolvableError,
                     DegreeOverflowError, MismatchedDatumError)
from .fields import QQ, is_int, lift, require_field
from .posets import BOTTOM

FACE = "face"
SPINE = "spine"
DIAPHRAGM = "diaphragm"

_KIND_ALIASES = {
    "spine": SPINE,
    "spi": SPINE,
    "diaphragm": DIAPHRAGM,
    "dia": DIAPHRAGM,
}


# --- torus words ---------------------------------------------------------

def shuffle_sign(left, right):
    """Sign of the permutation that sorts the concatenation of two
    disjoint increasing sequences into one increasing sequence."""
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def wedge_axes(a, b):
    """Exterior product of two axis words: ``(sign, union)``, with sign 0
    when the words share an axis."""
    a, b = frozenset(a), frozenset(b)
    if a & b:
        return 0, None
    return shuffle_sign(sorted(a), sorted(b)), a | b


def dual_axes(a, n):
    """Complementary word and the sign picked up passing to it."""
    a = frozenset(a)
    comp = frozenset(range(1, n + 1)) - a
    return shuffle_sign(sorted(a), sorted(comp)), comp


def torus_intersect_axes(a, b, n):
    """Intersection product on axis words: dualize both factors, wedge,
    and dualize back.  Returns ``(sign, word)``; sign 0 means the
    product vanishes."""
    sa, ca = dual_axes(a, n)
    sb, cb = dual_axes(b, n)
    sw, union = wedge_axes(ca, cb)
    if sw == 0:
        return 0, None
    word = frozenset(range(1, n + 1)) - union
    si, _ = dual_axes(word, n)
    return sa * sb * sw * si, word


def format_axes(axes):
    if not axes:
        return "e0"
    return "e" + "".join(str(i) for i in sorted(axes))


def format_term(key):
    if key[0] == FACE:
        elt = key[1]
        return "face:%s" % ("*" if elt is BOTTOM else elt)
    kind, name, axes = key
    tag = "dia" if kind == DIAPHRAGM else "spine"
    return "%s:%s:%s" % (tag, name, format_axes(axes))


def _term_sort_key(key):
    if key[0] == FACE:
        return (0, repr(key[1]), ())
    order = 1 if key[0] == SPINE else 2
    return (order, key[1], tuple(sorted(key[2])))


class CycleExpression:
    """Formal combination of class terms with exact coefficients.

    Terms are keyed ``("face", element)`` or ``(kind, name, axes)`` with
    kind one of ``"spine"`` and ``"diaphragm"``.  Coefficients are kept
    as the integers or fractions they were supplied as; zero terms are
    dropped on entry.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                self.add_term(key, coeff)

    @classmethod
    def face(cls, element, coeff=1):
        return cls([((FACE, element), coeff)])

    @classmethod
    def spine(cls, name, axes=(), coeff=1):
        return cls([((SPINE, str(name), frozenset(axes)), coeff)])

    @classmethod
    def diaphragm(cls, name, axes=(), coeff=1):
        return cls([((DIAPHRAGM, str(name), frozenset(axes)), coeff)])

    def add_term(self, key, coeff):
        if not coeff:
            return
        if key[0] not in (FACE, SPINE, DIAPHRAGM):
            raise ValidationError("unknown term kind %r" % (key[0],))
        total = self.terms.get(key, 0) + coeff
        if total:
            self.terms[key] = total
        else:
            self.terms.pop(key, None)

    def iter_terms(self):
        return iter(sorted(self.terms.items(),
                           key=lambda kv: _term_sort_key(kv[0])))

    def is_zero(self):
        return not self.terms

    def scale(self, coeff):
        out = CycleExpression()
        for key, c in self.terms.items():
            out.add_term(key, c * coeff)
        return out

    def __add__(self, other):
        out = CycleExpression(self.terms)
        for key, c in other.terms.items():
            out.add_term(key, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, CycleExpression):
            return NotImplemented
        return self.terms == other.terms

    def describe(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.iter_terms():
            atom = format_term(key)
            mag = abs(c)
            body = atom if mag == 1 else "%s*%s" % (mag, atom)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "CycleExpression(%s)" % self.describe()


# --- the geometry table --------------------------------------------------

class Handle:
    """A named class: kind, dimension of its body in the orbit space, and
    the facets its support touches."""

    def __init__(self, name, kind, dim, support=()):
        try:
            self.kind = _KIND_ALIASES[str(kind).lower()]
        except KeyError:
            raise ValidationError("unknown class kind %r" % (kind,))
        self.name = str(name)
        if not is_int(dim) or dim < 0:
            raise ValidationError("class dimension must be a nonnegative "
                                  "integer, got %r" % (dim,))
        self.dim = dim
        self.support = frozenset(support)

    def __repr__(self):
        return "Handle(%r, %s, dim=%d)" % (self.name, self.kind, self.dim)


class BordismDatum:
    """A bordism trading the ``source`` diaphragm for the ``target`` one.

    The cost shows up as face corrections.  They can be given two ways:
    as the interior chain of the bordism keyed by the faces it crosses
    (the corrections are then computed from the characteristic matrix),
    or as precomputed rows keyed by axis word.
    """

    def __init__(self, source, target, chain=None, rows=None):
        if (chain is None) == (rows is None):
            raise ValidationError(
                "a bordism datum needs exactly one of chain and rows")
        self.source = str(source)
        self.target = str(target)
        self.chain = None
        self.rows = None
        if chain is not None:
            self.chain = {}
            for elt, c in chain.items():
                if not is_int(c):
                    raise ValidationError(
                        "chain coefficient %r is not an integer" % (c,))
                if c:
                    self.chain[elt] = c
        else:
            self.rows = {}
            for axes, entries in rows.items():
                entries = [(elt, c) for elt, c in entries]
                for _, c in entries:
                    if not is_int(c):
                        raise ValidationError(
                            "bordism move %s -> %s has row coefficient %r, "
                            "which is not an integer"
                            % (self.source, self.target, c))
                self.rows[frozenset(axes)] = entries

    def face_part(self, axes, charmat):
        """Correction terms for one axis word, as ``(element, coeff)``
        pairs.  A chain whose faces take words of another length does not
        describe this word."""
        axes = frozenset(axes)
        if self.chain is not None:
            out = []
            for elt, d in sorted(self.chain.items(),
                                 key=lambda kv: repr(kv[0])):
                length = charmat.n - charmat.poset.rank(elt)
                if len(axes) != length:
                    raise MismatchedDatumError(
                        "bordism %s->%s crosses face %r, which takes words "
                        "of length %d, not %s" % (self.source, self.target,
                                                  elt, length,
                                                  format_axes(axes)))
                c = charmat.c_coefficient(elt, axes)
                if c:
                    out.append((elt, -d * c))
            return out
        try:
            return list(self.rows[axes])
        except KeyError:
            raise MismatchedDatumError(
                "bordism %s->%s has no row for %s"
                % (self.source, self.target, format_axes(axes)))

    def __repr__(self):
        form = "chain" if self.chain is not None else "rows"
        return "BordismDatum(%r -> %r, %s)" % (self.source, self.target,
                                               form)


class GeometryOracle:
    """Declared geometric facts about the named classes.

    ``pairings`` maps an ordered pair of names to the list of
    ``(target, coeff)`` classes their bodies intersect in; an empty list
    is a declaration that they meet in nothing.  ``disjoint`` lists
    unordered pairs with disjoint bodies.  ``data`` lists the bordism
    moves.  Entries can also be added one by one (``add_*``), classes first.
    """

    def __init__(self, handles=(), pairings=(), disjoint=(), data=()):
        self.handles = {}
        self.pairings = {}
        self.disjoint = set()
        self.data = []
        for h in handles:
            self.add_class(h)
        for left, right, result in pairings:
            self.add_pairing(left, right, result)
        for a, b in disjoint:
            self.add_disjoint(a, b)
        for d in data:
            self.add_move(d)

    def add_class(self, h):
        if h.name in self.handles:
            raise ValidationError("duplicate class name %r" % h.name)
        self.handles[h.name] = h

    def add_pairing(self, left, right, result):
        self.handle(left)
        self.handle(right)
        entry = []
        for target, coeff in result:
            self.handle(target)
            if not is_int(coeff):
                raise ValidationError(
                    "pairing of %s with %s has coefficient %r, which is "
                    "not an integer" % (left, right, coeff))
            entry.append((str(target), coeff))
        self.pairings[(str(left), str(right))] = entry

    def add_disjoint(self, a, b):
        self.handle(a)
        self.handle(b)
        self.disjoint.add(frozenset((str(a), str(b))))

    def add_move(self, d):
        for name in (d.source, d.target):
            if self.handle(name).kind != DIAPHRAGM:
                raise ValidationError(
                    "bordism move names %r, which is not a diaphragm"
                    % (name,))
        self.data.append(d)

    def handle(self, name):
        try:
            return self.handles[str(name)]
        except KeyError:
            raise ValidationError("unknown class name %r" % (name,))

    def pairing(self, left, right):
        return self.pairings.get((str(left), str(right)))

    def are_disjoint(self, left, right):
        return frozenset((str(left), str(right))) in self.disjoint

    def data_for(self, name):
        name = str(name)
        return [d for d in self.data if d.source == name]


# --- the calculator ------------------------------------------------------

class IntersectionCalculator:
    """Expands and resolves intersection products over one manifold and
    one geometry table.  A product of two faces is read from the
    manifold's face-ring quotient (``FaceRingQuotient.face_product``);
    the unit and a product past the top degree are handled here."""

    def __init__(self, manifold, oracle, field=QQ, max_depth=4):
        require_field(field)
        self.manifold = manifold
        self.oracle = oracle
        self.field = field
        self.max_depth = max_depth
        self.poset = manifold.poset
        self.charmat = manifold.charmat
        self.n = manifold.n

    # -- public -----------------------------------------------------------

    def intersect(self, x, y):
        """The product of two expressions, resolved to an expression whose
        face part is reduced against the fixed-point relations."""
        for arg in (x, y):
            if not isinstance(arg, CycleExpression):
                raise ValidationError(
                    "expected a CycleExpression, got %r" % (arg,))
        return self._expand(x, y, 0)

    def reduced_faces(self, expr):
        """Face part of an expression as coordinates over the surviving
        classes, one entry per grading degree that carries anything."""
        vecs = {}
        for key, c in expr.iter_terms():
            if key[0] != FACE:
                continue
            elt = key[1]
            q = self.n - self._rank_of(elt)
            page = self.manifold.diagonal_page(q, self.field, "limit")
            vec = vecs.setdefault(q, [self.field.zero] * len(page.generators))
            col = page.column(elt)
            vec[col] = self.field.add(vec[col], lift(c, self.field))
        out = {}
        for q, vec in sorted(vecs.items()):
            page = self.manifold.diagonal_page(q, self.field, "limit")
            coords = page.coordinates(vec)
            if any(not self.field.is_zero(v) for v in coords):
                out[q] = coords
        return out

    def magnitude(self, expr):
        """Absolute value of the single surviving coefficient.  Face terms
        are reduced first; an expression with several independent parts
        has no magnitude and is rejected."""
        values = [lift(c, self.field) for key, c in expr.iter_terms()
                  if key[0] != FACE
                  and not self.field.is_zero(lift(c, self.field))]
        for coords in self.reduced_faces(expr).values():
            values.extend(v for v in coords if not self.field.is_zero(v))
        if not values:
            return 0
        if len(values) > 1:
            raise ValidationError(
                "expression is not a single class: %d independent parts"
                % len(values))
        return abs(values[0])

    # -- expansion --------------------------------------------------------

    def _rank_of(self, elt):
        try:
            return self.poset.rank(elt)
        except KeyError:
            raise ValidationError("unknown face %r in expression" % (elt,))

    def _expand(self, x, y, depth):
        acc = {}
        for k1, c1 in x.iter_terms():
            scale1 = lift(c1, self.field)
            for k2, c2 in y.iter_terms():
                scale = self.field.mul(scale1, lift(c2, self.field))
                if self.field.is_zero(scale):
                    continue
                for key, c in self._pair(k1, k2, depth):
                    total = self.field.add(
                        acc.get(key, self.field.zero),
                        self.field.mul(c, scale))
                    acc[key] = total
        out = CycleExpression()
        for key, c in acc.items():
            if not self.field.is_zero(c):
                out.add_term(key, c)
        return out

    def _pair(self, k1, k2, depth):
        kinds = (k1[0], k2[0])
        if kinds == (FACE, FACE):
            return self._face_face(k1[1], k2[1])
        if FACE in kinds:
            face_key, other = (k1, k2) if k1[0] == FACE else (k2, k1)
            if other[0] == SPINE:
                return []
            return self._dia_face(other, face_key, depth)
        return self._symbol_symbol(k1, k2, depth)

    def _codim(self, key):
        if key[0] == FACE:
            return 2 * self._rank_of(key[1])
        handle = self.oracle.handle(key[1])
        return (self.n - handle.dim) + (self.n - len(key[2]))

    def _swap_sign(self, k1, k2):
        return -1 if (self._codim(k1) * self._codim(k2)) % 2 else 1

    def _classified(self, handle, axes):
        kind = handle.kind
        if handle.dim < len(axes):
            kind = DIAPHRAGM
        elif handle.dim > len(axes):
            kind = SPINE
        return (kind, handle.name, frozenset(axes))

    def _symbol_symbol(self, k1, k2, depth):
        name1, name2 = k1[1], k2[1]
        sign, word = torus_intersect_axes(k1[2], k2[2], self.n)
        if sign == 0:
            return []
        declared = self.oracle.pairing(name1, name2)
        if declared is None and self.oracle.pairing(name2, name1) is not None:
            sw = self.field.from_int(self._swap_sign(k1, k2))
            return [(key, self.field.mul(c, sw))
                    for key, c in self._symbol_symbol(k2, k1, depth)]
        if declared is not None:
            out = []
            for target, coeff in declared:
                handle = self.oracle.handle(target)
                out.append((self._classified(handle, word),
                            self.field.from_int(coeff * sign)))
            return out
        if self.oracle.are_disjoint(name1, name2):
            return []
        return self._search(k1, k2, depth)

    def _dia_face(self, dia_key, face_key, depth):
        elt = face_key[1]
        if elt is BOTTOM:
            return [(dia_key, self.field.one)]
        self._rank_of(elt)
        support = self.oracle.handle(dia_key[1]).support
        if not (self.poset.ver(elt) & support):
            return []
        return self._search(dia_key, face_key, depth)

    def _search(self, k1, k2, depth):
        """Backtracking over bordism moves applied to either side."""
        pair_text = "%s against %s" % (format_term(k1), format_term(k2))
        if depth >= self.max_depth:
            raise UnresolvableError(
                "bordism search depth exhausted resolving " + pair_text)
        options = []
        if k1[0] == DIAPHRAGM:
            options += [("left", d) for d in self.oracle.data_for(k1[1])]
        if k2[0] == DIAPHRAGM:
            options += [("right", d) for d in self.oracle.data_for(k2[1])]
        if not options:
            raise UnresolvableError(
                "no pairing, disjointness, or bordism move applies to "
                + pair_text)
        for side, datum in options:
            try:
                if side == "left":
                    result = self._expand(self._rewritten_term(k1, datum),
                                          CycleExpression([(k2, 1)]),
                                          depth + 1)
                else:
                    result = self._expand(CycleExpression([(k1, 1)]),
                                          self._rewritten_term(k2, datum),
                                          depth + 1)
            except (UnresolvableError, MismatchedDatumError):
                continue
            return [(key, lift(c, self.field))
                    for key, c in result.iter_terms()]
        raise UnresolvableError(
            "every bordism move failed resolving " + pair_text)

    def _rewritten_term(self, key, datum):
        axes = key[2]
        target = self.oracle.handle(datum.target)
        out = CycleExpression([(self._classified(target, axes), 1)])
        for elt, c in datum.face_part(axes, self.charmat):
            self._rank_of(elt)
            out.add_term((FACE, elt), c)
        return out

    # -- face products ----------------------------------------------------

    def _face_face(self, a, b):
        if a is BOTTOM:
            return [((FACE, b), self.field.one)]
        if b is BOTTOM:
            return [((FACE, a), self.field.one)]
        ra, rb = self._rank_of(a), self._rank_of(b)
        weight = ra + rb
        if weight > self.n:
            raise DegreeOverflowError(
                "face product of coranks %d and %d overflows the grading "
                "(top corank %d)" % (ra, rb, self.n))
        quo = self.manifold.quotient(self.field)
        vec = quo.face_product(a, b)
        gens = quo.presentation(weight).generators
        return [((FACE, g), c) for g, c in zip(gens, vec)
                if not self.field.is_zero(c)]

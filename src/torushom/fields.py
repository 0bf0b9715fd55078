"""Coefficient systems and exact linear algebra over a field.

Matrices are plain lists of rows.  Entries belong to whichever coefficient
system interprets them: ``fractions.Fraction`` for the rationals, reduced
residues for a prime field, plain ints for ``ZZ``.  Every system offers
``zero``, ``one``, ``from_int``, ``add``, ``mul`` and ``is_zero``, so code
that only lifts, adds and multiplies is written once for all of them.  The
choice between the integers and a field is made here: ``solve_all`` hands
``ZZ`` to ``snf.int_solve_all``, and the elimination routines (``rref``,
``rank``, ``nullspace``, ``Echelon``) need a field.

There is one elimination loop over a field, in ``Echelon``: it keeps
each reduced row sparsely, as {column: value}, lifts input entries into
the field only where they are nonzero, and does field arithmetic only on
nonzero entries, since the boundary and relation matrices it is fed are
mostly zeros.  ``rref`` and ``rank`` are an ``Echelon`` built from rows,
with the dense reduced echelon form built when read; ``nullspace`` and
``solve_all`` read their answers off the sparse rows.

``solve_all`` solves one matrix against many right-hand sides with a
single elimination of [A | b_1 ... b_m]; ``solve`` is its one-vector case.
"""

from fractions import Fraction

from . import snf
from .errors import CoefficientError


class Rationals:
    """The field of rational numbers."""

    name = "Q"
    is_field = True

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field with p elements, p prime.  Elements are ints in range(p)."""

    is_field = True

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise CoefficientError("modulus %r is not prime" % (p,))
        self.p = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


class Integers:
    """The integers: ring operations on plain ints.  Not a field."""

    name = "Z"
    is_field = False
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "ZZ"


QQ = Rationals()
ZZ = Integers()


def GF(p):
    return PrimeField(p)


def coefficient_system(text):
    """Parse a coefficient selector: ``q``, ``z``, or ``f<p>`` (e.g. ``f5``)."""
    t = text.strip().lower()
    if t in ("q", "qq", "rational", "rationals"):
        return QQ
    if t in ("z", "zz", "int", "integers"):
        return ZZ
    if t.startswith("f") and t[1:].isdigit():
        return GF(int(t[1:]))
    raise CoefficientError("unknown coefficient system %r" % (text,))


def require_field(coeffs):
    if not getattr(coeffs, "is_field", False):
        raise CoefficientError("%r is not a field" % (coeffs,))
    return coeffs


def is_int(value):
    """True for an int that is not a bool: the integers of the input
    formats, where JSON true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_id(value):
    """True for a JSON string or integer, the ids of the input formats."""
    return isinstance(value, str) or is_int(value)


def lift(value, coeffs):
    """An int as an element of ``coeffs``; any other value is taken to be
    one already and passed through unchanged."""
    return coeffs.from_int(value) if isinstance(value, int) else value


def rref(rows, field):
    """Reduced row echelon form, built by adding the rows one by one to an
    ``Echelon``.

    Returns (echelon_rows, pivot_columns) as dense lists.  The input is not
    modified.  Zero rows are dropped from the result, and rows of unequal
    length raise ``ValueError``.
    """
    echelon = Echelon(field, rows)
    return echelon.rows, echelon.pivots


def rank(rows, field):
    return len(Echelon(field, rows))


def nullspace(rows, field):
    """Basis of the right kernel {v : rows @ v = 0}, as a list of vectors:
    one per free column, read off the sparse rows of the echelon form."""
    if not rows:
        return []
    echelon = Echelon(field, rows)
    ncols = echelon.width
    basis = {}  # free column -> its kernel vector, in column order
    for fc in range(ncols):
        if fc not in echelon._rows:
            basis[fc] = [field.zero] * ncols
            basis[fc][fc] = field.one
    for pc, row in echelon._rows.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = field.neg(x)
    return list(basis.values())


def solve_all(rows, bs, field):
    """A solution of rows @ x = b for every b in ``bs``, each None when
    inconsistent, from one reduced echelon form of [rows | b_1 ... b_m].
    Over ``ZZ`` the solutions are integral and come from one Smith form
    (``snf.int_solve_all``)."""
    if field is ZZ:
        return snf.int_solve_all(rows, bs)
    if any(len(b) != len(rows) for b in bs):
        raise ValueError("dimension mismatch")
    if not rows or not bs:
        return [[] for _ in bs]
    ncols = len(rows[0])
    echelon = Echelon(field, [list(r) + [b[i] for b in bs]
                              for i, r in enumerate(rows)])
    out = [[field.zero] * ncols for _ in bs]
    inconsistent = set()
    for pc, row in echelon._rows.items():
        if pc >= ncols:
            inconsistent.update(row)
            continue
        for j, x in row.items():
            if j >= ncols:
                out[j - ncols][pc] = x
    return [None if ncols + i in inconsistent else x
            for i, x in enumerate(out)]


def solve(rows, b, field):
    """One solution of rows @ x = b, or None when inconsistent: the
    one-vector case of ``solve_all``."""
    return solve_all(rows, [b], field)[0]


class Echelon:
    """A row space over a field, kept in reduced row echelon form.

    Each kept row is stored sparsely, as {column: value} under its pivot
    column: its entry there is one, and it has no entry on any other pivot
    column.  Vectors come in as dense lists of ints or field elements, all
    of the width of the first row added (``ValueError`` otherwise); their
    entries are lifted into the field only where they are nonzero, and the
    arithmetic touches only nonzero entries.

    ``reduce`` clears the pivot columns of a vector against the kept rows
    (``reduce_sparse`` does so for a vector given as {column: value}; it
    is the one reduction loop, and the dense entries lift into it),
    ``contains`` tests membership, and ``add`` keeps a vector when it is
    independent of the rows so far and reports whether it was.  Testing a
    stack of vectors one by one this way eliminates each vector once
    instead of the whole stack again for every vector.  ``rows`` and
    ``pivots`` are the dense reduced echelon form, built when read and kept
    until the next ``add``.
    """

    def __init__(self, field, rows=()):
        self.field = require_field(field)
        self.width = None
        self._rows = {}
        self._dense = None
        for row in rows:
            self.add(row)

    def __len__(self):
        return len(self._rows)

    @property
    def pivots(self):
        return sorted(self._rows)

    @property
    def rows(self):
        if self._dense is None:
            self._dense = []
            for pc in self.pivots:
                row = [self.field.zero] * self.width
                for c, x in self._rows[pc].items():
                    row[c] = x
                self._dense.append(row)
        return self._dense

    def _sparse(self, vec):
        """A dense vector as {column: nonzero field value}."""
        if self.width is not None and len(vec) != self.width:
            raise ValueError("dimension mismatch")
        is_zero = self.field.is_zero
        return {j: lift(x, self.field) for j, x in enumerate(vec)
                if x and not is_zero(x)}

    def reduce_sparse(self, v):
        """v − Σ v[p]·row_p over the pivots p in the support of v, for v
        given as {column: nonzero field value}, in the same form; v is not
        modified.  Every row is zero on the other pivot columns, so each
        v[p] is read from the input and the order of the subtractions does
        not matter."""
        field = self.field
        is_zero, sub, mul = field.is_zero, field.sub, field.mul
        out = dict(v)
        for pc, c in v.items():
            row = self._rows.get(pc)
            if row is None:
                continue
            del out[pc]
            for j, y in row.items():
                if j != pc:
                    d = sub(out.get(j, field.zero), mul(c, y))
                    if is_zero(d):
                        del out[j]
                    else:
                        out[j] = d
        return out

    def reduce(self, vec):
        out = [self.field.zero] * len(vec)
        for j, x in self.reduce_sparse(self._sparse(vec)).items():
            out[j] = x
        return out

    def contains(self, vec):
        return not self.reduce_sparse(self._sparse(vec))

    def add(self, vec):
        v = self.reduce_sparse(self._sparse(vec))
        if self.width is None:
            self.width = len(vec)
        if not v:
            return False
        field = self.field
        is_zero, sub, mul = field.is_zero, field.sub, field.mul
        pc = min(v)
        inv = field.inv(v.pop(pc))
        v = {j: mul(inv, x) for j, x in v.items()}
        for row in self._rows.values():
            c = row.pop(pc, None)
            if c is None:
                continue
            for j, y in v.items():
                d = sub(row.get(j, field.zero), mul(c, y))
                if is_zero(d):
                    del row[j]
                else:
                    row[j] = d
        v[pc] = field.one
        self._rows[pc] = v
        self._dense = None
        return True


def row_space_contains(rows, vec, field):
    return Echelon(field, rows).contains(vec)


def row_spaces_equal(rows_a, rows_b, field):
    """Reduced echelon forms are unique, so equal spans have equal ones."""
    return Echelon(field, rows_a).rows == Echelon(field, rows_b).rows

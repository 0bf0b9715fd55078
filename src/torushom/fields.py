"""Coefficient systems and exact linear algebra over a field.

Matrices are plain lists of rows.  Entries belong to whichever coefficient
system interprets them: ``fractions.Fraction`` for the rationals, reduced
residues for a prime field, plain ints for ``ZZ``.  Every system offers
``zero``, ``one``, ``from_int``, ``add``, ``mul`` and ``is_zero``, so code
that only lifts, adds and multiplies is written once for all of them.  The
choice between the integers and a field is made here: ``solve_all`` hands
``ZZ`` to ``snf.int_solve_all``, and the elimination routines (``rref``,
``rank``, ``nullspace``, ``Echelon``) need a field.

There is one elimination loop over a field, ``Echelon.add``: ``rref``
adds its rows one by one to an empty ``Echelon``, and ``rank``,
``nullspace``, ``solve_all`` and an ``Echelon`` started from rows all
read their reduced echelon form from ``rref``.

``solve_all`` solves one matrix against many right-hand sides with a
single elimination of [A | b_1 ... b_m]; ``solve`` is its one-vector case.
"""

from bisect import bisect
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


def mat_from_int(rows, field):
    return [[field.from_int(x) for x in row] for row in rows]


def mat_vec(a, v, field):
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def rref(rows, field):
    """Reduced row echelon form, built by adding the rows one by one to an
    empty ``Echelon``.

    Returns (echelon_rows, pivot_columns).  The input is not modified.
    Zero rows are dropped from the result.
    """
    echelon = Echelon(field)
    for row in rows:
        echelon.add(row)
    return echelon.rows, echelon.pivots


def rank(rows, field):
    return len(rref(rows, field)[0])


def nullspace(rows, field):
    """Basis of the right kernel {v : rows @ v = 0}, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(ech[r][fc])
        basis.append(v)
    return basis


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
    aug = [list(r) + [b[i] for b in bs] for i, r in enumerate(rows)]
    ech, pivots = rref(aug, field)
    rank_a = next((r for r, pc in enumerate(pivots) if pc >= ncols),
                  len(pivots))
    out = []
    for j in range(ncols, ncols + len(bs)):
        if any(not field.is_zero(row[j]) for row in ech[rank_a:]):
            out.append(None)
            continue
        x = [field.zero] * ncols
        for row, pc in zip(ech, pivots[:rank_a]):
            x[pc] = row[j]
        out.append(x)
    return out


def solve(rows, b, field):
    """One solution of rows @ x = b, or None when inconsistent: the
    one-vector case of ``solve_all``."""
    return solve_all(rows, [b], field)[0]


class Echelon:
    """A row space over a field, kept in reduced row echelon form.

    ``reduce`` clears the pivot columns of a vector against the kept rows,
    ``contains`` tests membership, and ``add`` keeps a vector when it is
    independent of the rows so far and reports whether it was.  Testing a
    stack of vectors one by one this way eliminates each vector once
    instead of the whole stack again for every vector.
    """

    def __init__(self, field, rows=()):
        self.field = require_field(field)
        self.rows, self.pivots = rref(rows, field) if rows else ([], [])

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        field = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not field.is_zero(c):
                v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec):
        return all(self.field.is_zero(x) for x in self.reduce(vec))

    def add(self, vec):
        field = self.field
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if not field.is_zero(x)), None)
        if p is None:
            return False
        inv = field.inv(v[p])
        v = [field.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            c = row[p]
            if not field.is_zero(c):
                self.rows[i] = [field.sub(x, field.mul(c, y))
                                for x, y in zip(row, v)]
        at = bisect(self.pivots, p)
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True


def row_space_contains(rows, vec, field):
    return Echelon(field, rows).contains(vec)


def row_spaces_equal(rows_a, rows_b, field):
    """Reduced echelon forms are unique, so equal spans have equal ones."""
    return Echelon(field, rows_a).rows == Echelon(field, rows_b).rows

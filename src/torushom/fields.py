"""Coefficient systems and exact linear algebra over a field.

Matrices are plain lists of rows.  Entries belong to whichever coefficient
system interprets them: ``fractions.Fraction`` for the rationals, reduced
residues for a prime field, plain ints for ``ZZ``.  Every system offers
``zero``, ``one``, ``from_int``, ``add``, ``mul`` and ``is_zero``, so code
that only lifts, adds and multiplies is written once for all of them.
``solve_all`` hands ``ZZ`` to ``snf.int_solve_all``; every other
elimination routine needs a field.

There is one elimination loop over a field, in ``Echelon``, and it runs
on plain ints, fraction-free in the manner of Bareiss (1968): rows are
kept sparsely as {column: int}, a vector over Q has its denominators
cleared, and each pivot p it meets is cleared by w <- e*w - w[p]*row_p,
touching only nonzero entries, since the boundary and relation matrices
it is fed are mostly zeros.  Q and GF(p) differ only in how a row is
normalised and in that GF(p) reduces entries mod p.  ``Fraction``s are
made only where values are read off the sparse rows.

Kernels are read off kept echelons: ``Echelon.kernel`` gives the right
kernel of the rows (``nullspace``, field homology), and each kernel of a
map into a quotient (the connecting map, the inclusion kernel, the socle
placement) comes from a ``tracked`` copy of the quotient's kept echelon
and is checked by ``kernel_spans``.  An ``Echelon`` takes and gives
only {column: value}: relation rows, chains, coordinates and tracked
vectors come in sparse, summed by ``add_scaled``.  Dense lists are met
only by the helpers ``rref``, ``rank``, ``nullspace``, ``solve_all``,
``solve`` and ``row_space_contains``, which convert at one place each
way (``_sparse`` for vectors in, ``_spread`` for vectors out); the package
calls only ``nullspace``, in ``socle_basis``, which only tests call.
"""

from fractions import Fraction
from math import gcd, lcm

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


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p):
    """Miller-Rabin on the witnesses 2 .. 37, the first twelve primes,
    which is exact below 3.18e23 (Sorenson and Webster, 2015), so for
    every modulus below 2^64 that ``PrimeField`` takes."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p prime below 2^64.  Elements are ints
    in range(p)."""

    is_field = True

    def __init__(self, p):
        if p >= 2 ** 64:
            raise CoefficientError("modulus %r is not below 2^64" % (p,))
        if not is_prime(p):
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


def plain(value):
    """A field value as a plain int where it is one: a ``Fraction`` with
    denominator one becomes its numerator, and any other value passes
    through.  Sums and products of plain ints stay ints, which
    ``Echelon`` takes without clearing denominators."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def add_scaled(coeffs, target, coeff, vec):
    """target += coeff·vec, both {index: nonzero value} in ``coeffs`` and
    coeff nonzero; plain int values and coefficients stay plain ints."""
    for c, x in vec.items():
        y = coeffs.add(target.get(c, 0), coeffs.mul(coeff, x))
        if coeffs.is_zero(y):
            del target[c]
        else:
            target[c] = y


def _echelon(rows, field):
    """An ``Echelon`` of dense rows of ints or field values, and their
    width (None for no rows); rows of unequal length raise
    ``ValueError``."""
    echelon, width = Echelon(field), None
    for row in rows:
        echelon.add_sparse(_sparse(row, width))
        width = len(row)
    return echelon, width


def _sparse(vec, width):
    """A dense vector as {column: nonzero value}, checked to have length
    ``width`` when that is not None."""
    if width is not None and len(vec) != width:
        raise ValueError("dimension mismatch")
    return {j: x for j, x in enumerate(vec) if x}


def _spread(vec, width, field):
    """A {column: value} as a dense list of ``width`` field values."""
    out = [field.zero] * width
    for j, x in vec.items():
        out[j] = x
    return out


def rref(rows, field):
    """Reduced row echelon form, built by adding the rows one by one to an
    ``Echelon``.

    Returns (echelon_rows, pivot_columns) as dense lists.  The input is not
    modified.  Zero rows are dropped from the result, and rows of unequal
    length raise ``ValueError``.
    """
    echelon, width = _echelon(rows, field)
    pivots = echelon.pivots
    return [_spread(echelon.row(pc), width, field) for pc in pivots], pivots


def rank(rows, field):
    return len(_echelon(rows, field)[0])


def nullspace(rows, field):
    """Basis of the right kernel {v : rows @ v = 0}, as a list of vectors:
    one per free column, read off the echelon form by ``Echelon.kernel``."""
    if not rows:
        return []
    echelon, width = _echelon(rows, field)
    return [_spread(echelon.values(w, d), width, field)
            for w, d in echelon.kernel(width)]


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
    echelon, _ = _echelon([list(r) + [b[i] for b in bs]
                           for i, r in enumerate(rows)], field)
    out = [[field.zero] * ncols for _ in bs]
    inconsistent = set()
    for pc, row in echelon._rows.items():
        if pc >= ncols:
            inconsistent.update(row)
            continue
        for j, x in echelon.values(row, row[pc]).items():
            if j >= ncols:
                out[j - ncols][pc] = x
    return [None if ncols + i in inconsistent else x
            for i, x in enumerate(out)]


def solve(rows, b, field):
    """One solution of rows @ x = b, or None when inconsistent: the
    one-vector case of ``solve_all``."""
    return solve_all(rows, [b], field)[0]


def row_space_contains(rows, vec, field):
    echelon, width = _echelon(rows, field)
    return echelon.contains_sparse(_sparse(vec, width))


class Echelon:
    """A row space over a field, kept in reduced row echelon form on ints.

    Each kept row is stored sparsely, as {column: int} under its pivot
    column, and has no entry on any other pivot column.  Over Q it is the
    primitive integer multiple of its reduced echelon row whose pivot
    entry is positive: the row over its pivot entry is the reduced row.
    Over GF(p) it is the reduced row itself, pivot entry one and entries
    in range(p).  Both run the one loop, ``_clear``; they differ in how
    ``_normalise`` scales a row and in that GF(p) reduces entries mod p.

    It starts empty, and every vector comes in and goes out as {column:
    nonzero value}; it has no width.  Over GF(p) the values are any ints,
    reduced mod p in one place, ``_reduce``, so a boundary column comes in
    as it is kept.  Over Q they are ints or ``Fraction``s, whose
    denominators are cleared by their lcm, so the elimination is plain
    integer arithmetic on nonzero entries, and ``Fraction``s are made only
    where values are read (``values``, ``row``, ``reduce_sparse``).

    ``add_sparse`` keeps a vector when it is independent of the rows so
    far and reports whether it was; testing a stack of vectors one by one
    this way eliminates each vector once instead of the whole stack again
    for every vector.
    """

    def __init__(self, field):
        self.field = require_field(field)
        self._modulus = field.p if isinstance(field, PrimeField) else None
        self._rows = {}

    def __len__(self):
        return len(self._rows)

    @property
    def pivots(self):
        return sorted(self._rows)

    def _clear(self, steps):
        """The one elimination loop.  Each step (w, pc, row) clears column
        pc of w, a {column: nonzero int}, in place against the kept row
        with pivot column pc: w <- e*w - w[pc]*row, e the pivot entry of
        row.  A row is zero on every other pivot column, so a step changes
        no other pivot entry of w but by the scaling, and steps on one w
        may come in any order; w divided by the product of the pivot
        entries used, which is returned, is then w reduced.  Over GF(p)
        every pivot entry is one and each updated entry is reduced mod
        p."""
        p = self._modulus
        scale = 1
        for w, pc, row in steps:
            c = w[pc]
            e = row[pc]
            if e != 1:
                scale *= e
                for j in w:
                    w[j] *= e
            for j, y in row.items():
                x = w.get(j, 0) - c * y
                if p:
                    x %= p
                if x:
                    w[j] = x
                else:
                    del w[j]
        return scale

    def _reduce(self, v):
        """v, a {column: nonzero value}, reduced against the kept rows, as
        (w, d): w a new {column: nonzero int} and d a positive int, with
        w/d the reduced vector.  Over Q the values are ints or
        ``Fraction``s, whose denominators are cleared by their lcm first;
        over GF(p) they are ints, reduced mod p here, and d is one."""
        w, d = None, 1
        p = self._modulus
        if p is not None:
            w = {j: x % p for j, x in v.items() if x % p}
        else:
            for x in v.values():
                if type(x) is not int:
                    d = lcm(*[y.denominator for y in v.values()])
                    w = {j: y.numerator * (d // y.denominator)
                         for j, y in v.items()}
                    break
        if w is None:
            w = dict(v)
        rows = self._rows
        steps = []
        for pc in w:
            if pc in rows:
                steps.append((w, pc, rows[pc]))
        if steps:
            d *= self._clear(steps)
        return w, d

    def _normalise(self, w, pc):
        """Scales w, in place, to the kept form of a row with pivot column
        pc: over Q divided by its content and signed so the pivot entry is
        positive, over GF(p) times the inverse of its pivot entry.  The
        content divides the pivot entry, so a pivot entry one is kept."""
        e = w[pc]
        if e == 1:
            return
        p = self._modulus
        if p is not None:
            g = pow(e, -1, p)
            for j in w:
                w[j] = w[j] * g % p
            return
        g = -1 if e == -1 else gcd(*w.values())
        if e < 0 < g:
            g = -g
        if g != 1:
            for j in w:
                w[j] //= g

    def values(self, w, d):
        """The field values w/d of the ints of w, as {column: value}."""
        p = self._modulus
        if p is not None:
            if d == 1:
                return w
            inv = pow(d, -1, p)
            return {j: x * inv % p for j, x in w.items()}
        if d == 1:
            return {j: Fraction(x) for j, x in w.items()}
        return {j: Fraction(x, d) for j, x in w.items()}

    def kernel(self, width):
        """The right kernel in ``width`` columns, a vector per free column
        in column order, as (w, d) with w/d the vector (read by ``values``):
        w a {column: nonzero int} in the form ``add_sparse`` takes."""
        rows = self._rows
        entries = {c: {} for c in range(width) if c not in rows}
        for pc, row in rows.items():
            for c, x in row.items():
                if c != pc:
                    entries[c][pc] = x
        p = self._modulus
        for c, column in entries.items():
            d = lcm(*[rows[pc][pc] for pc in column])  # one over GF(p)
            w = {pc: -x * (d // rows[pc][pc]) for pc, x in column.items()}
            w[c] = d
            yield (w if p is None else {j: x % p for j, x in w.items()}), d

    def row(self, pc):
        """The kept row with pivot column pc as field values, a new {column:
        value}, its pivot entry one."""
        row = self._rows[pc]
        return dict(self.values(row, row[pc]))

    def copy(self):
        """The same rows, copied to be extended apart: ``add_sparse``
        clears kept rows in place."""
        other = Echelon(self.field)
        other._rows = {pc: dict(row) for pc, row in self._rows.items()}
        return other

    def tracked(self, vectors, m):
        """A copy extended by each v_j, {column: nonzero value} below m,
        tagged by -1 in column m+j.  Pivots are least columns, so the rows
        from column m on are (0, c), c in the reduced echelon basis of the
        kernel of c -> sum c_j v_j into the quotient by the rows."""
        other = self.copy()
        for j, vec in enumerate(vectors):
            tagged = dict(vec)
            tagged[m + j] = -1
            other.add_sparse(tagged)
        return other

    def kernel_spans(self, m, vectors):
        """Whether the rows with pivot at or past m, the kernel a ``tracked``
        copy reads, span exactly the independent ``vectors``, each {j:
        nonzero value} on the tags m+j: as many rows, each in the span."""
        return (sum(pc >= m for pc in self._rows) == len(vectors)
                and all(self.contains_sparse({m + j: x for j, x in v.items()})
                        for v in vectors))

    def reduce_sparse(self, v):
        """v, given as {column: nonzero value}, with the pivot columns
        cleared, in the same form; v is not modified."""
        return self.values(*self._reduce(v))

    def contains_sparse(self, v):
        """Whether v, given as {column: nonzero value}, lies in the row
        space; no field value is made."""
        return not self._reduce(v)[0]

    def add_sparse(self, v):
        """Keeps v, given as {column: nonzero value}, reduced, when it is
        independent of the kept rows, and returns whether it was."""
        w, _ = self._reduce(v)
        if not w:
            return False
        pc = min(w)
        self._normalise(w, pc)
        touched = [(pr, row) for pr, row in self._rows.items() if pc in row]
        self._clear([(row, pc, w) for _, row in touched])
        for pr, row in touched:
            if row[pr] != 1:
                self._normalise(row, pr)
        self._rows[pc] = w
        return True
